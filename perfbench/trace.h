// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded only from the benchmark's own client threads, around
// the calls layers.cc makes into the library; nothing inside src/ is
// instrumented. A thread records only while its thread-local switch is on,
// so a traced run can alternate traced and untraced requests and measure
// the tracing overhead on the same process and load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span
  uint64_t request = 0;  // spans of one request share this id
  int64_t start_ns = 0;  // relative to the process's trace epoch
  int64_t end_ns = 0;
};

// Turns recording on or off for the calling thread.
void SetThreadTracing(bool on);

// Marks the calling thread's next spans as belonging to a new request and
// returns the request's id.
uint64_t BeginRequest();

// RAII span: records [construction, destruction) when the thread traces.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;  // wall time inside spans of this name
  double self_ms = 0.0;   // minus the time covered by child spans
};

// Every span recorded so far, from every thread, in completion order.
std::vector<SpanRecord> CollectSpans();

// The calling thread's spans of one request (BeginRequest's id).
std::vector<SpanRecord> ThreadSpans(uint64_t request);

// Per-name totals with self time (duration minus direct children).
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
