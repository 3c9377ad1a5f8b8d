#include "trace.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

std::atomic<uint64_t> next_id{1};

// Each thread appends to its own buffer; the registry keeps every buffer
// alive past its thread's exit so CollectSpans sees all of them.
std::mutex buffers_mu;
std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;

struct ThreadState {
  bool tracing = false;
  uint64_t current_span = 0;
  uint64_t current_request = 0;
  std::shared_ptr<std::vector<SpanRecord>> buffer;

  std::vector<SpanRecord>& Buffer() {
    if (buffer == nullptr) {
      buffer = std::make_shared<std::vector<SpanRecord>>();
      buffer->reserve(1 << 16);
      std::lock_guard<std::mutex> lock(buffers_mu);
      buffers.push_back(buffer);
    }
    return *buffer;
  }
};

ThreadState& State() {
  static thread_local ThreadState state;
  return state;
}

}  // namespace

void SetThreadTracing(bool on) { State().tracing = on; }

uint64_t BeginRequest() {
  State().current_request = next_id.fetch_add(1, std::memory_order_relaxed);
  return State().current_request;
}

Span::Span(const char* name) {
  ThreadState& s = State();
  if (!s.tracing) return;
  active_ = true;
  record_.name = name;
  record_.id = next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = s.current_span;
  record_.request = s.current_request;
  saved_parent_ = s.current_span;
  s.current_span = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadState& s = State();
  s.current_span = saved_parent_;
  s.Buffer().push_back(record_);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(buffers_mu);
  for (const auto& b : buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

std::vector<SpanRecord> ThreadSpans(uint64_t request) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : State().Buffer()) {
    if (s.request == request) out.push_back(s);
  }
  return out;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(std::max<int64_t>(0, dur - children)) *
                 1e-6;
  }
  return totals;
}

}  // namespace perfbench
