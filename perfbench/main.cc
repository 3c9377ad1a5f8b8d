// Layer-attributed serving benchmark. One process runs one workload:
//
//   cod_perfbench --workload <interactive|churn|sharded-batch> --seed <n>
//                 --seconds <s> --trace <0|1> --dir <scratch dir>
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Lines before it
// state sample counts and verification results. The exit code is 1 when a
// verification pass finds a wrong answer and 2 on a usage or set-up error.
// README.md in this directory documents the workloads and metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

using cod::CodResult;
using cod::CodVariant;
using cod::QuerySpec;

// Two scheduler workers plus at most two client threads: four threads,
// within the four cores the sizes below were chosen on.
constexpr size_t kWorkers = 2;
constexpr double kWarmupSeconds = 1.0;
// How far the stand-alone cold-build stages may miss the measured cold
// rebuild (as a share of it) before the traced churn run fails. The
// rebuild also pays its queue wait, the dirty-sample triage pass and the
// publish, none of which the stages include.
constexpr double kStageTolerance = 0.25;
// Forced cold rebuilds, each paired with a stand-alone cold build, in the
// traced churn run.
constexpr int kColdRebuilds = 11;
// Warm restarts timed per run, 50 ms apart.
constexpr int kRestartReps = 60;
// Queries per sharded-batch request.
constexpr size_t kBatchSize = 32;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string dir;
};

// ---------------------------------------------------------------------------
// Small statistics helpers.

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Linear-interpolated quantile of `v` (copied, then sorted).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The sample count a percentile needs to have ten samples beyond it.
size_t SamplesFor(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

// Quantile that is reported only with at least ten samples beyond it;
// 0 otherwise (per-layer metrics mark "not measured" with 0).
double TailQuantile(const std::vector<double>& v, double q) {
  return v.size() >= SamplesFor(q) ? Quantile(v, q) : 0.0;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Mean of the samples left after dropping the lowest and highest `trim`
// share. Unlike the median it moves smoothly with the share of samples in
// each mode of a two-mode distribution.
double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Resident set of the live process after free heap pages are returned to
// the kernel: the serving state's footprint without allocator slack.
double ResidentMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Pins every thread of the process to the CPU the calling thread is on, and
// restores each thread's previous CPU set when destroyed. The virtual CPUs
// run at different speeds, each on its own schedule, so two timings taken on
// different threads compare the CPUs as much as the work; pinned, they run
// on one CPU. Threads started while pinned keep the pinned set.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(entry.path().filename().c_str(), nullptr, 10));
      cpu_set_t old;
      if (sched_getaffinity(tid, sizeof(old), &old) != 0) continue;
      if (sched_setaffinity(tid, sizeof(one), &one) == 0) {
        saved_.emplace_back(tid, old);
      }
    }
  }
  ~PinToOneCpu() {
    for (const auto& [tid, old] : saved_) {
      sched_setaffinity(tid, sizeof(old), &old);
    }
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  std::vector<std::pair<pid_t, cpu_set_t>> saved_;
};

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  const char* name;
  const char* unit;
  double value = 0.0;
};

// Every metric a run reports, in BENCHMARK.json's order: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A per-layer
// metric the workload does not exercise keeps its 0.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},       {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"batch_qps", "1/s"},   {"restart_ms", "ms"},     {"rss_mb", "MB"}};

const std::vector<Metric> kPerLayer = {
    {"sched.queue_delay_p50_ms", "ms"},
    {"sched.queue_delay_p99_ms", "ms"},
    {"sched.steal_frac", "frac"},
    {"serving.query_call_p50_ms", "ms"},
    {"serving.query_call_p99_ms", "ms"},
    {"serving.dispatch_us_per_query", "us"},
    {"serving.shard_max_share", "frac"},
    {"serving.update_us", "us"},
    {"serving.rebuild_delta_p50_ms", "ms"},
    {"serving.rebuild_cold_p50_ms", "ms"},
    {"serving.delta_frac", "frac"},
    {"serving.sample_reuse_frac", "frac"},
    {"core.codl.p50_ms", "ms"},
    {"core.codu.p50_ms", "ms"},
    {"core.codlminus.p50_ms", "ms"},
    {"core.coduidx.p50_ms", "ms"},
    {"core.codr.p50_ms", "ms"},
    {"core.chain_build_ms", "ms"},
    {"core.lore_scan_ms", "ms"},
    {"core.rr_sample_ms", "ms"},
    {"core.rr_merge_ms", "ms"},
    {"core.eval_ms", "ms"},
    {"core.rr_samples_per_query", "count"},
    {"core.explored_nodes_per_query", "count"},
    {"core.levels_per_query", "count"},
    {"core.prune_frac", "frac"},
    {"core.index_hit_frac", "frac"},
    {"core.rung0_frac", "frac"},
    {"graph.build_ms", "ms"},
    {"hierarchy.cluster_ms", "ms"},
    {"core.himor_build_ms", "ms"},
    {"influence.rr_samples_per_build", "count"},
    {"storage.encode_ms", "ms"},
    {"storage.write_ms", "ms"},
    {"storage.decode_ms", "ms"},
    {"storage.snapshot_mb", "MB"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.rebuild_stage_sum_ratio", "ratio"}};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e = kEndToEnd;
  std::vector<Metric> layer = kPerLayer;

  void E2e(std::string_view n, double v) { Set(e2e, n, v); }
  void Layer(std::string_view n, double v) { Set(layer, n, v); }
  void Fail(const std::string& what) {
    correct = false;
    std::printf("VERIFY FAIL %s\n", what.c_str());
  }

 private:
  static void Set(std::vector<Metric>& ms, std::string_view n, double v) {
    for (Metric& m : ms) {
      if (n == m.name) {
        m.value = v;
        return;
      }
    }
    std::fprintf(stderr, "metric %.*s is not declared\n",
                 static_cast<int>(n.size()), n.data());
    std::abort();
  }
};

void PrintJson(const Report& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const std::vector<Metric>& ms = trace ? r.layer : r.e2e;
  for (size_t i = 0; i < ms.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    if (i > 0) out += ", ";
    out += std::string("\"") + ms[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Query mixes.

struct MixEntry {
  CodVariant variant;
  double weight;
};

bool Attributed(CodVariant v) {
  return v == CodVariant::kCodL || v == CodVariant::kCodLMinus ||
         v == CodVariant::kCodR;
}

// A fixed pool of specs: query points from eval/query_gen, each given a
// variant drawn from `mix`. Both draws are a function of `seed` only.
std::vector<QuerySpec> MakeSpecs(const World& world, size_t count,
                                 const std::vector<MixEntry>& mix,
                                 uint64_t seed) {
  std::vector<QueryPoint> points = DrawQueries(world, count, seed);
  std::mt19937_64 rng(MixSeed(seed, 0x5eed));
  std::vector<double> weights;
  for (const MixEntry& m : mix) weights.push_back(m.weight);
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::vector<QuerySpec> specs;
  for (const QueryPoint& p : points) {
    QuerySpec s;
    s.variant = mix[pick(rng)].variant;
    s.node = p.node;
    if (Attributed(s.variant)) s.attrs = {p.attr};
    specs.push_back(std::move(s));
  }
  return specs;
}

// The query set-up and restart are timed to: a CODL query from a fixed
// draw, the same in every run whatever the workload seed.
QuerySpec FirstQuery(const World& world) {
  const QueryPoint p = DrawQueries(world, 1, /*seed=*/1).front();
  QuerySpec s;
  s.variant = CodVariant::kCodL;
  s.node = p.node;
  s.attrs = {p.attr};
  return s;
}

const char* VariantKey(CodVariant v) {
  switch (v) {
    case CodVariant::kCodL: return "codl";
    case CodVariant::kCodU: return "codu";
    case CodVariant::kCodLMinus: return "codlminus";
    case CodVariant::kCodUIndexed: return "coduidx";
    case CodVariant::kCodR: return "codr";
    case CodVariant::kCodSketch: return "codsketch";
  }
  return "unknown";
}

bool SameAnswer(const CodResult& a, const CodResult& b) {
  return a.found == b.found && a.members == b.members && a.rank == b.rank &&
         a.num_levels == b.num_levels &&
         a.answered_from_index == b.answered_from_index && a.code == b.code &&
         a.degraded == b.degraded && a.variant_served == b.variant_served;
}

// A served answer that the user would count as a failure.
bool FailedAnswer(const CodResult& r) {
  return r.code != cod::StatusCode::kOk || r.degraded;
}

// ---------------------------------------------------------------------------
// Per-query accounting from the QueryStats each answer carries, plus the
// call time measured around QueryBatch.

struct QueryTally {
  uint64_t queries = 0;
  double busy_seconds = 0.0;  // call time x workers the call could occupy
  double stage_seconds = 0.0;
  double chain = 0.0, lore = 0.0, sample = 0.0, merge = 0.0, eval = 0.0;
  double rr_samples = 0.0, explored = 0.0, levels = 0.0;
  double pruned = 0.0, considered = 0.0;
  uint64_t codl = 0, index_hits = 0, rung0 = 0;
  std::vector<double> call_ms;                    // per QueryBatch call
  std::map<std::string, std::vector<double>> variant_ms;

  // A one-query call records its call time under the query's variant; a
  // batch records each query's engine stage time, since its queries run
  // side by side and have no call of their own.
  void Add(std::span<const QuerySpec> specs,
           const std::vector<CodResult>& results, double call_s) {
    busy_seconds +=
        call_s * static_cast<double>(std::min(results.size(), kWorkers));
    call_ms.push_back(call_s * 1e3);
    for (size_t i = 0; i < results.size(); ++i) {
      const CodResult& r = results[i];
      const cod::QueryStats& s = r.stats;
      ++queries;
      stage_seconds += s.TotalStageSeconds();
      chain += s.chain_build_seconds;
      lore += s.lore_scan_seconds;
      sample += s.sample_seconds;
      merge += s.merge_seconds;
      eval += s.eval_seconds;
      rr_samples += static_cast<double>(s.rr_samples);
      explored += static_cast<double>(s.explored_nodes);
      levels += static_cast<double>(s.levels_examined);
      pruned += static_cast<double>(s.sketch_levels_pruned);
      considered += static_cast<double>(s.sketch_levels_considered);
      if (specs[i].variant == CodVariant::kCodL) {
        ++codl;
        index_hits += s.index_hit ? 1 : 0;
      }
      rung0 += r.ladder_rung == 0 ? 1 : 0;
      variant_ms[VariantKey(specs[i].variant)].push_back(
          results.size() == 1 ? call_s * 1e3 : s.TotalStageSeconds() * 1e3);
    }
  }

  void Merge(const QueryTally& o) {
    queries += o.queries;
    busy_seconds += o.busy_seconds;
    stage_seconds += o.stage_seconds;
    chain += o.chain;
    lore += o.lore;
    sample += o.sample;
    merge += o.merge;
    eval += o.eval;
    rr_samples += o.rr_samples;
    explored += o.explored;
    levels += o.levels;
    pruned += o.pruned;
    considered += o.considered;
    codl += o.codl;
    index_hits += o.index_hits;
    rung0 += o.rung0;
    call_ms.insert(call_ms.end(), o.call_ms.begin(), o.call_ms.end());
    for (const auto& [v, ms] : o.variant_ms) {
      variant_ms[v].insert(variant_ms[v].end(), ms.begin(), ms.end());
    }
  }

  void Emit(Report& out) const {
    for (const auto& [v, ms] : variant_ms) {
      std::printf("variant %-10s n=%-6zu p50 %9.3f p90 %9.3f p99 %9.3f max "
                  "%9.3f ms\n",
                  v.c_str(), ms.size(), Median(ms), Quantile(ms, 0.9),
                  Quantile(ms, 0.99), Quantile(ms, 1.0));
    }
    const double q = static_cast<double>(queries);
    out.Layer("serving.query_call_p50_ms", Median(call_ms));
    out.Layer("serving.query_call_p99_ms", TailQuantile(call_ms, 0.99));
    out.Layer("serving.dispatch_us_per_query",
              Frac((busy_seconds - stage_seconds) * 1e6, q));
    for (const char* v : {"codl", "codu", "codlminus", "coduidx", "codr"}) {
      const auto it = variant_ms.find(v);
      out.Layer(std::string("core.") + v + ".p50_ms",
                it == variant_ms.end() ? 0.0 : Median(it->second));
    }
    out.Layer("core.chain_build_ms", Frac(chain * 1e3, q));
    out.Layer("core.lore_scan_ms", Frac(lore * 1e3, q));
    out.Layer("core.rr_sample_ms", Frac(sample * 1e3, q));
    out.Layer("core.rr_merge_ms", Frac(merge * 1e3, q));
    out.Layer("core.eval_ms", Frac(eval * 1e3, q));
    out.Layer("core.rr_samples_per_query", Frac(rr_samples, q));
    out.Layer("core.explored_nodes_per_query", Frac(explored, q));
    out.Layer("core.levels_per_query", Frac(levels, q));
    out.Layer("core.prune_frac", Frac(pruned, considered));
    out.Layer("core.index_hit_frac",
              Frac(static_cast<double>(index_hits), static_cast<double>(codl)));
    out.Layer("core.rung0_frac", Frac(static_cast<double>(rung0), q));
  }
};

// Scheduler metrics over a window, from two registry scrapes.
void ReportScheduler(const RegistryScrape& a, const RegistryScrape& b,
                     Report& out) {
  std::vector<uint64_t> counts(b.queue_delay_buckets.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t before =
        i < a.queue_delay_buckets.size() ? a.queue_delay_buckets[i] : 0;
    counts[i] = b.queue_delay_buckets[i] - before;
    total += counts[i];
  }
  // Quantile by linear interpolation inside the histogram bucket.
  auto quantile = [&](double q) {
    if (total < SamplesFor(q)) return 0.0;
    const double target = q * static_cast<double>(total);
    double seen = 0.0;
    for (size_t i = 0; i < counts.size(); ++i) {
      const double c = static_cast<double>(counts[i]);
      if (seen + c >= target && c > 0) {
        const double lo = i == 0 ? 0.0 : b.queue_delay_bounds[i - 1];
        const double hi = i < b.queue_delay_bounds.size()
                              ? b.queue_delay_bounds[i]
                              : b.queue_delay_bounds.back() * 4.0;
        return (lo + (hi - lo) * (target - seen) / c) * 1e3;
      }
      seen += c;
    }
    return 0.0;
  };
  out.Layer("sched.queue_delay_p50_ms", quantile(0.5));
  out.Layer("sched.queue_delay_p99_ms", quantile(0.99));
  out.Layer("sched.steal_frac",
            Frac(static_cast<double>(b.sched_stolen - a.sched_stolen),
                 static_cast<double>(b.sched_submitted - a.sched_submitted)));
  std::printf("sched: %llu tasks timed in the queue-delay histogram\n",
              static_cast<unsigned long long>(total));
}

// ---------------------------------------------------------------------------
// Shared phases.

// setup_s: the median of `reps` constructions, each timed from
// MakeCodService until its first query is answered. Returns the last
// service, which the workload then serves from.
std::unique_ptr<Service> TimedSetup(const World& world,
                                    const cod::ServiceOptions& options,
                                    const QuerySpec& first_query,
                                    cod::TaskScheduler& scheduler, int reps,
                                    Report& report) {
  std::vector<double> secs;
  std::unique_ptr<Service> service;
  for (int i = 0; i < reps; ++i) {
    service.reset();  // the previous instance ends before the next starts
    std::filesystem::remove_all(options.snapshot_dir);
    ServiceInput input = CopyInput(world, world.edges);
    const Clock::time_point t0 = Clock::now();
    {
      BeginRequest();
      Span span("bench.setup");
      service = MakeService(std::move(input), options);
      const std::vector<CodResult> r =
          service->Query({&first_query, 1}, scheduler, 1, nullptr);
      if (r.size() != 1 || FailedAnswer(r[0])) ++report.failed;
      ++report.attempted;
    }
    secs.push_back(Seconds(Clock::now() - t0));
  }
  std::printf("setup: %d constructions, median %.4f s:", reps, Median(secs));
  for (const double x : secs) std::printf(" %.4f", x);
  std::printf("\n");
  report.E2e("setup_s", Median(secs));
  return service;
}

// restart_ms: the 10%-trimmed mean of `reps` RecoverCodService calls on the
// run's snapshot directory, each timed until its first query is answered.
// Single recoveries fall into a fast and a slow mode, by the speed of the
// virtual CPU that serves them, in a share that differs from run to run;
// the median jumps between the modes with that share, the trimmed mean does
// not. The service that wrote the snapshots must already be destroyed (its
// destructor waits for queued snapshot writes).
//
// rss_mb: the resident memory the last recovered service holds, measured as
// the resident set with it live minus the resident set after destroying it,
// each after free heap pages are returned to the kernel.
void TimedRestart(const World& world, const cod::ServiceOptions& options,
                  const QuerySpec& first_query, cod::TaskScheduler& scheduler,
                  int reps, Report& report) {
  std::vector<double> ms;
  std::unique_ptr<Service> service;
  for (int i = 0; i < reps; ++i) {
    service.reset();
    ServiceInput input = CopyInput(world, world.edges);
    // Spacing the recoveries out samples the host's speed, which drifts on
    // a scale of seconds, at more moments than back-to-back recoveries do.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Clock::time_point t0 = Clock::now();
    {
      BeginRequest();
      Span span("bench.restart");
      service = RecoverService(std::move(input), options);
      if (service == nullptr) {
        report.Fail("RecoverCodService failed");
        return;
      }
      const std::vector<CodResult> r =
          service->Query({&first_query, 1}, scheduler, 1, nullptr);
      if (r.size() != 1 || FailedAnswer(r[0])) ++report.failed;
      ++report.attempted;
    }
    ms.push_back(Ms(Clock::now() - t0));
  }
  std::printf("restart: %d recoveries, trimmed mean %.3f ms, median %.3f "
              "ms:", reps, TrimmedMean(ms, 0.1), Median(ms));
  for (const double x : ms) std::printf(" %.3f", x);
  std::printf("\n");
  report.E2e("restart_ms", TrimmedMean(ms, 0.1));

  const double live = ResidentMb();
  service.reset();
  const double without = ResidentMb();
  std::printf("memory: %.3f MB resident with one recovered epoch, %.3f MB "
              "without it, %.3f MB process peak\n",
              live, without, PeakRssMb());
  report.E2e("rss_mb", live - without);
}

// latency_p50_ms / latency_p90_ms of the workload's unit of work.
bool ReportLatency(const char* what, const std::vector<double>& ms,
                   Report& report) {
  std::printf("%s latency: n=%zu p50=%.4f ms p90=%.4f ms\n", what, ms.size(),
              Median(ms), Quantile(ms, 0.9));
  if (ms.size() < SamplesFor(0.9)) {
    std::fprintf(stderr,
                 "%s: %zu samples; p90 needs %zu (ten beyond it). Raise "
                 "--seconds.\n",
                 what, ms.size(), SamplesFor(0.9));
    return false;
  }
  report.E2e("latency_p50_ms", Median(ms));
  report.E2e("latency_p90_ms", Quantile(ms, 0.9));
  return true;
}

// One stand-alone cold build of `edges` (RunColdBuild), with each stage's
// time read from its span. Turns tracing on for the calling thread, since
// the spans are the stage clock.
struct ColdBuildTimes {
  ColdBuildResult result;
  std::map<std::string, SpanTotals> spans;
};

ColdBuildTimes ColdBuild(const World& world, std::span<const Edge> edges,
                         const cod::ServiceOptions& options,
                         const std::string& dir, Report& report) {
  SetThreadTracing(true);
  const uint64_t request = BeginRequest();
  ColdBuildTimes out;
  {
    Span span("bench.cold_build");
    out.result = RunColdBuild(world, edges, options, dir + "/stage.snap");
  }
  if (!out.result.ok) report.Fail("stand-alone cold build failed");
  out.spans = SummarizeSpans(ThreadSpans(request));
  return out;
}

// Reports the build-side and storage stages of `runs` as the median over
// the runs of each stage span's self time ("<span>_ms"); returns the
// 10%-trimmed mean over the runs of the build stages' sum, the part a cold
// rebuild repeats. Single builds fall into a fast and a slow mode by the
// speed of the virtual CPU that runs them; a median of sums would jump
// between the modes, the trimmed mean moves only with their shares.
double ReportColdBuilds(const std::vector<ColdBuildTimes>& runs,
                        Report& report) {
  auto median_ms = [&](const std::string& span) {
    std::vector<double> v;
    for (const ColdBuildTimes& r : runs) {
      const auto it = r.spans.find(span);
      v.push_back(it == r.spans.end() ? 0.0 : it->second.self_ms);
    }
    return Median(v);
  };
  std::vector<double> build_ms(runs.size(), 0.0);
  for (const char* span :
       {"graph.build", "hierarchy.cluster", "core.himor_build"}) {
    report.Layer(std::string(span) + "_ms", median_ms(span));
    for (size_t i = 0; i < runs.size(); ++i) {
      const auto it = runs[i].spans.find(span);
      if (it != runs[i].spans.end()) build_ms[i] += it->second.self_ms;
    }
  }
  for (const char* span :
       {"storage.encode", "storage.write", "storage.decode"}) {
    report.Layer(std::string(span) + "_ms", median_ms(span));
  }
  report.Layer("influence.rr_samples_per_build",
               static_cast<double>(runs.front().result.rr_samples));
  report.Layer("storage.snapshot_mb", runs.front().result.snapshot_mb);
  return TrimmedMean(build_ms, 0.1);
}

// Tracing overhead: the traced run alternates traced and untraced units of
// work; the difference of their medians is what the spans cost.
void ReportTraceOverhead(const std::vector<double>& traced,
                         const std::vector<double>& untraced, Report& report) {
  report.Layer("trace.overhead_p50_ms", Median(traced) - Median(untraced));
  std::printf("trace overhead: traced p50 %.4f ms (n=%zu), untraced p50 %.4f "
              "ms (n=%zu)\n",
              Median(traced), traced.size(), Median(untraced),
              untraced.size());
}

// Writes the spans, their per-name self-time summary and the registry
// scrape to <dir>/../trace-<workload>-<seed>.json.
void WriteTrace(const Args& args, const std::string& registry_json) {
  const std::vector<SpanRecord> spans = CollectSpans();
  const auto totals = SummarizeSpans(spans);
  const std::filesystem::path path =
      std::filesystem::path(args.dir).parent_path() /
      ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
  std::ofstream f(path);
  f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ",\n \"summary\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    f << (first ? "" : ",") << "\n  \"" << name << "\": {\"count\": "
      << t.count << ", \"total_ms\": " << t.total_ms
      << ", \"self_ms\": " << t.self_ms << "}";
    first = false;
  }
  f << "},\n \"registry\": " << registry_json << ",\n \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    f << (i == 0 ? "" : ",") << "\n  [\"" << s.name << "\", " << s.id << ", "
      << s.parent << ", " << s.request << ", " << s.start_ns << ", "
      << s.end_ns << "]";
  }
  f << "]}\n";
  std::printf("trace: %zu spans written to %s\n", spans.size(),
              path.string().c_str());
  for (const auto& [name, t] : totals) {
    std::printf("  span %-26s n=%-7llu total %10.2f ms  self %10.2f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_ms, t.self_ms);
  }
}

// ---------------------------------------------------------------------------
// interactive: read-only closed loop of one-query requests on dblp-sim.

int RunInteractive(const Args& args, Report& report) {
  const World world = MakeWorld({{"dblp-sim", 1}});
  std::unique_ptr<cod::TaskScheduler> scheduler = MakeScheduler(kWorkers);

  cod::ServiceOptions options;
  options.engine.sketch_bits = 8;
  // Set-up then runs the counter-seeded HIMOR builder that the build-side
  // metrics time (RunColdBuild).
  options.delta_rebuild = true;
  options.rebuild_threshold = 1e9;  // read-only: never rebuild
  options.snapshot_dir = args.dir + "/snapshots";
  // Snapshot writes run as maintenance tasks instead of inside set-up.
  options.scheduler = scheduler.get();

  // An assumed mix, not measured traffic (README.md): CODL-heavy, the
  // other exact variants an equal share each. CODR is left out (hundreds of
  // ms per query at this scale would set every percentile).
  const std::vector<MixEntry> mix = {{CodVariant::kCodL, 0.70},
                                     {CodVariant::kCodU, 0.10},
                                     {CodVariant::kCodLMinus, 0.10},
                                     {CodVariant::kCodUIndexed, 0.10}};
  const std::vector<QuerySpec> pool = MakeSpecs(world, 16384, mix, args.seed);

  std::unique_ptr<Service> service =
      TimedSetup(world, options, FirstQuery(world), *scheduler, 5, report);

  // Warm-up, then the timed closed loop over the pool.
  size_t next = 0;
  auto one = [&](size_t i, std::vector<CodResult>* out) {
    const QuerySpec& spec = pool[i % pool.size()];
    const Clock::time_point t0 = Clock::now();
    *out = service->Query({&spec, 1}, *scheduler, MixSeed(args.seed, i),
                          nullptr);
    return Clock::now() - t0;
  };
  std::vector<CodResult> warm;
  for (const Clock::time_point end = After(kWarmupSeconds);
       Clock::now() < end;) {
    // From the far end of the pool, away from the queries timed below.
    one(pool.size() - 1 - next++ % pool.size(), &warm);
  }

  // Two closed-loop clients, each waiting on its own replies, keep both
  // workers busy; client c sends request indices c, c + 2, c + 4, ...
  constexpr size_t kClients = 2;
  constexpr size_t kVerify = 32;  // answers kept per client for verification
  struct ClientLog {
    std::vector<double> lat_ms, traced_ms, untraced_ms;
    QueryTally tally;
    uint64_t failed = 0;
    std::vector<std::pair<size_t, CodResult>> answers;
  };
  ClientLog logs[kClients];
  const RegistryScrape before = ScrapeRegistry();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(args.seconds);
  auto client = [&](size_t c) {
    ClientLog& log = logs[c];
    std::vector<CodResult> out;
    for (size_t k = 0; Clock::now() < end; ++k) {
      const size_t i = k * kClients + c;
      const bool traced = args.trace && k % 2 == 0;
      SetThreadTracing(traced);
      Clock::duration d;
      {
        BeginRequest();
        Span span("bench.request");
        d = one(i, &out);
      }
      SetThreadTracing(false);
      const double ms = Ms(d);
      log.lat_ms.push_back(ms);
      (traced ? log.traced_ms : log.untraced_ms).push_back(ms);
      if (out.size() != 1 || FailedAnswer(out[0])) ++log.failed;
      if (traced) log.tally.Add({&pool[i % pool.size()], 1}, out, Seconds(d));
      if (log.answers.size() < kVerify) log.answers.emplace_back(i, out[0]);
    }
  };
  std::thread second(client, 1);
  client(0);
  second.join();
  SetThreadTracing(args.trace);
  const double window_s = Seconds(Clock::now() - start);
  const RegistryScrape after = ScrapeRegistry();

  std::vector<double> lat_ms, traced_ms, untraced_ms;
  std::vector<std::pair<size_t, CodResult>> answers;
  QueryTally tally;
  for (ClientLog& log : logs) {
    lat_ms.insert(lat_ms.end(), log.lat_ms.begin(), log.lat_ms.end());
    traced_ms.insert(traced_ms.end(), log.traced_ms.begin(),
                     log.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), log.untraced_ms.begin(),
                       log.untraced_ms.end());
    answers.insert(answers.end(), log.answers.begin(), log.answers.end());
    tally.Merge(log.tally);
    report.failed += log.failed;
  }
  report.attempted += lat_ms.size();

  if (!ReportLatency("query", lat_ms, report)) return 2;
  report.E2e("batch_qps", static_cast<double>(lat_ms.size()) / window_s);

  // Verification: the served answers must equal a reference service's with
  // sketch pruning off, answering on a single worker.
  {
    cod::ServiceOptions ref_options = options;
    ref_options.engine.sketch_prune = false;
    ref_options.snapshot_dir.clear();
    std::unique_ptr<cod::TaskScheduler> one_worker = MakeScheduler(1);
    std::unique_ptr<Service> ref =
        MakeService(CopyInput(world, world.edges), ref_options);
    size_t mismatches = 0;
    for (const auto& [idx, served] : answers) {
      const QuerySpec& spec = pool[idx % pool.size()];
      const std::vector<CodResult> want =
          ref->Query({&spec, 1}, *one_worker, MixSeed(args.seed, idx),
                     nullptr);
      if (!SameAnswer(served, want[0])) ++mismatches;
    }
    std::printf("verify: %zu answers vs prune-off single-worker reference, "
                "%zu mismatches\n",
                answers.size(), mismatches);
    if (mismatches > 0) report.Fail("interactive answers differ from reference");
  }

  service.reset();  // flushes queued snapshot writes
  TimedRestart(world, options, FirstQuery(world), *scheduler, kRestartReps,
               report);

  if (args.trace) {
    ReportScheduler(before, after, report);
    tally.Emit(report);
    ReportColdBuilds({ColdBuild(world, world.edges, options, args.dir, report)},
                     report);
    ReportTraceOverhead(traced_ms, untraced_ms, report);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// churn: a writer publishing update batches beside a light read stream.

int RunChurn(const Args& args, Report& report) {
  const World world = MakeWorld({{"cora-sim", 1}});
  std::unique_ptr<cod::TaskScheduler> scheduler = MakeScheduler(kWorkers);
  const size_t n = world.num_nodes;

  cod::ServiceOptions options;
  options.delta_rebuild = true;
  options.async_rebuild = true;
  options.scheduler = scheduler.get();
  options.rebuild_threshold = 1e9;  // the writer refreshes after each batch
  options.snapshot_dir = args.dir + "/snapshots";

  // A light read stream; like the other mixes, an assumption (README.md).
  const std::vector<MixEntry> mix = {{CodVariant::kCodL, 0.8},
                                     {CodVariant::kCodU, 0.2}};
  const std::vector<QuerySpec> pool = MakeSpecs(world, 4096, mix, args.seed);

  std::unique_ptr<Service> service =
      TimedSetup(world, options, FirstQuery(world), *scheduler, 9, report);

  // The graph is always the initial edges plus the previous batch's added
  // edges, which the next batch removes.
  std::unordered_set<uint64_t> present;
  auto key = [n](NodeId u, NodeId v) {
    return static_cast<uint64_t>(std::min(u, v)) * n + std::max(u, v);
  };
  for (const Edge& e : world.edges) present.insert(key(e.u, e.v));
  std::vector<Edge> added;
  std::mt19937_64 rng(MixSeed(args.seed, 0xc4a1));
  // Churn levels of 1, 5 and 25 edges per batch: 0.02% to 0.5% of cora-sim's
  // edges, the range over which delta rebuilds go from winning to losing
  // against cold ones.
  const size_t kLevels[] = {1, 5, 25};

  struct Publish {
    double ms = 0.0;
    double rebuild_ms = 0.0;  // RefreshAsync until WaitForRebuild returns
    double update_us = 0.0;   // mean per AddEdge / RemoveEdge call
    bool delta = false;
  };
  size_t batch = 0;
  auto publish = [&](bool traced, Publish* p) {
    const uint64_t epoch0 = service->epoch();
    const RegistryScrape s0 = traced ? ScrapeRegistry() : RegistryScrape{};
    const Clock::time_point t0 = Clock::now();
    {
      BeginRequest();
      Span span("bench.publish");
      size_t calls = 0;
      for (const Edge& e : added) {
        if (!service->RemoveEdge(e.u, e.v)) ++report.failed;
        present.erase(key(e.u, e.v));
        ++calls;
      }
      added.clear();
      const size_t want = kLevels[batch++ % 3];
      while (added.size() < want) {
        const NodeId u = static_cast<NodeId>(rng() % n);
        const NodeId v = static_cast<NodeId>(rng() % n);
        if (u == v || !present.insert(key(u, v)).second) continue;
        if (!service->AddEdge(u, v, 1.0)) ++report.failed;
        added.push_back({u, v, 1.0});
        ++calls;
      }
      p->update_us = Seconds(Clock::now() - t0) * 1e6 /
                     static_cast<double>(calls);
      const Clock::time_point r0 = Clock::now();
      if (!service->RefreshAsync()) ++report.failed;
      service->WaitForRebuild();
      p->rebuild_ms = Ms(Clock::now() - r0);
    }
    p->ms = Ms(Clock::now() - t0);
    ++report.attempted;
    if (service->epoch() != epoch0 + 1 || service->epoch_degraded()) {
      ++report.failed;
    }
    if (traced) {
      const RegistryScrape s1 = ScrapeRegistry();
      p->delta = s1.delta_attempts > s0.delta_attempts &&
                 s1.delta_fallbacks == s0.delta_fallbacks;
    }
  };

  // Reader: a closed loop of one-query requests on its own thread.
  std::atomic<bool> reading{true};
  std::atomic<bool> measuring{false};
  std::vector<double> read_ms;
  QueryTally tally;
  uint64_t read_failed = 0;
  std::thread reader([&] {
    std::vector<CodResult> r;
    SetThreadTracing(false);
    for (size_t i = 0; reading.load(); ++i) {
      const bool timed = measuring.load();
      const bool traced = args.trace && timed && i % 2 == 0;
      SetThreadTracing(traced);
      const QuerySpec& spec = pool[i % pool.size()];
      const Clock::time_point t0 = Clock::now();
      {
        BeginRequest();
        Span span("bench.request");
        r = service->Query({&spec, 1}, *scheduler,
                           MixSeed(args.seed ^ 0x4ead, i), nullptr);
      }
      const Clock::duration d = Clock::now() - t0;
      SetThreadTracing(false);
      if (!timed) continue;
      read_ms.push_back(Ms(d));
      if (r.size() != 1 || FailedAnswer(r[0])) ++read_failed;
      if (traced) tally.Add({&spec, 1}, r, Seconds(d));
    }
  });

  // Warm-up: a few publishes with the reader running.
  Publish p;
  for (const Clock::time_point end = After(kWarmupSeconds);
       Clock::now() < end;) {
    publish(false, &p);
  }

  std::vector<double> pub_ms, traced_ms, untraced_ms, delta_ms, update_us;
  size_t delta_count = 0, rebuilds = 0;
  const RegistryScrape before = ScrapeRegistry();
  measuring.store(true);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(args.seconds);
  for (size_t k = 0; Clock::now() < end; ++k) {
    const bool traced = args.trace && k % 2 == 0;
    SetThreadTracing(traced);
    publish(traced, &p);
    SetThreadTracing(false);
    pub_ms.push_back(p.ms);
    (traced ? traced_ms : untraced_ms).push_back(p.ms);
    if (traced) {
      ++rebuilds;
      update_us.push_back(p.update_us);
      if (p.delta) {
        ++delta_count;
        delta_ms.push_back(p.rebuild_ms);
      }
    }
  }
  measuring.store(false);
  const double window_s = Seconds(Clock::now() - start);
  reading.store(false);
  reader.join();
  const RegistryScrape after = ScrapeRegistry();
  report.attempted += read_ms.size();
  report.failed += read_failed;

  if (!ReportLatency("publish", pub_ms, report)) return 2;
  report.E2e("batch_qps", static_cast<double>(read_ms.size()) / window_s);
  std::printf("reader: n=%zu p50=%.4f ms p99=%.4f ms\n", read_ms.size(),
              Median(read_ms), Quantile(read_ms, 0.99));

  // The graph the window ended on.
  std::vector<Edge> final_edges = world.edges;
  final_edges.insert(final_edges.end(), added.begin(), added.end());

  // Traced only: cold rebuilds on demand. Removing and re-adding the same
  // edges leaves the graph unchanged but marks their endpoints dirty, which
  // pushes the invalidated-sample share past delta_max_dirty_fraction. Each
  // is followed by a stand-alone cold build of the same graph, so the two
  // are timed at nearly the same moment of the host's drifting speed, and
  // on the same CPU: the rebuild runs on a scheduler worker, the stand-alone
  // build on this thread.
  std::vector<double> cold_ms;
  std::vector<ColdBuildTimes> stage_runs;
  if (args.trace) {
    const PinToOneCpu pinned;
    SetThreadTracing(true);
    for (int rep = 0; rep < kColdRebuilds; ++rep) {
      const RegistryScrape s0 = ScrapeRegistry();
      {
        BeginRequest();
        Span span("bench.cold_rebuild");
        for (size_t j = 0; j < 400; ++j) {
          const Edge& e = world.edges[(rep * 400 + j) % world.edges.size()];
          service->RemoveEdge(e.u, e.v);
          service->AddEdge(e.u, e.v, e.weight);
        }
        const Clock::time_point r0 = Clock::now();
        service->RefreshAsync();
        service->WaitForRebuild();
        const RegistryScrape s1 = ScrapeRegistry();
        if (s1.delta_fallbacks > s0.delta_fallbacks) {
          cold_ms.push_back(Ms(Clock::now() - r0));
        }
      }
      stage_runs.push_back(
          ColdBuild(world, final_edges, options, args.dir, report));
    }
  }

  // Verification: the evolved service, a service cold-built on the final
  // edge set, and a warm restart from the evolved service's snapshots must
  // answer a query sample identically.
  const std::span<const QuerySpec> sample(pool.data(), 64);
  auto answer = [&](const Service& s) {
    std::vector<CodResult> out;
    for (size_t i = 0; i < sample.size(); ++i) {
      out.push_back(s.Query({&sample[i], 1}, *scheduler,
                            MixSeed(args.seed, i), nullptr)[0]);
    }
    return out;
  };
  const std::vector<CodResult> evolved = answer(*service);
  {
    cod::ServiceOptions cold_options = options;
    cold_options.snapshot_dir.clear();
    cold_options.async_rebuild = false;
    cold_options.scheduler = nullptr;
    std::unique_ptr<Service> cold =
        MakeService(CopyInput(world, final_edges), cold_options);
    const std::vector<CodResult> want = answer(*cold);
    size_t mismatches = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      mismatches += SameAnswer(evolved[i], want[i]) ? 0 : 1;
    }
    std::printf("verify: %zu answers evolved vs cold-built, %zu mismatches\n",
                want.size(), mismatches);
    if (mismatches > 0) report.Fail("delta-evolved answers differ from cold");
  }
  service.reset();  // flushes queued snapshot writes
  TimedRestart(world, options, FirstQuery(world), *scheduler, kRestartReps,
               report);
  std::unique_ptr<Service> warm =
      RecoverService(CopyInput(world, world.edges), options);
  if (warm == nullptr) {
    report.Fail("RecoverCodService failed");
  } else {
    const std::vector<CodResult> got = answer(*warm);
    size_t mismatches = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      mismatches += SameAnswer(evolved[i], got[i]) ? 0 : 1;
    }
    std::printf("verify: %zu answers evolved vs warm restart, %zu "
                "mismatches\n",
                got.size(), mismatches);
    if (mismatches > 0) report.Fail("warm-restart answers differ");
  }

  if (args.trace) {
    ReportScheduler(before, after, report);
    tally.Emit(report);
    report.Layer("serving.update_us", Median(update_us));
    report.Layer("serving.rebuild_delta_p50_ms", Median(delta_ms));
    report.Layer("serving.rebuild_cold_p50_ms", Median(cold_ms));
    report.Layer("serving.delta_frac",
                 Frac(static_cast<double>(delta_count),
                      static_cast<double>(rebuilds)));
    const double reused =
        static_cast<double>(after.samples_reused - before.samples_reused);
    const double replayed =
        static_cast<double>(after.samples_replayed - before.samples_replayed);
    const double resampled = static_cast<double>(after.samples_resampled -
                                                 before.samples_resampled);
    report.Layer("serving.sample_reuse_frac",
                 Frac(reused, reused + replayed + resampled));
    // The stand-alone stages must account for the measured cold rebuild.
    // Both sides are 10%-trimmed means (see ReportColdBuilds).
    const double stage_sum = ReportColdBuilds(stage_runs, report);
    const double rebuild = TrimmedMean(cold_ms, 0.1);
    const double ratio = Frac(stage_sum, rebuild);
    report.Layer("trace.rebuild_stage_sum_ratio", ratio);
    std::printf("cold rebuild: %zu measured, p50 %.3f ms, trimmed mean %.3f "
                "ms; stages sum %.3f ms (ratio %.3f, tolerance [%.2f, "
                "%.2f])\n",
                cold_ms.size(), Median(cold_ms), rebuild, stage_sum, ratio,
                1.0 - kStageTolerance, 1.0 + kStageTolerance);
    if (cold_ms.empty() || std::abs(ratio - 1.0) > kStageTolerance) {
      report.Fail("cold-rebuild stages do not sum to the measured rebuild");
    }
    ReportTraceOverhead(traced_ms, untraced_ms, report);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// sharded-batch: offline analytics batches through the 4-shard router.

int RunShardedBatch(const Args& args, Report& report) {
  // Disjoint components of unequal size, so the component-atomic partition
  // spreads them over the shards (a connected graph would all route to
  // shard 0).
  const World world = MakeWorld({{"cora-sim", 4}, {"citeseer-sim", 4}});
  std::unique_ptr<cod::TaskScheduler> scheduler = MakeScheduler(kWorkers);

  cod::ServiceOptions options;
  options.num_shards = 4;
  options.partitioner = cod::PartitionStrategy::kConnectedComponents;
  // Each shard's set-up then runs the counter-seeded HIMOR builder that the
  // build-side metrics time (RunColdBuild).
  options.delta_rebuild = true;
  options.rebuild_threshold = 1e9;  // read-only
  options.snapshot_dir = args.dir + "/snapshots";
  // Snapshot writes run as maintenance tasks instead of inside set-up.
  options.scheduler = scheduler.get();

  // The interactive mix (an assumption, README.md) with four points of
  // CODL moved to CODR, a global recluster per query, so that all five
  // exact variants run.
  const std::vector<MixEntry> mix = {{CodVariant::kCodL, 0.66},
                                     {CodVariant::kCodU, 0.10},
                                     {CodVariant::kCodLMinus, 0.10},
                                     {CodVariant::kCodUIndexed, 0.10},
                                     {CodVariant::kCodR, 0.04}};
  const std::vector<QuerySpec> pool = MakeSpecs(world, 16384, mix, args.seed);

  std::unique_ptr<Service> service =
      TimedSetup(world, options, FirstQuery(world), *scheduler, 11, report);

  auto slice = [&](size_t b) {
    const size_t off = (b * kBatchSize) % pool.size();
    return std::span<const QuerySpec>(pool.data() + off, kBatchSize);
  };
  // Failed queries of a batch: timed out, cancelled, shard-missed or
  // degraded.
  uint64_t bad = 0;
  auto run_batch = [&](size_t b, std::vector<CodResult>* out) {
    cod::BatchStats stats;
    const Clock::time_point t0 = Clock::now();
    *out = service->Query(slice(b), *scheduler, MixSeed(args.seed, b), &stats);
    const Clock::duration d = Clock::now() - t0;
    bad = stats.timeout + stats.cancelled + stats.shard_missed;
    for (const CodResult& r : *out) bad += FailedAnswer(r) ? 1 : 0;
    bad = std::min<uint64_t>(bad, kBatchSize);
    return d;
  };

  // Warm-up batches come from the far end of the pool, away from the
  // batches timed below.
  std::vector<CodResult> r;
  const size_t num_slices = pool.size() / kBatchSize;
  size_t warm = 0;
  for (const Clock::time_point end = After(kWarmupSeconds);
       Clock::now() < end;) {
    run_batch(num_slices - 1 - warm++ % num_slices, &r);
  }

  const std::vector<uint32_t> shard_of =
      PartitionNodes(world, world.edges, options.num_shards,
                     options.partitioner);
  std::vector<double> lat_ms, traced_ms, untraced_ms, max_share;
  // The first kVerifyBatches batches' answers, checked after the window.
  constexpr size_t kVerifyBatches = 4;
  std::vector<CodResult> verify_answers;
  QueryTally tally;
  const RegistryScrape before = ScrapeRegistry();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(args.seconds);
  size_t b = 0;
  for (; Clock::now() < end; ++b) {
    const bool traced = args.trace && b % 2 == 0;
    SetThreadTracing(traced);
    Clock::duration d;
    {
      BeginRequest();
      Span span("bench.batch");
      d = run_batch(b, &r);
    }
    SetThreadTracing(false);
    lat_ms.push_back(Ms(d));
    (traced ? traced_ms : untraced_ms).push_back(Ms(d));
    report.attempted += kBatchSize;
    report.failed += bad;
    if (b < kVerifyBatches) {
      verify_answers.insert(verify_answers.end(), r.begin(), r.end());
    }
    if (traced) {
      const std::span<const QuerySpec> specs = slice(b);
      tally.Add(specs, r, Seconds(d));
      std::vector<uint32_t> per_shard(options.num_shards, 0);
      for (const QuerySpec& s : specs) ++per_shard[shard_of[s.node]];
      max_share.push_back(
          static_cast<double>(
              *std::max_element(per_shard.begin(), per_shard.end())) /
          static_cast<double>(kBatchSize));
    }
  }
  const double window_s = Seconds(Clock::now() - start);
  const RegistryScrape after = ScrapeRegistry();

  if (!ReportLatency("batch", lat_ms, report)) return 2;
  report.E2e("batch_qps",
             static_cast<double>(b * kBatchSize) / window_s);

  // Verification: the router's merged answers must equal one
  // component-scoped engine's answers over the whole world.
  {
    cod::ServiceOptions mono = options;
    mono.num_shards = 1;
    mono.engine.component_scoped = true;
    mono.snapshot_dir.clear();
    std::unique_ptr<Service> ref =
        MakeService(CopyInput(world, world.edges), mono);
    std::vector<CodResult> want;
    for (size_t v = 0; v < kVerifyBatches; ++v) {
      const std::vector<CodResult> got =
          ref->Query(slice(v), *scheduler, MixSeed(args.seed, v), nullptr);
      want.insert(want.end(), got.begin(), got.end());
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      mismatches += SameAnswer(verify_answers[i], want[i]) ? 0 : 1;
    }
    std::printf("verify: %zu answers 4-shard vs 1-shard component-scoped, "
                "%zu mismatches\n",
                want.size(), mismatches);
    if (mismatches > 0) report.Fail("sharded answers differ from 1-shard");
  }

  service.reset();  // flushes queued snapshot writes
  TimedRestart(world, options, FirstQuery(world), *scheduler, kRestartReps,
               report);

  if (args.trace) {
    ReportScheduler(before, after, report);
    tally.Emit(report);
    report.Layer("serving.shard_max_share", Median(max_share));
    cod::ServiceOptions scoped = options;
    scoped.engine.component_scoped = true;
    ReportColdBuilds({ColdBuild(world, world.edges, scoped, args.dir, report)},
                     report);
    ReportTraceOverhead(traced_ms, untraced_ms, report);
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* endp = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &endp, 10);
      have_seed = *endp == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &endp);
      have_seconds = *endp == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace && !args->dir.empty();
}


}  // namespace
}  // namespace perfbench


int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <interactive|churn|sharded-batch> "
                 "--seed <n> --seconds <s> --trace <0|1> --dir <path>\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  SetThreadTracing(args.trace);
  Report report;
  int rc = 2;
  if (args.workload == "interactive") {
    rc = RunInteractive(args, report);
  } else if (args.workload == "churn") {
    rc = RunChurn(args, report);
  } else if (args.workload == "sharded-batch") {
    rc = RunShardedBatch(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  }
  if (rc != 0) return rc;
  for (const Metric& m : report.e2e) {
    if (m.value == 0.0) {
      std::fprintf(stderr, "end-to-end metric %s was not measured\n", m.name);
      return 2;
    }
  }
  if (args.trace) WriteTrace(args, RegistryJson());
  for (const Metric& m : args.trace ? report.layer : report.e2e) {
    std::printf("metric %-32s %14.6f %s\n", m.name, m.value, m.unit);
  }
  std::printf("error_frac: %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::fflush(stdout);
  PrintJson(report, args.trace);
  return report.correct ? 0 : 1;
}
