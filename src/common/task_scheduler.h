// Task scheduler: per-worker priority deques, work stealing, TaskGroups,
// timers, and admission control. Replaces the flat FIFO ThreadPool for every
// concurrent subsystem (batch query workers, async rebuilds, retry timers,
// parallel RR sampling), and carries ForEachIndex, the one build-side
// fan-out: a cold HIMOR build's stage-1 source ranges and a sharded
// service's per-shard construction and recovery.
//
// Design (DESIGN.md Sec. 12 has the full writeup):
//
//  * Every worker owns one deque per priority class. Submissions from a
//    worker thread go to that worker's own deque (affinity — a batch chunk
//    that fans out sampling chunks keeps them local); submissions from
//    outside are spread round-robin. An idle worker drains priorities in
//    order, scanning its own deque first and then stealing from siblings, so
//    a queued interactive task always starts before a queued rebuild task no
//    matter whose deque it sits in.
//
//  * TaskGroup replaces the global WaitIdle() barrier. Submit into a group,
//    then Wait() for exactly those tasks. Waiting from a worker thread does
//    not block the slot: the waiter runs queued tasks inline (preferring
//    tasks of the awaited group) until the group drains. That makes
//    nested fan-out (batch worker -> sampling chunks on the same scheduler)
//    deadlock-free by construction, so the old IsWorkerThread() serial
//    fallbacks are gone.
//
//  * The wait protocol is lost-wakeup-free: Submit bumps submit_epoch_ under
//    sleep_mu_; a worker that found all queues empty records the epoch,
//    rescans every queue, and only then waits on the predicate
//    `stopping_ || submit_epoch_ != seen`. Any push either lands before the
//    rescan (the rescan finds it) or bumps the epoch after `seen` was read
//    (the predicate is already true) — the old pool's notify_one race cannot
//    recur.
//
//  * ScheduleAt() runs a task at a deadline (one lazily-started timer
//    thread); DynamicCodService's retry backoff rides on it instead of a
//    dedicated per-service thread.
//
//  * ShouldShed() is the admission valve: when a priority class's queued
//    depth exceeds its configured bound (or the "scheduler/admission"
//    failpoint is armed), callers shed work into the degradation ladder
//    instead of queueing unboundedly. The scheduler never rejects Submit
//    itself — shedding is the caller's (cheaper) plan B, not an error.
//
// Determinism: the scheduler moves work between threads, but every consumer
// derives RNG streams from (seed, logical index) and merges in logical
// order, so results are bit-identical for any worker count and any stealing
// interleaving. Tasks must not throw (the library is exception-free).
//
// Metrics (when MetricsRegistry::enabled()):
//   cod_sched_submitted_total{priority=...}   tasks accepted
//   cod_sched_stolen_total                    tasks run by a non-home worker
//   cod_sched_inline_runs_total               tasks run inside a Wait()
//   cod_sched_shed_total                      ShouldShed() true verdicts
//   cod_sched_queue_depth{priority=...}       queued (not yet started) tasks
//   cod_sched_queue_delay_seconds             submit-to-start latency

#ifndef COD_COMMON_TASK_SCHEDULER_H_
#define COD_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace cod {

// Priority classes, highest first. Dequeue order is strict: a worker (or an
// inline-helping waiter) never starts a lower class while any queue holds a
// higher one.
enum class TaskPriority : uint8_t {
  kInteractive = 0,  // query-path work: batch chunks, sampling chunks
  kRebuild = 1,      // index/epoch construction
  kMaintenance = 2,  // retry timers, background upkeep
};
inline constexpr size_t kNumTaskPriorities = 3;

const char* TaskPriorityName(TaskPriority priority);

class TaskScheduler;

namespace scheduler_internal {
// Shared completion state of one TaskGroup. pending counts submitted (or
// timer-scheduled) tasks not yet finished; guarded by mu. Held by
// shared_ptr from the group handle and every in-flight task, so a task
// finishing after the handle died still has a live target.
struct GroupState {
  std::mutex mu;
  std::condition_variable done;
  size_t pending = 0;
};
}  // namespace scheduler_internal

// Completion handle for a set of tasks. Not thread-safe for concurrent
// Submit-into/Wait from multiple external threads — the canonical shape is
// one owner that submits, then waits. The destructor waits too, so a group
// cannot outlive the stack frame whose locals its tasks capture.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler& scheduler);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Blocks until every task submitted into this group has finished. From a
  // scheduler worker thread this runs queued tasks inline (awaited group
  // first, then anything runnable in priority order) instead of parking the
  // slot — see the deadlock-freedom argument in DESIGN.md Sec. 12.
  void Wait();

  bool Done() const;

 private:
  friend class TaskScheduler;
  TaskScheduler* scheduler_;
  std::shared_ptr<scheduler_internal::GroupState> state_;
};

class TaskScheduler {
 public:
  struct Options {
    // 0 uses hardware concurrency (at least 1).
    size_t num_threads = 0;
    // Per-priority admission bound: ShouldShed() reports true while the
    // class's queued depth exceeds this. 0 = unbounded (never shed).
    size_t max_queue_depth[kNumTaskPriorities] = {0, 0, 0};
  };

  explicit TaskScheduler(size_t num_threads)
      : TaskScheduler(MakeOptions(num_threads)) {}
  explicit TaskScheduler(const Options& options);
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  // Cancels outstanding timers (their groups see the tasks as finished),
  // then drains every queued task before joining the workers — matching the
  // old pool's run-everything-submitted contract.
  ~TaskScheduler();

  size_t num_threads() const { return workers_.size(); }

  // True when the calling thread is one of THIS scheduler's workers. Purely
  // informational now — blocking on your own group from a worker is safe
  // (inline help), so there is no fallback path keyed on this.
  bool IsWorkerThread() const;

  void Submit(TaskPriority priority, std::function<void()> fn);
  void Submit(TaskPriority priority, TaskGroup& group,
              std::function<void()> fn);

  using Clock = std::chrono::steady_clock;

  // Enqueues `fn` at `priority` once `when` arrives. Returns a timer id for
  // CancelTimer. With a group, the group's Wait() covers the timer: it
  // resolves when the task finishes or the timer is cancelled.
  uint64_t ScheduleAt(Clock::time_point when, TaskPriority priority,
                      std::function<void()> fn);
  uint64_t ScheduleAt(Clock::time_point when, TaskPriority priority,
                      TaskGroup& group, std::function<void()> fn);

  // True iff the timer was still pending (its task will never run).
  bool CancelTimer(uint64_t timer_id);

  // Admission control: true when `incoming` more tasks of `priority` should
  // be shed (served degraded by the caller) instead of queued — the class's
  // queued depth is already over Options::max_queue_depth, or the
  // "scheduler/admission" failpoint fires. Never blocks; counted in
  // cod_sched_shed_total.
  bool ShouldShed(TaskPriority priority, size_t incoming = 1);

  // Queued (not yet started) tasks of one class, across all workers.
  size_t QueueDepth(TaskPriority priority) const {
    return depth_[static_cast<size_t>(priority)].load(
        std::memory_order_relaxed);
  }

 private:
  friend class TaskGroup;
  using GroupStatePtr = std::shared_ptr<scheduler_internal::GroupState>;

  struct Task {
    std::function<void()> fn;
    GroupStatePtr group;
    Clock::time_point enqueued{};  // zero when metrics are disabled
  };

  // Worker-owned state. The mutex guards only this worker's deques; the
  // sleep protocol lives on the scheduler-wide sleep_mu_.
  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<Task> queues[kNumTaskPriorities];
    std::thread thread;
  };

  struct TimerEntry {
    Clock::time_point when;
    TaskPriority priority;
    Task task;
  };

  static Options MakeOptions(size_t num_threads) {
    Options o;
    o.num_threads = num_threads;
    return o;
  }

  void SubmitTask(TaskPriority priority, GroupStatePtr group,
                  std::function<void()> fn);
  void Enqueue(TaskPriority priority, Task task);
  // Pops the next runnable task: per priority, `start`'s own deque first,
  // then siblings. With `prefer`, a full pass over tasks of that group runs
  // first. Updates depth/stolen accounting.
  bool TryDequeue(size_t start, const scheduler_internal::GroupState* prefer,
                  Task* out);
  // One inline-help step for a waiting worker; false if nothing runnable.
  bool RunOneQueuedTask(const scheduler_internal::GroupState* prefer);
  void RunTask(Task& task);
  static void FinishGroupTask(const GroupStatePtr& group);
  void WorkerLoop(size_t index);
  void TimerLoop();

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<size_t> rr_cursor_{0};
  std::atomic<size_t> depth_[kNumTaskPriorities];

  // Sleep protocol (lost-wakeup-free; see header comment).
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  uint64_t submit_epoch_ = 0;  // guarded by sleep_mu_
  bool stopping_ = false;      // guarded by sleep_mu_

  // Timer facility. The thread starts on first ScheduleAt.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::map<uint64_t, TimerEntry> timers_;  // guarded by timer_mu_
  uint64_t next_timer_id_ = 1;             // guarded by timer_mu_
  bool timer_stop_ = false;                // guarded by timer_mu_
  std::thread timer_thread_;               // started under timer_mu_

  // Queue-depth gauges read the depth_ atomics only (no locks), so the
  // registry-lock-during-scrape rule is trivially satisfied.
  std::optional<ScopedCallbackGauge> depth_gauges_[kNumTaskPriorities];
};

// Runs fn(i) exactly once for every i in [0, count). Without a scheduler
// (or for count <= 1) the calls run inline in index order. With one, up to
// min(count - 1, num_threads()) rebuild-priority helper tasks and the
// calling thread claim indices from a shared counter; the call returns once
// every claimed index has finished. It never waits for a helper that has
// not started, so it completes on the calling thread alone when every
// worker is busy, and nests (fn may call ForEachIndex again, from a worker
// or not). fn must write only state owned by its index for the result not
// to depend on the worker count.
void ForEachIndex(TaskScheduler* scheduler, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace cod

#endif  // COD_COMMON_TASK_SCHEDULER_H_
