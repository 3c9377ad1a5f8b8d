#include "common/task_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"

namespace cod {
namespace {

// Identity of the current thread inside its owning scheduler. One scheduler
// deep by construction: workers belong to exactly one scheduler, and a
// second scheduler runs its own worker threads.
struct WorkerTls {
  const TaskScheduler* scheduler = nullptr;
  size_t index = 0;
};

WorkerTls& Tls() {
  static thread_local WorkerTls tls;
  return tls;
}

struct SchedSites {
  Counter* submitted[kNumTaskPriorities];
  Counter* stolen;
  Counter* inline_runs;
  Counter* shed;
  Histogram* queue_delay;
};

const SchedSites& Sites() {
  static const SchedSites sites = [] {
    MetricsRegistry& reg = MetricsRegistry::Instance();
    SchedSites s{};
    for (size_t p = 0; p < kNumTaskPriorities; ++p) {
      s.submitted[p] = reg.GetCounter(
          std::string("cod_sched_submitted_total{priority=\"") +
          TaskPriorityName(static_cast<TaskPriority>(p)) + "\"}");
    }
    s.stolen = reg.GetCounter("cod_sched_stolen_total");
    s.inline_runs = reg.GetCounter("cod_sched_inline_runs_total");
    s.shed = reg.GetCounter("cod_sched_shed_total");
    // 1us .. ~4s; queue delay under healthy load sits in the first buckets,
    // the tail is what the overload bench and alerts watch.
    s.queue_delay = reg.GetHistogram("cod_sched_queue_delay_seconds",
                                     HistogramOptions::Exponential(1e-6, 4.0, 12));
    return s;
  }();
  return sites;
}

bool GroupDone(scheduler_internal::GroupState& state) {
  std::lock_guard<std::mutex> lock(state.mu);
  return state.pending == 0;
}

}  // namespace

const char* TaskPriorityName(TaskPriority priority) {
  switch (priority) {
    case TaskPriority::kInteractive:
      return "interactive";
    case TaskPriority::kRebuild:
      return "rebuild";
    case TaskPriority::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

TaskGroup::TaskGroup(TaskScheduler& scheduler)
    : scheduler_(&scheduler),
      state_(std::make_shared<scheduler_internal::GroupState>()) {}

TaskGroup::~TaskGroup() { Wait(); }

bool TaskGroup::Done() const { return GroupDone(*state_); }

void TaskGroup::Wait() {
  scheduler_internal::GroupState& state = *state_;
  {
    // Resolved groups return without touching the scheduler, so a group may
    // outlive its scheduler once the scheduler's destructor has finished (or
    // orphan-finished) every task submitted against it.
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.pending == 0) return;
  }
  if (!scheduler_->IsWorkerThread()) {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done.wait(lock, [&state] { return state.pending == 0; });
    return;
  }
  // Worker-thread wait: help instead of parking the slot. Each pass either
  // runs one queued task (own group preferred) or sleeps briefly; the group
  // can only be pending because its tasks are queued (we'd find them) or
  // running on other workers (the timed wait picks up their completion).
  for (;;) {
    if (GroupDone(state)) return;
    if (scheduler_->RunOneQueuedTask(state_.get())) continue;
    std::unique_lock<std::mutex> lock(state.mu);
    if (state.pending == 0) return;
    state.done.wait_for(lock, std::chrono::microseconds(200));
  }
}

TaskScheduler::TaskScheduler(const Options& options) : options_(options) {
  size_t n = options.num_threads;
  if (n == 0) n = std::max<size_t>(1, std::thread::hardware_concurrency());
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    depth_[p].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    depth_gauges_[p].emplace(
        std::string("cod_sched_queue_depth{priority=\"") +
            TaskPriorityName(static_cast<TaskPriority>(p)) + "\"}",
        [this, p] {
          return static_cast<double>(
              depth_[p].load(std::memory_order_relaxed));
        });
  }
}

TaskScheduler::~TaskScheduler() {
  // Stop timers first: cancelled timer tasks never run, but their groups see
  // them finished. The timer thread is joined before stopping_ is set, so a
  // last-instant fire still enqueues successfully.
  std::vector<Task> orphaned;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
    for (auto& [id, entry] : timers_) orphaned.push_back(std::move(entry.task));
    timers_.clear();
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  for (Task& task : orphaned) {
    if (task.group) FinishGroupTask(task.group);
  }

  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker->thread.join();
}

bool TaskScheduler::IsWorkerThread() const {
  return Tls().scheduler == this;
}

void TaskScheduler::Submit(TaskPriority priority, std::function<void()> fn) {
  SubmitTask(priority, nullptr, std::move(fn));
}

void TaskScheduler::Submit(TaskPriority priority, TaskGroup& group,
                           std::function<void()> fn) {
  COD_CHECK(group.scheduler_ == this);
  SubmitTask(priority, group.state_, std::move(fn));
}

void TaskScheduler::SubmitTask(TaskPriority priority, GroupStatePtr group,
                               std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  task.group = std::move(group);
  if (task.group) {
    std::lock_guard<std::mutex> lock(task.group->mu);
    ++task.group->pending;
  }
  Enqueue(priority, std::move(task));
}

void TaskScheduler::Enqueue(TaskPriority priority, Task task) {
  const size_t p = static_cast<size_t>(priority);
  if (MetricsRegistry::enabled()) {
    task.enqueued = Clock::now();
    Sites().submitted[p]->Increment();
  }
  const WorkerTls& tls = Tls();
  const size_t target = tls.scheduler == this
                            ? tls.index
                            : rr_cursor_.fetch_add(
                                  1, std::memory_order_relaxed) %
                                  workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queues[p].push_back(std::move(task));
  }
  depth_[p].fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    COD_CHECK(!stopping_);
    ++submit_epoch_;
  }
  sleep_cv_.notify_one();
}

uint64_t TaskScheduler::ScheduleAt(Clock::time_point when,
                                   TaskPriority priority,
                                   std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  std::lock_guard<std::mutex> lock(timer_mu_);
  COD_CHECK(!timer_stop_);
  const uint64_t id = next_timer_id_++;
  timers_.emplace(id, TimerEntry{when, priority, std::move(task)});
  if (!timer_thread_.joinable()) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
  timer_cv_.notify_all();
  return id;
}

uint64_t TaskScheduler::ScheduleAt(Clock::time_point when,
                                   TaskPriority priority, TaskGroup& group,
                                   std::function<void()> fn) {
  COD_CHECK(group.scheduler_ == this);
  Task task;
  task.fn = std::move(fn);
  task.group = group.state_;
  {
    std::lock_guard<std::mutex> lock(task.group->mu);
    ++task.group->pending;
  }
  std::lock_guard<std::mutex> lock(timer_mu_);
  COD_CHECK(!timer_stop_);
  const uint64_t id = next_timer_id_++;
  timers_.emplace(id, TimerEntry{when, priority, std::move(task)});
  if (!timer_thread_.joinable()) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
  timer_cv_.notify_all();
  return id;
}

bool TaskScheduler::CancelTimer(uint64_t timer_id) {
  Task cancelled;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = timers_.find(timer_id);
    if (it == timers_.end()) return false;
    cancelled = std::move(it->second.task);
    timers_.erase(it);
  }
  // The cancelled task counts as finished for its group (it will never run).
  if (cancelled.group) FinishGroupTask(cancelled.group);
  return true;
}

bool TaskScheduler::ShouldShed(TaskPriority priority, size_t incoming) {
  const size_t p = static_cast<size_t>(priority);
  bool shed = COD_FAILPOINT("scheduler/admission");
  if (!shed && options_.max_queue_depth[p] > 0) {
    const size_t depth = depth_[p].load(std::memory_order_relaxed);
    shed = depth + incoming > options_.max_queue_depth[p];
  }
  if (shed && MetricsRegistry::enabled()) Sites().shed->Increment();
  return shed;
}

bool TaskScheduler::TryDequeue(size_t start,
                               const scheduler_internal::GroupState* prefer,
                               Task* out) {
  const size_t n = workers_.size();
  if (prefer != nullptr) {
    // Help-first pass: any queued task of the awaited group, wherever it
    // sits. Scanning inside a deque is fine — groups are small and this only
    // runs while a waiter would otherwise sleep.
    for (size_t p = 0; p < kNumTaskPriorities; ++p) {
      for (size_t i = 0; i < n; ++i) {
        const size_t v = (start + i) % n;
        Worker& w = *workers_[v];
        std::lock_guard<std::mutex> lock(w.mu);
        auto& q = w.queues[p];
        for (auto it = q.begin(); it != q.end(); ++it) {
          if (it->group.get() != prefer) continue;
          *out = std::move(*it);
          q.erase(it);
          depth_[p].fetch_sub(1, std::memory_order_relaxed);
          if (v != start && MetricsRegistry::enabled()) {
            Sites().stolen->Increment();
          }
          return true;
        }
      }
    }
  }
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    for (size_t i = 0; i < n; ++i) {
      const size_t v = (start + i) % n;
      Worker& w = *workers_[v];
      std::lock_guard<std::mutex> lock(w.mu);
      auto& q = w.queues[p];
      if (q.empty()) continue;
      *out = std::move(q.front());
      q.pop_front();
      depth_[p].fetch_sub(1, std::memory_order_relaxed);
      if (v != start && MetricsRegistry::enabled()) {
        Sites().stolen->Increment();
      }
      return true;
    }
  }
  return false;
}

bool TaskScheduler::RunOneQueuedTask(
    const scheduler_internal::GroupState* prefer) {
  const WorkerTls& tls = Tls();
  COD_CHECK(tls.scheduler == this);
  Task task;
  if (!TryDequeue(tls.index, prefer, &task)) return false;
  if (MetricsRegistry::enabled()) Sites().inline_runs->Increment();
  RunTask(task);
  return true;
}

void TaskScheduler::RunTask(Task& task) {
  if (task.enqueued != Clock::time_point{} && MetricsRegistry::enabled()) {
    Sites().queue_delay->Observe(
        std::chrono::duration<double>(Clock::now() - task.enqueued).count());
  }
  task.fn();
  // Drop the closure before signalling the group: a waiter may tear down
  // state the closure's captures point at the moment pending hits zero.
  task.fn = nullptr;
  if (task.group) FinishGroupTask(task.group);
}

void TaskScheduler::FinishGroupTask(const GroupStatePtr& group) {
  // Decrement and notify under the lock — the waiter's predicate read and
  // its wait must not interleave with the notify (same TSAN lesson as the
  // batch latch this replaces).
  std::lock_guard<std::mutex> lock(group->mu);
  COD_CHECK(group->pending > 0);
  if (--group->pending == 0) group->done.notify_all();
}

void TaskScheduler::WorkerLoop(size_t index) {
  Tls() = WorkerTls{this, index};
  for (;;) {
    Task task;
    if (TryDequeue(index, nullptr, &task)) {
      // Recruit a sibling while more work is queued: our notify may have
      // been the only one in flight for several pushes.
      for (size_t p = 0; p < kNumTaskPriorities; ++p) {
        if (depth_[p].load(std::memory_order_relaxed) > 0) {
          sleep_cv_.notify_one();
          break;
        }
      }
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (stopping_) break;
    const uint64_t seen = submit_epoch_;
    lock.unlock();
    // Rescan after recording the epoch: a Submit that raced with the empty
    // scan above either published its push before this rescan, or bumps the
    // epoch past `seen` and defeats the wait below. Either way it is seen.
    if (TryDequeue(index, nullptr, &task)) {
      RunTask(task);
      continue;
    }
    lock.lock();
    sleep_cv_.wait(lock,
                   [this, seen] { return stopping_ || submit_epoch_ != seen; });
    if (stopping_) break;
  }
  // Shutdown drain: run whatever is still queued (all workers drain
  // cooperatively), preserving the old pool's destructor contract.
  Task task;
  while (TryDequeue(index, nullptr, &task)) RunTask(task);
}

void TaskScheduler::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    auto best = timers_.begin();
    for (auto it = std::next(timers_.begin()); it != timers_.end(); ++it) {
      if (it->second.when < best->second.when) best = it;
    }
    const Clock::time_point when = best->second.when;
    if (Clock::now() < when) {
      timer_cv_.wait_until(lock, when);
      continue;
    }
    TimerEntry entry = std::move(best->second);
    timers_.erase(best);
    lock.unlock();
    Enqueue(entry.priority, std::move(entry.task));
    lock.lock();
  }
}

void ForEachIndex(TaskScheduler* scheduler, size_t count,
                  const std::function<void(size_t)>& fn) {
  if (scheduler == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Shared with the helpers, which may start after the call has returned:
  // such a late helper claims an index past `count` and never touches `fn`.
  struct State {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t finished = 0;  // guarded by mu
  };
  const auto state = std::make_shared<State>();
  state->fn = &fn;
  state->count = count;
  const auto drain = [](State& s) {
    size_t ran = 0;
    for (size_t i = s.next.fetch_add(1); i < s.count;
         i = s.next.fetch_add(1)) {
      (*s.fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    // Count and notify under the lock, so the caller's predicate check and
    // its wait cannot miss the last increment.
    std::lock_guard<std::mutex> lock(s.mu);
    s.finished += ran;
    if (s.finished == s.count) s.done.notify_all();
  };
  const size_t helpers = std::min(count - 1, scheduler->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    scheduler->Submit(TaskPriority::kRebuild,
                      [state, drain] { drain(*state); });
  }
  drain(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->finished == count; });
}

}  // namespace cod
