// Unit tests for the task scheduler (common/task_scheduler.h): priority
// ordering under saturation, work stealing, TaskGroup inline help, the
// lost-wakeup-free sleep protocol, the timer facility, admission control
// (bound- and failpoint-driven), drain-on-destruction, the scheduler
// metrics, and the ForEachIndex fan-out.

#include "common/task_scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace cod {
namespace {

// Parks one worker until Release(); the test waits for arrival first so it
// KNOWS the worker is occupied before it starts queueing behind it.
class Blocker {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool released_ = false;
};

TEST(TaskSchedulerTest, RunsEveryTaskAcrossGroups) {
  TaskScheduler sched(4);
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 1000; ++i) {
    sched.Submit(TaskPriority::kInteractive, group,
                 [&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 1000);
  EXPECT_TRUE(group.Done());
}

TEST(TaskSchedulerTest, SaturatedSchedulerStartsInteractiveBeforeRebuilds) {
  // One worker, parked: everything below queues up. On release the worker
  // must drain strictly priority-major — queued interactive tasks start
  // before queued rebuilds submitted EARLIER, and rebuilds before
  // maintenance — with FIFO order inside each class.
  TaskScheduler sched(1);
  Blocker blocker;
  TaskGroup group(sched);
  sched.Submit(TaskPriority::kRebuild, group, [&] { blocker.Block(); });
  blocker.AwaitArrival();

  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&](std::string tag) {
    return [&, tag = std::move(tag)] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  // Deliberately submitted lowest-priority first.
  sched.Submit(TaskPriority::kMaintenance, group, record("m0"));
  sched.Submit(TaskPriority::kRebuild, group, record("r0"));
  sched.Submit(TaskPriority::kInteractive, group, record("i0"));
  sched.Submit(TaskPriority::kMaintenance, group, record("m1"));
  sched.Submit(TaskPriority::kRebuild, group, record("r1"));
  sched.Submit(TaskPriority::kInteractive, group, record("i1"));

  blocker.Release();
  group.Wait();
  const std::vector<std::string> want = {"i0", "i1", "r0", "r1", "m0", "m1"};
  EXPECT_EQ(order, want);
}

TEST(TaskSchedulerTest, IdleWorkerStealsFromPinnedSibling) {
  // Two workers; the blocker pins one. Every queued task must still finish
  // WHILE the blocker is held — external submissions spread round-robin, so
  // roughly half land in the pinned worker's deques and can only run if the
  // free worker steals them. The external Wait() below completes only in
  // that case.
  TaskScheduler sched(2);
  Blocker blocker;
  TaskGroup pin(sched);
  sched.Submit(TaskPriority::kRebuild, pin, [&] { blocker.Block(); });
  blocker.AwaitArrival();

  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 64; ++i) {
    sched.Submit(TaskPriority::kInteractive, group,
                 [&counter] { counter.fetch_add(1); });
  }
  group.Wait();  // blocker still held: only stealing can drain this
  EXPECT_EQ(counter.load(), 64);

  blocker.Release();
  pin.Wait();
}

TEST(TaskSchedulerTest, WaitFromWorkerHelpsInlineOnSingleWorker) {
  // A task on the ONLY worker fans out a nested group on the same scheduler
  // and waits on it. The old pool deadlocked here (the waiter held the one
  // slot its subtasks needed) and hid behind an IsWorkerThread fallback;
  // the scheduler's group wait runs the queued subtasks inline instead.
  TaskScheduler sched(1);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> outer_done{false};
  TaskGroup outer(sched);
  sched.Submit(TaskPriority::kRebuild, outer, [&] {
    TaskGroup inner(sched);
    for (int i = 0; i < 8; ++i) {
      sched.Submit(TaskPriority::kInteractive, inner,
                   [&inner_runs] { inner_runs.fetch_add(1); });
    }
    inner.Wait();
    outer_done.store(inner_runs.load() == 8);
  });
  outer.Wait();
  EXPECT_TRUE(outer_done.load());
  EXPECT_EQ(inner_runs.load(), 8);
}

TEST(TaskSchedulerTest, LostWakeupRegressionManyWavesOfSmallTasks) {
  // Regression for the flat pool's lost-wakeup window (notify_one firing
  // between a worker's empty scan and its wait). Thousands of tiny
  // submit/wait cycles across 4 workers maximize the racy interleaving; a
  // lost wakeup shows up as a hung Wait() (test timeout).
  TaskScheduler sched(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 400; ++wave) {
    TaskGroup group(sched);
    for (int i = 0; i < 8; ++i) {
      sched.Submit(TaskPriority::kInteractive, group,
                   [&counter] { counter.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 400 * 8);
}

TEST(TaskSchedulerTest, TimerFiresOnWorkerAndResolvesGroup) {
  TaskScheduler sched(2);
  std::atomic<bool> ran_on_worker{false};
  TaskGroup group(sched);
  const uint64_t id = sched.ScheduleAt(
      TaskScheduler::Clock::now() + std::chrono::milliseconds(5),
      TaskPriority::kMaintenance, group,
      [&] { ran_on_worker.store(sched.IsWorkerThread()); });
  EXPECT_NE(id, 0u);
  group.Wait();  // covers the timer: resolves only once the task ran
  EXPECT_TRUE(ran_on_worker.load());
  // Fired timers are gone; cancelling one is a no-op.
  EXPECT_FALSE(sched.CancelTimer(id));
}

TEST(TaskSchedulerTest, CancelledTimerNeverRunsAndUnblocksItsGroup) {
  TaskScheduler sched(1);
  std::atomic<bool> ran{false};
  TaskGroup group(sched);
  const uint64_t id = sched.ScheduleAt(
      TaskScheduler::Clock::now() + std::chrono::seconds(60),
      TaskPriority::kMaintenance, group, [&] { ran.store(true); });
  EXPECT_TRUE(sched.CancelTimer(id));
  EXPECT_FALSE(sched.CancelTimer(id));  // already gone
  // The cancelled task counts as finished: Wait() must not sit out the 60 s.
  group.Wait();
  EXPECT_FALSE(ran.load());
}

TEST(TaskSchedulerTest, PendingTimersAreCancelledByDestructor) {
  std::atomic<bool> ran{false};
  auto sched = std::make_unique<TaskScheduler>(1);
  TaskGroup group(*sched);
  sched->ScheduleAt(TaskScheduler::Clock::now() + std::chrono::seconds(60),
                    TaskPriority::kMaintenance, group,
                    [&] { ran.store(true); });
  // Destroy with the timer pending: the dtor cancels it (never runs the task)
  // but finishes the group, so the group may safely outlive the scheduler.
  sched.reset();
  EXPECT_FALSE(ran.load());
  group.Wait();  // resolved: returns without touching the dead scheduler
}

TEST(TaskSchedulerTest, QueueDepthTracksQueuedNotRunningTasks) {
  TaskScheduler sched(1);
  Blocker blocker;
  TaskGroup pin(sched);
  sched.Submit(TaskPriority::kRebuild, pin, [&] { blocker.Block(); });
  blocker.AwaitArrival();
  // The blocker is RUNNING, not queued.
  EXPECT_EQ(sched.QueueDepth(TaskPriority::kRebuild), 0u);

  TaskGroup group(sched);
  for (int i = 0; i < 3; ++i) {
    sched.Submit(TaskPriority::kInteractive, group, [] {});
  }
  sched.Submit(TaskPriority::kMaintenance, group, [] {});
  EXPECT_EQ(sched.QueueDepth(TaskPriority::kInteractive), 3u);
  EXPECT_EQ(sched.QueueDepth(TaskPriority::kMaintenance), 1u);

  blocker.Release();
  group.Wait();
  pin.Wait();
  EXPECT_EQ(sched.QueueDepth(TaskPriority::kInteractive), 0u);
  EXPECT_EQ(sched.QueueDepth(TaskPriority::kMaintenance), 0u);
}

TEST(TaskSchedulerTest, ShouldShedTripsOnConfiguredQueueBound) {
  TaskScheduler::Options options;
  options.num_threads = 1;
  options.max_queue_depth[static_cast<size_t>(TaskPriority::kInteractive)] = 2;
  TaskScheduler sched(options);

  Blocker blocker;
  TaskGroup pin(sched);
  sched.Submit(TaskPriority::kRebuild, pin, [&] { blocker.Block(); });
  blocker.AwaitArrival();

  // Depth 0: room for 2 incoming, not for 3.
  EXPECT_FALSE(sched.ShouldShed(TaskPriority::kInteractive, 2));
  EXPECT_TRUE(sched.ShouldShed(TaskPriority::kInteractive, 3));

  TaskGroup group(sched);
  sched.Submit(TaskPriority::kInteractive, group, [] {});
  sched.Submit(TaskPriority::kInteractive, group, [] {});
  // Depth 2 == bound: even one more must shed.
  EXPECT_TRUE(sched.ShouldShed(TaskPriority::kInteractive, 1));
  // Unbounded classes never shed on depth.
  EXPECT_FALSE(sched.ShouldShed(TaskPriority::kRebuild, 1000));

  blocker.Release();
  group.Wait();
  pin.Wait();
  EXPECT_FALSE(sched.ShouldShed(TaskPriority::kInteractive, 1));
}

TEST(TaskSchedulerTest, ShouldShedTripsOnAdmissionFailpoint) {
  TaskScheduler sched(2);  // no depth bounds configured
  Counter* shed_total =
      MetricsRegistry::Instance().GetCounter("cod_sched_shed_total");
  const uint64_t before = shed_total->Value();
  EXPECT_FALSE(sched.ShouldShed(TaskPriority::kInteractive));
  {
    ScopedFailpoint fp("scheduler/admission", /*count=*/2);
    EXPECT_TRUE(sched.ShouldShed(TaskPriority::kInteractive));
    EXPECT_TRUE(sched.ShouldShed(TaskPriority::kRebuild, 100));
    EXPECT_FALSE(sched.ShouldShed(TaskPriority::kInteractive));  // exhausted
  }
  EXPECT_EQ(shed_total->Value(), before + 2);
}

TEST(TaskSchedulerTest, DestructorDrainsQueuedTasks) {
  // The old pool's contract: everything submitted runs, even if the
  // scheduler dies before anyone waits.
  std::atomic<int> counter{0};
  {
    TaskScheduler sched(2);
    for (int i = 0; i < 100; ++i) {
      sched.Submit(TaskPriority::kRebuild, [&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskSchedulerTest, MetricsCountSubmissionsStealsAndInlineRuns) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter* submitted = reg.GetCounter(
      "cod_sched_submitted_total{priority=\"interactive\"}");
  Counter* inline_runs = reg.GetCounter("cod_sched_inline_runs_total");
  const uint64_t submitted_before = submitted->Value();
  const uint64_t inline_before = inline_runs->Value();

  TaskScheduler sched(1);
  TaskGroup outer(sched);
  sched.Submit(TaskPriority::kRebuild, outer, [&] {
    TaskGroup inner(sched);
    for (int i = 0; i < 4; ++i) {
      sched.Submit(TaskPriority::kInteractive, inner, [] {});
    }
    inner.Wait();  // single worker: all 4 must run inline in this wait
  });
  outer.Wait();

  EXPECT_EQ(submitted->Value(), submitted_before + 4);
  EXPECT_GE(inline_runs->Value(), inline_before + 4);
  // The queue-delay histogram and depth gauges are exposed for scrapes.
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("cod_sched_queue_delay_seconds"), std::string::npos);
  EXPECT_NE(text.find("cod_sched_queue_depth{priority=\"interactive\"}"),
            std::string::npos);
}

// Parks every worker that runs Block() until Release(); AwaitArrivals(n)
// returns once n of them are parked.
class Latch {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void AwaitArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return arrived_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  bool released_ = false;
};

TEST(ForEachIndexTest, RunsEveryIndexExactlyOnce) {
  for (const size_t workers : {0, 1, 4}) {
    SCOPED_TRACE(workers);
    std::unique_ptr<TaskScheduler> sched;
    if (workers > 0) sched = std::make_unique<TaskScheduler>(workers);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    ForEachIndex(sched.get(), kCount, [&runs](size_t i) { runs[i]++; });
    for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  }
}

TEST(ForEachIndexTest, CallerFinishesAloneWhileEveryWorkerIsBlocked) {
  // Both workers sit on a latch, so the helper tasks stay queued: the
  // calling thread must claim every index itself and return without
  // waiting for a helper that never started.
  TaskScheduler sched(2);
  Latch latch;
  TaskGroup pinned(sched);
  for (int w = 0; w < 2; ++w) {
    sched.Submit(TaskPriority::kInteractive, pinned, [&] { latch.Block(); });
  }
  latch.AwaitArrivals(2);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> runs(64, 0);
  std::atomic<int> off_caller{0};
  ForEachIndex(&sched, runs.size(), [&](size_t i) {
    ++runs[i];
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  EXPECT_EQ(off_caller.load(), 0);
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i], 1) << i;

  // The queued helpers then run on the freed workers and find no index.
  latch.Release();
  pinned.Wait();
}

TEST(ForEachIndexTest, NestedFanOutFromWorkersCompletes) {
  // The sharded shape: an outer fan-out whose items run on workers (and
  // on the caller) and fan out again on the same scheduler.
  for (const size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    TaskScheduler sched(workers);
    constexpr size_t kOuter = 6;
    constexpr size_t kInner = 40;
    std::vector<std::atomic<int>> runs(kOuter * kInner);
    std::atomic<bool> outer_done{false};
    TaskGroup group(sched);
    sched.Submit(TaskPriority::kRebuild, group, [&] {
      ForEachIndex(&sched, kOuter, [&](size_t o) {
        ForEachIndex(&sched, kInner,
                     [&, o](size_t i) { runs[o * kInner + i]++; });
      });
      outer_done.store(true);
    });
    group.Wait();
    EXPECT_TRUE(outer_done.load());
    for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  }
}

TEST(ForEachIndexTest, ZeroAndOneItems) {
  TaskScheduler sched(2);
  for (TaskScheduler* s : {static_cast<TaskScheduler*>(nullptr), &sched}) {
    int calls = 0;
    ForEachIndex(s, 0, [&calls](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // A single item runs inline on the calling thread.
    std::thread::id ran_on;
    ForEachIndex(s, 1, [&](size_t i) {
      EXPECT_EQ(i, 0u);
      ++calls;
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
}

}  // namespace
}  // namespace cod
