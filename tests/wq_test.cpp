// Tests for the Work Queue runtime: master dispatch/accounting, multi-slot
// workers, eviction injection, and master -> foreman -> worker hierarchies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "wq/foreman.hpp"
#include "wq/master.hpp"
#include "wq/worker.hpp"

namespace wq = lobster::wq;
using namespace std::chrono_literals;

namespace {
wq::TaskSpec make_task(std::uint64_t id,
                       std::function<int(wq::TaskContext&)> work,
                       std::string tag = "analysis") {
  wq::TaskSpec spec;
  spec.id = id;
  spec.tag = std::move(tag);
  spec.work = std::move(work);
  return spec;
}

// Drain all results from a master into a vector (call after
// close_submission on a thread or once workers are running).
std::vector<wq::TaskResult> collect(wq::Master& master) {
  std::vector<wq::TaskResult> out;
  while (auto r = master.next_result()) out.push_back(std::move(*r));
  return out;
}
}  // namespace

TEST(Master, SubmitAfterCloseRejected) {
  wq::Master master;
  EXPECT_TRUE(master.submit(make_task(1, [](wq::TaskContext&) { return 0; })));
  master.close_submission();
  EXPECT_FALSE(master.submit(make_task(2, [](wq::TaskContext&) { return 0; })));
}

TEST(Master, SingleWorkerRunsAllTasks) {
  wq::Master master;
  std::atomic<int> executed{0};
  for (int i = 0; i < 100; ++i) {
    master.submit(make_task(static_cast<std::uint64_t>(i),
                            [&executed](wq::TaskContext&) {
                              executed.fetch_add(1);
                              return 0;
                            }));
  }
  master.close_submission();
  wq::Worker worker("w0", master, 4);
  const auto results = collect(master);
  worker.join();
  EXPECT_EQ(executed.load(), 100);
  ASSERT_EQ(results.size(), 100u);
  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_TRUE(r.success());
    EXPECT_EQ(r.worker_name, "w0");
    ids.insert(r.id);
  }
  EXPECT_EQ(ids.size(), 100u) << "every task exactly once";
  EXPECT_EQ(master.completed(), 100u);
  EXPECT_EQ(master.failed(), 0u);
}

TEST(Master, AccessorsCountTheLifecycle) {
  wq::Master master;
  wq::Worker worker("w0", master, 4);
  for (int i = 0; i < 20; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  master.close_submission();
  collect(master);
  worker.join();
  EXPECT_EQ(master.submitted(), 20u);
  EXPECT_EQ(master.dispatched(), 20u);
  EXPECT_EQ(master.completed(), 20u);
  EXPECT_EQ(master.failed(), 0u);
  EXPECT_EQ(worker.tasks_run(), 20u);
}

TEST(Master, FailuresAndExceptionsCounted) {
  wq::Master master;
  master.submit(make_task(1, [](wq::TaskContext&) { return 7; }));
  master.submit(make_task(2, [](wq::TaskContext&) -> int {
    throw std::runtime_error("app crash");
  }));
  master.submit(make_task(3, [](wq::TaskContext&) { return 0; }));
  master.close_submission();
  wq::Worker worker("w0", master, 1);
  const auto results = collect(master);
  worker.join();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(master.completed(), 1u);
  EXPECT_EQ(master.failed(), 2u);
  for (const auto& r : results) {
    if (r.id == 2) {
      EXPECT_EQ(r.exit_code,
                static_cast<int>(wq::TaskExit::ExecutionFailure));
    }
  }
}

TEST(Master, NullWorkIsWrapperFailure) {
  wq::Master master;
  wq::TaskSpec spec;
  spec.id = 9;
  master.submit(std::move(spec));
  master.close_submission();
  wq::Worker worker("w0", master, 1);
  const auto results = collect(master);
  worker.join();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].exit_code,
            static_cast<int>(wq::TaskExit::WrapperFailure));
}

TEST(Worker, MultipleWorkersShareQueue) {
  wq::Master master;
  for (int i = 0; i < 200; ++i)
    master.submit(make_task(static_cast<std::uint64_t>(i),
                            [](wq::TaskContext&) {
                              std::this_thread::sleep_for(1ms);
                              return 0;
                            }));
  master.close_submission();
  std::vector<std::unique_ptr<wq::Worker>> workers;
  for (int w = 0; w < 4; ++w)
    workers.push_back(std::make_unique<wq::Worker>("w" + std::to_string(w),
                                                   master, 2));
  const auto results = collect(master);
  for (auto& w : workers) w->join();
  EXPECT_EQ(results.size(), 200u);
  std::set<std::string> names;
  for (const auto& r : results) names.insert(r.worker_name);
  EXPECT_GT(names.size(), 1u) << "work should spread across workers";
  std::uint64_t total_run = 0;
  for (auto& w : workers) total_run += w->tasks_run();
  EXPECT_EQ(total_run, 200u);
}

TEST(Worker, EvictionCancelsRunningTasks) {
  wq::Master master;
  std::atomic<bool> started{false};
  // Long-running tasks that poll the cancellation token.
  for (int i = 0; i < 4; ++i) {
    master.submit(make_task(static_cast<std::uint64_t>(i),
                            [&started](wq::TaskContext& ctx) {
                              started.store(true);
                              for (int k = 0; k < 10000; ++k) {
                                if (ctx.cancel.cancelled()) return 1;
                                std::this_thread::sleep_for(1ms);
                              }
                              return 0;
                            }));
  }
  master.close_submission();
  auto worker = std::make_unique<wq::Worker>("victim", master, 4);
  while (!started.load()) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(10ms);
  worker->evict();  // the batch system takes the node back
  const auto results = collect(master);
  worker->join();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.exit_code, static_cast<int>(wq::TaskExit::Evicted));
  }
  EXPECT_EQ(master.evicted(), 4u);
}

TEST(Worker, EvictedWorkIsResubmittable) {
  // The Lobster pattern: evicted tasks are resubmitted until done.
  wq::Master master;
  std::atomic<int> completions{0};
  auto work = [&completions](wq::TaskContext& ctx) {
    for (int k = 0; k < 50; ++k) {
      if (ctx.cancel.cancelled()) return 1;
      std::this_thread::sleep_for(1ms);
    }
    completions.fetch_add(1);
    return 0;
  };
  for (int i = 0; i < 8; ++i)
    master.submit(make_task(static_cast<std::uint64_t>(i), work));

  auto victim = std::make_unique<wq::Worker>("victim", master, 2);
  std::this_thread::sleep_for(20ms);
  victim->evict();

  // A reliable worker joins; resubmit everything that came back evicted.
  wq::Worker reliable("reliable", master, 2);
  std::size_t done = 0;
  while (auto r = master.next_result()) {
    if (r->evicted) {
      master.submit(make_task(r->id, work));
    } else {
      EXPECT_TRUE(r->success());
      if (++done == 8) master.close_submission();
    }
  }
  victim->join();
  reliable.join();
  EXPECT_EQ(done, 8u);
  EXPECT_EQ(completions.load(), 8);
}

TEST(Foreman, RelaysTasksAndResults) {
  wq::Master master;
  for (int i = 0; i < 60; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  master.close_submission();
  wq::Foreman foreman("f0", master, 16);
  wq::Worker w1("w1", foreman, 2);
  wq::Worker w2("w2", foreman, 2);
  const auto results = collect(master);
  w1.join();
  w2.join();
  foreman.shutdown();
  EXPECT_EQ(results.size(), 60u);
  EXPECT_EQ(foreman.tasks_relayed(), 60u);
  EXPECT_EQ(foreman.results_relayed(), 60u);
  for (const auto& r : results) EXPECT_TRUE(r.success());
}

TEST(Foreman, HierarchyOfFourForemen) {
  // The paper's production topology: one rank of four foremen, workers with
  // eight cores each.
  wq::Master master;
  constexpr int kTasks = 400;
  std::atomic<int> executed{0};
  for (int i = 0; i < kTasks; ++i)
    master.submit(make_task(static_cast<std::uint64_t>(i),
                            [&executed](wq::TaskContext&) {
                              executed.fetch_add(1);
                              return 0;
                            }));
  master.close_submission();
  std::vector<std::unique_ptr<wq::Foreman>> foremen;
  std::vector<std::unique_ptr<wq::Worker>> workers;
  for (int f = 0; f < 4; ++f) {
    foremen.push_back(std::make_unique<wq::Foreman>("f" + std::to_string(f),
                                                    master, 32));
    for (int w = 0; w < 2; ++w)
      workers.push_back(std::make_unique<wq::Worker>(
          "f" + std::to_string(f) + ".w" + std::to_string(w), *foremen.back(),
          8));
  }
  const auto results = collect(master);
  for (auto& w : workers) w->join();
  for (auto& f : foremen) f->shutdown();
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kTasks));
  std::uint64_t relayed = 0;
  for (auto& f : foremen) relayed += f->tasks_relayed();
  EXPECT_EQ(relayed, static_cast<std::uint64_t>(kTasks));
}

TEST(Foreman, ShutdownMidStreamReportsBufferedTasksEvicted) {
  wq::Master master;
  // Submit tasks but attach no workers to the foreman: they sit in its
  // prefetch buffer.  Submission stays open — the Lobster pattern — so
  // evicted tasks can be resubmitted.
  for (int i = 0; i < 10; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  auto foreman = std::make_unique<wq::Foreman>("dying", master, 4);
  std::this_thread::sleep_for(50ms);  // let the pump prefetch
  foreman->shutdown();                 // foreman dies with a full buffer
  // Remaining tasks may still be in the master queue; run a direct worker
  // and resubmit evictions to finish the workload.
  wq::Worker worker("direct", master, 2);
  std::size_t completed = 0, evicted = 0;
  while (auto r = master.next_result()) {
    if (r->evicted) {
      ++evicted;
      master.submit(make_task(r->id, [](wq::TaskContext&) { return 0; }));
    } else if (++completed == 10) {
      master.close_submission();
    }
  }
  EXPECT_EQ(completed, 10u);
  EXPECT_GT(evicted, 0u) << "buffered tasks must come back as evicted";
  EXPECT_EQ(master.evicted(), evicted);
}

TEST(Foreman, MidShutdownSendNotCountedRelayed) {
  // Regression for the relayed-before-send accounting bug: a pump blocked
  // in the bounded send when shutdown hits must NOT count that task as
  // relayed — it never entered the window and is reported evicted.  The
  // old code incremented relayed_ first, overstating throughput by one.
  wq::Master master;
  for (int i = 0; i < 5; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  auto foreman = std::make_unique<wq::Foreman>("dying", master, 2);
  // Window 2: the pump buffers two tasks, then blocks sending the third.
  std::this_thread::sleep_for(100ms);
  foreman->shutdown();
  // Exact ledger: 2 buffered tasks were accepted (relayed) and evicted at
  // shutdown; the mid-send third was evicted without ever being relayed.
  EXPECT_EQ(foreman->tasks_relayed(), 2u);
  EXPECT_EQ(foreman->tasks_evicted(), 2u);
  EXPECT_EQ(foreman->tasks_dispatched(), 0u);
  EXPECT_EQ(master.evicted(), 3u);
  EXPECT_EQ(foreman->tasks_relayed(),
            foreman->tasks_dispatched() + foreman->tasks_evicted());
  // The workload still finishes: resubmit the evictions to a direct worker.
  wq::Worker worker("direct", master, 2);
  std::size_t completed = 0;
  while (auto r = master.next_result()) {
    if (r->evicted) {
      EXPECT_TRUE(
          master.submit(make_task(r->id, [](wq::TaskContext&) { return 0; })));
    } else if (++completed == 5) {
      master.close_submission();
    }
  }
  worker.join();
  EXPECT_EQ(completed, 5u);
  EXPECT_EQ(master.submitted(),
            master.completed() + master.failed() + master.evicted());
}

TEST(Foreman, DepthTwoTreePreservesAccounting) {
  // Tree: master -> hub foreman -> two leaf foremen -> workers.  Relay
  // conservation must hold at every level and the master's books must
  // balance exactly (submitted == completed + failed + evicted).
  wq::Master master;
  constexpr int kTasks = 300;
  std::atomic<int> executed{0};
  for (int i = 0; i < kTasks; ++i)
    master.submit(make_task(static_cast<std::uint64_t>(i),
                            [&executed](wq::TaskContext&) {
                              executed.fetch_add(1);
                              return 0;
                            }));
  master.close_submission();
  wq::Foreman hub("hub", master, 64);
  wq::Foreman leaf_a("leaf-a", hub, 16);
  wq::Foreman leaf_b("leaf-b", hub, 16);
  wq::Worker wa("wa", leaf_a, 4);
  wq::Worker wb("wb", leaf_b, 4);
  const auto results = collect(master);
  wa.join();
  wb.join();
  leaf_a.shutdown();
  leaf_b.shutdown();
  hub.shutdown();
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kTasks));
  // Level conservation: everything the hub relayed was pulled by a leaf,
  // and everything a leaf relayed was dispatched to a worker.
  EXPECT_EQ(hub.tasks_relayed(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(hub.tasks_dispatched(),
            leaf_a.tasks_relayed() + leaf_b.tasks_relayed());
  EXPECT_EQ(hub.tasks_relayed(),
            hub.tasks_dispatched() + hub.tasks_evicted());
  for (const wq::Foreman* leaf : {&leaf_a, &leaf_b}) {
    EXPECT_EQ(leaf->tasks_relayed(),
              leaf->tasks_dispatched() + leaf->tasks_evicted());
    EXPECT_EQ(leaf->tasks_evicted(), 0u);
  }
  // Results climb back through both levels.
  EXPECT_EQ(hub.results_relayed(), static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(leaf_a.results_relayed() + leaf_b.results_relayed(),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(master.submitted(),
            master.completed() + master.failed() + master.evicted());
  EXPECT_EQ(master.completed(), static_cast<std::uint64_t>(kTasks));
}

TEST(Foreman, DepthThreeChainRelaysAll) {
  // A depth-3 relay chain: master -> f1 -> f2 -> f3 -> worker.  Every level
  // sees every task and every result exactly once.
  wq::Master master;
  constexpr int kTasks = 120;
  for (int i = 0; i < kTasks; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  master.close_submission();
  wq::Foreman f1("f1", master, 32);
  wq::Foreman f2("f2", f1, 16);
  wq::Foreman f3("f3", f2, 8);
  wq::Worker worker("w", f3, 4);
  const auto results = collect(master);
  worker.join();
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kTasks));
  for (const wq::Foreman* f : {&f1, &f2, &f3}) {
    EXPECT_EQ(f->tasks_relayed(), static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(f->tasks_dispatched(), static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(f->results_relayed(), static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(f->tasks_evicted(), 0u);
  }
  EXPECT_EQ(master.completed(), static_cast<std::uint64_t>(kTasks));
}

TEST(Master, RejectedResubmitIsCountedNotSilent) {
  // A dying foreman's evicted results invite resubmission, but a resubmit
  // after close_submission() must fail loudly: counted in
  // rejected_resubmits(), not silently dropped.
  wq::Master master;
  for (int i = 0; i < 2; ++i)
    master.submit(
        make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
          return 0;
        }));
  auto foreman = std::make_unique<wq::Foreman>("dying", master, 4);
  std::this_thread::sleep_for(50ms);  // both tasks reach the buffer
  master.close_submission();
  foreman->shutdown();  // evicted results delivered after close
  std::size_t rejected = 0;
  while (auto r = master.next_result()) {
    ASSERT_TRUE(r->evicted);
    if (!master.submit(make_task(r->id, [](wq::TaskContext&) { return 0; })))
      ++rejected;
  }
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(master.rejected_resubmits(), 2u);
  EXPECT_EQ(master.evicted(), 2u);
  EXPECT_EQ(master.completed(), 0u);
}

TEST(Master, CloseRacingLastDeliveryNeverLosesWakeup) {
  // Stress the close_submission()/deliver() interleaving the lost-wakeup
  // fix pins: submission closes concurrently with the final delivery (and
  // with a doomed late resubmit).  Any lost close leaves next_result()
  // blocked forever, so mere termination is the assertion; run it under
  // TSan to pin the memory ordering too.
  for (int round = 0; round < 200; ++round) {
    wq::Master master;
    constexpr int kTasks = 4;
    for (int i = 0; i < kTasks; ++i)
      master.submit(
          make_task(static_cast<std::uint64_t>(i), [](wq::TaskContext&) {
            return 0;
          }));
    // Deliverer: a bare-hands worker pulling and completing every task.
    std::thread deliverer([&master] {
      while (auto spec = master.next_task(5ms)) {
        wq::TaskResult r;
        r.id = spec->id;
        r.tag = spec->tag;
        r.exit_code = 0;
        r.worker_name = "stress";
        master.deliver(std::move(r));
        if (master.drained()) break;
      }
    });
    // Closer: races close_submission against the last delivery.
    std::thread closer([&master] {
      while (master.completed() + master.failed() < kTasks - 1)
        std::this_thread::yield();
      master.close_submission();
    });
    // Doomed resubmitter: a late submit racing the close must either be
    // accepted (and then delivered) or rejected — never wedge the close.
    std::thread resubmitter([&master] {
      master.submit(make_task(99, [](wq::TaskContext&) { return 0; }));
    });
    std::size_t got = 0;
    while (auto r = master.next_result()) ++got;  // must terminate
    deliverer.join();
    closer.join();
    resubmitter.join();
    EXPECT_EQ(got, master.submitted());
    EXPECT_EQ(master.submitted(),
              master.completed() + master.failed() + master.evicted());
  }
}

TEST(Master, DispatchWaitIsMeasured) {
  wq::Master master;
  master.submit(make_task(1, [](wq::TaskContext&) { return 0; }));
  master.close_submission();
  std::this_thread::sleep_for(30ms);  // task waits in queue
  wq::Worker worker("w0", master, 1);
  const auto results = collect(master);
  worker.join();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GE(results[0].dispatch_time, 0.02);
}
