#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dmt {
namespace {

TEST(ThreadPoolTest, ZeroTasksDestructsCleanly) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  // No batches; destructor must not hang or crash.
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.RunBatch(2, [&ran](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, RunBatchRunsEverySlotExactlyOnce) {
  ThreadPool pool(7);
  const size_t kFanout = pool.size() + 1;
  std::vector<std::atomic<int>> hits(kFanout);
  for (auto& h : hits) h.store(0);
  pool.RunBatch(kFanout, [&hits](size_t slot) {
    hits[slot].fetch_add(1, std::memory_order_relaxed);
  });
  // The barrier already happened: plain reads are safe here.
  for (size_t i = 0; i < kFanout; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, RunBatchZeroFanoutReturnsImmediately) {
  ThreadPool pool(4);
  pool.RunBatch(0, [](size_t) { FAIL() << "no slot should run"; });
}

TEST(ThreadPoolTest, RunBatchRunsSlotZeroOnCaller) {
  ThreadPool pool(3);
  for (size_t fanout = 1; fanout <= pool.size() + 1; ++fanout) {
    std::vector<std::thread::id> ran_on(fanout);
    pool.RunBatch(fanout, [&ran_on](size_t slot) {
      ran_on[slot] = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << "fanout " << fanout;
    for (size_t slot = 1; slot < fanout; ++slot) {
      EXPECT_NE(ran_on[slot], std::this_thread::get_id())
          << "fanout " << fanout << ", slot " << slot;
    }
  }
}

// The binding the driver's site affinity rests on: slot i lands on the
// same thread in every batch, whatever the fanout, and distinct slots
// never share a thread.
TEST(ThreadPoolTest, RunBatchPinsEachSlotToOneThread) {
  ThreadPool pool(3);
  const size_t kSlots = pool.size() + 1;
  std::vector<std::thread::id> first(kSlots);
  pool.RunBatch(kSlots, [&first](size_t slot) {
    first[slot] = std::this_thread::get_id();
  });
  for (size_t a = 0; a < kSlots; ++a) {
    for (size_t b = a + 1; b < kSlots; ++b) EXPECT_NE(first[a], first[b]);
  }
  for (int round = 0; round < 200; ++round) {
    // Vary the fanout so that idle workers miss some batches entirely.
    const size_t fanout = 1 + static_cast<size_t>(round) % kSlots;
    std::vector<std::thread::id> now(fanout);
    pool.RunBatch(fanout, [&now](size_t slot) {
      now[slot] = std::this_thread::get_id();
    });
    for (size_t slot = 0; slot < fanout; ++slot) {
      ASSERT_EQ(now[slot], first[slot])
          << "round " << round << ", slot " << slot;
    }
  }
}

// Every slot finishes before RunBatch rethrows, whichever slot threw —
// including slot 0, which throws on the caller while the workers are
// still running.
TEST(ThreadPoolTest, RunBatchCompletesAllSlotsBeforeRethrowing) {
  ThreadPool pool(4);
  const size_t kFanout = pool.size() + 1;
  for (size_t thrower : {size_t{0}, size_t{3}}) {
    std::atomic<size_t> done{0};
    EXPECT_THROW(
        pool.RunBatch(kFanout,
                      [&done, thrower](size_t slot) {
                        if (slot == thrower) {
                          throw std::runtime_error("boom");
                        }
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        done.fetch_add(1, std::memory_order_relaxed);
                      }),
        std::runtime_error);
    // All-slots-complete barrier: every other slot ran to its end.
    EXPECT_EQ(done.load(), kFanout - 1) << "slot " << thrower << " threw";
  }
  // The pool survives.
  std::atomic<int> after{0};
  pool.RunBatch(kFanout, [&after](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), static_cast<int>(kFanout));
}

TEST(ThreadPoolTest, RunBatchReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunBatch(4, [&counter](size_t) {
      counter.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(counter.load(), 50 * 4);
}

TEST(ThreadPoolDeathTest, RunBatchRejectsMoreSlotsThanThreads) {
  // The pool is built inside the death statement, so its workers exist
  // only in the forked child.
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.RunBatch(4, [](size_t) {});
      },
      "DMT_CHECK failed");
}

}  // namespace
}  // namespace dmt
