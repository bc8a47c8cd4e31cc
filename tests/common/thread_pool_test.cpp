#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/contract.h"

namespace satd {
namespace {

TEST(ThreadPool, SubmitRunsJob) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  // workers=0 is the poolless executor: submit runs on the caller.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesPool) {
  ThreadPool::set_global_threads(4);
  EXPECT_EQ(ThreadPool::global_threads(), 4u);
  EXPECT_EQ(ThreadPool::global().worker_count(), 3u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global_threads(), 1u);
  ThreadPool::set_global_threads(0);  // restore SATD_THREADS / hw default
  EXPECT_GE(ThreadPool::global_threads(), 1u);
}

TEST(ThreadPool, NullJobRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ParseThreadEnvAcceptsPositiveIntegers) {
  EXPECT_EQ(ThreadPool::parse_thread_env("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_env("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_env("4096"), 4096u);
}

TEST(ThreadPool, ParseThreadEnvRejectsNonPositive) {
  // 0 = "fall back to the hardware default" for every malformed value.
  EXPECT_EQ(ThreadPool::parse_thread_env("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_env("-3"), 0u);
}

TEST(ThreadPool, ParseThreadEnvRejectsNonNumeric) {
  EXPECT_EQ(ThreadPool::parse_thread_env(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_env(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_env("four"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_env("4cores"), 0u);  // trailing garbage
  EXPECT_EQ(ThreadPool::parse_thread_env("3.5"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_env(" 4 "), 0u);
}

TEST(ThreadPool, ParseThreadEnvRejectsAbsurdValues) {
  EXPECT_EQ(ThreadPool::parse_thread_env("4097"), 0u);  // above the cap
  EXPECT_EQ(ThreadPool::parse_thread_env("99999999999999999999"), 0u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleIteration) {
  std::atomic<int> calls{0};
  parallel_for(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, GrainCoversEveryIndexExactlyOnce) {
  ThreadPool::set_global_threads(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
    EXPECT_TRUE(end - begin >= 64 || end == hits.size());
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, BelowGrainRunsAsSingleInlineChunk) {
  std::atomic<int> calls{0};
  parallel_for(100, 1000, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, NestedCallRunsInlineInsteadOfDeadlocking) {
  ThreadPool::set_global_threads(4);
  std::atomic<int> inner_total{0};
  parallel_for(8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // A nested parallel_for on a worker thread must degrade to inline
      // execution (a single body(0, n) call), not wait on the pool.
      parallel_for(10, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
  ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, NestedCallFromCallingThreadRunsInline) {
  ThreadPool::set_global_threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inner_calls{0};
  std::atomic<bool> split_or_moved{false};
  parallel_for(4, [&](std::size_t begin, std::size_t) {
    if (begin != 0) return;
    // Chunk 0 runs on the calling thread. Its nested call must run there
    // too, as one body(0, n), exactly as it would on a worker.
    parallel_for(1000, [&](std::size_t b, std::size_t e) {
      inner_calls.fetch_add(1);
      if (std::this_thread::get_id() != caller || b != 0 || e != 1000) {
        split_or_moved = true;
      }
    });
  });
  EXPECT_EQ(inner_calls.load(), 1);
  EXPECT_FALSE(split_or_moved.load());
  ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, RethrowsAChunkExceptionAfterEveryChunkFinishes) {
  ThreadPool::set_global_threads(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(4,
                            [&](std::size_t begin, std::size_t) {
                              if (begin == 3) {
                                throw std::runtime_error("chunk 3");
                              }
                              finished.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::vector<long> data(10000);
  std::iota(data.begin(), data.end(), 0L);
  std::atomic<long> total{0};
  parallel_for(data.size(), [&](std::size_t begin, std::size_t end) {
    long local = 0;
    for (std::size_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 10000L * 9999L / 2);
}

}  // namespace
}  // namespace satd
