// Fixed-size thread pool with a parallel_for helper.
//
// Heavy loops (GEMM row blocks, im2col over a batch, elementwise attack
// updates) are written against parallel_for so they transparently use
// however many cores the host offers. On a single-core machine the pool
// degrades to running the body inline on the calling thread (zero thread
// overhead), which keeps benchmarks honest.
//
// Determinism contract: parallel_for only *partitions* an index range;
// it never reorders the arithmetic inside a chunk, and every hot-path
// caller decomposes over independent output elements (never a reduction
// dimension). Results are therefore bit-identical for any thread count —
// the property tests/parallel/determinism_test.cpp pins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace satd {

/// Default minimum number of elementwise iterations per chunk: below
/// this, dispatching to the pool costs more than the loop body.
inline constexpr std::size_t kElementGrain = 1 << 14;

/// A fixed pool of worker threads executing submitted jobs FIFO.
class ThreadPool {
 public:
  /// Creates exactly `workers` worker threads. `workers == 0` yields a
  /// poolless, purely inline executor (submit runs the job on the
  /// calling thread).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (may be zero).
  std::size_t worker_count() const { return workers_.size(); }

  /// Submits a job; returns immediately.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished.
  void wait_idle();

  /// Shared process-wide pool (lazily constructed). The first call sizes
  /// it from the SATD_THREADS environment variable (total participating
  /// threads including the caller, so SATD_THREADS=1 means fully serial);
  /// unset or invalid falls back to hardware concurrency.
  static ThreadPool& global();

  /// Replaces the global pool so that `total` threads participate in
  /// parallel_for (the calling thread plus total-1 workers). `total == 0`
  /// restores the SATD_THREADS / hardware default. Must not be called
  /// while a parallel_for is in flight.
  static void set_global_threads(std::size_t total);

  /// Total threads the global pool brings to a parallel_for (workers+1).
  static std::size_t global_threads();

  /// Parses a SATD_THREADS-style value. Returns the total thread count
  /// for a well-formed positive integer; returns 0 — meaning "fall back
  /// to the hardware default" — for anything else (empty, non-numeric,
  /// trailing garbage, zero, negative, or out-of-range values), logging
  /// one warning describing the rejected text. Exposed so tests can pin
  /// the hardening without mutating the process environment.
  static std::size_t parse_thread_env(const char* text);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Splits [0, n) into chunks and runs `body(begin, end)` over them, using
/// the global pool plus the calling thread. Blocks until all chunks are
/// done, then rethrows the first exception a chunk threw. With no
/// workers — or when called from inside any chunk of another
/// parallel_for, on a worker or on the calling thread (nested
/// parallelism) — the body runs inline as body(0, n).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Grained variant: chunks are at least `grain` iterations, and when
/// n <= grain the body runs inline with no dispatch at all. Use this for
/// loops whose per-iteration cost is small relative to a pool handoff.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace satd
