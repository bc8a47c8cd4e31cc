#include "common/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/contract.h"
#include "common/log.h"

namespace {
// Far above any sane host; larger values are certainly typos (an extra
// digit) and would exhaust memory spawning threads.
constexpr long kMaxReasonableThreads = 4096;
}  // namespace

namespace satd {

namespace {

// Set while a thread runs a parallel_for chunk: always on a pool worker,
// and on the calling thread while it runs its own chunk. parallel_for
// checks it so nested parallelism degrades to inline execution instead
// of queueing behind (or deadlocking on) the outer chunks.
thread_local bool t_in_parallel_region = false;

/// Default worker count: SATD_THREADS (total threads incl. caller) wins,
/// else hardware concurrency; both leave one thread for the caller.
std::size_t default_workers() {
  if (const char* env = std::getenv("SATD_THREADS")) {
    const std::size_t total = ThreadPool::parse_thread_env(env);
    if (total > 0) return total - 1;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 0;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  SATD_EXPECT(job != nullptr, "null job");
  if (workers_.empty()) {
    job();  // inline executor on single-core hosts
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
    ++in_flight_;
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_workers());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t total) {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  slot.reset();  // join old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(total > 0 ? total - 1
                                                : default_workers());
}

std::size_t ThreadPool::global_threads() {
  return ThreadPool::global().worker_count() + 1;
}

std::size_t ThreadPool::parse_thread_env(const char* text) {
  if (text == nullptr || *text == '\0') {
    log::warn() << "SATD_THREADS is empty; using the hardware default";
    return 0;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    log::warn() << "SATD_THREADS=\"" << text
                << "\" is not a number; using the hardware default";
    return 0;
  }
  if (errno == ERANGE || v > kMaxReasonableThreads) {
    log::warn() << "SATD_THREADS=\"" << text
                << "\" is out of range; using the hardware default";
    return 0;
  }
  if (v < 1) {
    log::warn() << "SATD_THREADS=" << v
                << " must be >= 1 (total threads including the caller); "
                   "using the hardware default";
    return 0;
  }
  return static_cast<std::size_t>(v);
}

void ThreadPool::worker_loop() {
  t_in_parallel_region = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_job_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(n, 1, body);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (n <= grain || t_in_parallel_region) {
    body(0, n);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  const std::size_t parts = pool.worker_count() + 1;
  if (parts == 1) {
    body(0, n);
    return;
  }
  const std::size_t chunk =
      std::max(grain, (n + parts - 1) / parts);
  // The first exception any chunk throws is rethrown here once every
  // chunk has finished (the chunks reference `body` and the caller's
  // stack, so none may outlive this call).
  std::mutex error_mutex;
  std::exception_ptr error;
  auto run = [&body, &error_mutex, &error](std::size_t begin,
                                           std::size_t end) {
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  // Workers take chunks 1..k; the calling thread runs chunk 0 itself so
  // it is never idle while others work.
  for (std::size_t begin = chunk; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    pool.submit([&run, begin, end] { run(begin, end); });
  }
  t_in_parallel_region = true;  // run() never throws
  run(0, std::min(chunk, n));
  t_in_parallel_region = false;
  pool.wait_idle();
  if (error) std::rethrow_exception(error);
}

}  // namespace satd
