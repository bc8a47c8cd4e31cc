// Injectable wall-clock abstraction for deadline supervision.
//
// The runtime supervisor (src/runtime) enforces watchdog deadlines and
// retry backoff in terms of a Clock so that tests can drive the whole
// deadline/backoff state machine with a FakeClock — deterministically and
// in microseconds — while production uses the monotonic system clock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace satd {

/// Monotonic time source plus a blocking sleep and a timed wait. `now()`
/// is in seconds from an arbitrary fixed origin; only differences are
/// meaningful.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double now() = 0;
  virtual void sleep_for(double seconds) = 0;
  /// Waits on `cv` until `ready()` holds or the clock reaches `deadline`
  /// (an absolute now() time). `lock` guards what `ready` reads; it is
  /// held on entry and on return and released while waiting.
  virtual void wait_until(std::condition_variable& cv,
                          std::unique_lock<std::mutex>& lock, double deadline,
                          const std::function<bool()>& ready) = 0;
};

/// Real clock: std::chrono::steady_clock, std::this_thread::sleep_for and
/// std::condition_variable::wait_until.
class SystemClock : public Clock {
 public:
  double now() override;
  void sleep_for(double seconds) override;
  void wait_until(std::condition_variable& cv,
                  std::unique_lock<std::mutex>& lock, double deadline,
                  const std::function<bool()>& ready) override;

  /// Shared process-wide instance (the supervisor's default).
  static SystemClock& instance();
};

/// Manually advanced clock for tests. sleep_for() advances time instantly
/// and records the requested duration so tests can assert the exact
/// backoff schedule a supervisor executed. wait_until() on a condition
/// that does not hold yet is a sleep to the deadline: it releases the
/// lock, records one sleep of deadline - now() (the on-sleep hook may
/// model an arrival meanwhile) and relocks, so a single-threaded test
/// steps through timed waits exactly.
class FakeClock : public Clock {
 public:
  explicit FakeClock(double start = 0.0) : now_(start) {}

  double now() override { return now_; }
  void sleep_for(double seconds) override {
    if (seconds > 0) now_ += seconds;
    sleeps_.push_back(seconds);
    if (on_sleep_) on_sleep_(now_);
  }
  void wait_until(std::condition_variable&,
                  std::unique_lock<std::mutex>& lock, double deadline,
                  const std::function<bool()>& ready) override {
    if (ready()) return;
    lock.unlock();
    sleep_for(deadline - now_);
    lock.lock();
  }

  /// Hook invoked after every sleep_for with the new time. Poll-loop
  /// tests (the spooler waits for children or for a farm slot) use it to
  /// model the outside world making progress while the supervisor
  /// sleeps — e.g. another invocation releasing a semaphore token.
  void set_on_sleep(std::function<void(double)> hook) {
    on_sleep_ = std::move(hook);
  }

  /// Moves time forward without recording a sleep (models work taking
  /// wall-clock time inside a job).
  void advance(double seconds) { now_ += seconds; }

  /// Every duration passed to sleep_for(), in call order.
  const std::vector<double>& sleeps() const { return sleeps_; }

 private:
  double now_;
  std::vector<double> sleeps_;
  std::function<void(double)> on_sleep_;
};

}  // namespace satd
