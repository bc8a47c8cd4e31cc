#include "common/clock.h"

#include <chrono>
#include <thread>

namespace satd {

double SystemClock::now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

void SystemClock::sleep_for(double seconds) {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void SystemClock::wait_until(std::condition_variable& cv,
                             std::unique_lock<std::mutex>& lock,
                             double deadline,
                             const std::function<bool()>& ready) {
  using namespace std::chrono;
  const auto since_origin =
      duration_cast<steady_clock::duration>(duration<double>(deadline));
  cv.wait_until(lock, steady_clock::time_point(since_origin), ready);
}

SystemClock& SystemClock::instance() {
  static SystemClock clock;
  return clock;
}

}  // namespace satd
