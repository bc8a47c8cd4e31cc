#include "serve/queue.h"

#include <utility>

#include "common/contract.h"

namespace satd::serve {

RequestQueue::RequestQueue(QueueConfig config, ServerStats& stats,
                           Clock& clock)
    : config_(std::move(config)), stats_(stats), clock_(clock) {
  SATD_EXPECT(config_.capacity > 0, "queue capacity must be positive");
  SATD_EXPECT(config_.min_slack >= 0.0, "min_slack must be non-negative");
  SATD_EXPECT(config_.urgent_slack >= 0.0,
              "urgent_slack must be non-negative");
}

Ticket RequestQueue::submit(const Tensor& image, double deadline,
                            std::uint64_t* id_out) {
  SATD_EXPECT(!image.empty(), "cannot serve an empty image");
  if (id_out) *id_out = 0;
  const double now = clock_.now();
  ServeError reject = ServeError::kNone;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t depth = urgent_.size() + queue_.size();
    // The feasibility horizon: static slack plus whatever the serving
    // policy currently expects window + service to cost. A request whose
    // deadline sits inside the horizon would be admitted only to expire.
    const double horizon =
        config_.min_slack +
        (config_.expected_delay ? config_.expected_delay() : 0.0);
    if (draining_) {
      reject = ServeError::kStopping;
    } else if (depth >= config_.capacity) {
      reject = ServeError::kQueueFull;
    } else if (deadline != 0.0 && deadline < now + horizon) {
      reject = ServeError::kDeadlineInfeasible;
    } else {
      Request req;
      req.image = image;
      req.id = next_id_++;
      req.submit_time = now;
      req.deadline = deadline;
      req.urgent = deadline != 0.0 && config_.urgent_slack > 0.0 &&
                   deadline - now < config_.urgent_slack;
      if (id_out) *id_out = req.id;
      Ticket ticket = req.responder.make_ticket();
      (req.urgent ? urgent_ : queue_).push_back(std::move(req));
      stats_.observe_queue_depth(depth + 1);
      lock.unlock();
      work_.notify_one();
      return ticket;
    }
  }
  stats_.record_error(reject);
  return rejected_ticket(reject);
}

bool RequestQueue::cancel(std::uint64_t id) {
  if (id == 0) return false;
  Request victim;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::deque<Request>* lane : {&urgent_, &queue_}) {
      for (auto it = lane->begin(); it != lane->end(); ++it) {
        if (it->id == id) {
          victim = std::move(*it);
          lane->erase(it);
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  if (!found) return false;
  // Resolve outside the lock: a waiter woken by respond() must never
  // contend with the queue mutex we still hold.
  stats_.record_error(ServeError::kCancelled);
  Response r;
  r.error = ServeError::kCancelled;
  r.latency = clock_.now() - victim.submit_time;
  victim.responder.respond(std::move(r));
  return true;
}

bool RequestQueue::pop(Request& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::deque<Request>& lane = urgent_.empty() ? queue_ : urgent_;
  if (lane.empty()) return false;
  out = std::move(lane.front());
  lane.pop_front();
  return true;
}

std::size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return urgent_.size() + queue_.size();
}

bool RequestQueue::wait_for_work(double deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto workable = [this] {
    return draining_ || !urgent_.empty() || !queue_.empty();
  };
  if (deadline < std::numeric_limits<double>::infinity()) {
    clock_.wait_until(work_, lock, deadline, workable);
  } else {
    work_.wait(lock, workable);
  }
  return !(draining_ && urgent_.empty() && queue_.empty());
}

void RequestQueue::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_.notify_all();
}

bool RequestQueue::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

bool RequestQueue::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ && urgent_.empty() && queue_.empty();
}

}  // namespace satd::serve
