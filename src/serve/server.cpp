#include "serve/server.h"

#include "common/contract.h"

namespace satd::serve {

Server::Server(ModelRegistry& registry, ServerConfig config, Clock& clock)
    : registry_(registry),
      config_(std::move(config)),
      clock_(clock),
      service_(config_.batch.max_batch),
      queue_(
          [this] {
            QueueConfig qc = config_.queue;
            qc.expected_delay = [this] { return feasibility_horizon(); };
            return qc;
          }(),
          stats_, clock_) {
  SATD_EXPECT(config_.workers > 0, "server needs at least one worker");
  if (config_.enable_monitor) {
    monitor_ = std::make_unique<RobustnessMonitor>(
        registry_, config_.model_name, config_.monitor);
  }
}

Server::~Server() { drain(); }

double Server::feasibility_horizon() {
  // Expected coalescing wait at the current arrival rate plus the
  // predicted service time of the planned batch.
  return service_.expected_delay(arrivals_.expected_gap(),
                                 config_.batch.max_wait);
}

void Server::start() {
  if (started_) return;
  started_ = true;
  if (monitor_) monitor_->start();
  batchers_.reserve(config_.workers);
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    batchers_.push_back(std::make_unique<Microbatcher>(
        registry_, config_.model_name, queue_, stats_, clock_,
        config_.batch, monitor_.get(), &arrivals_, &service_));
    Microbatcher* b = batchers_.back().get();
    threads_.emplace_back([b] { b->run(); });
  }
}

Ticket Server::submit(const Tensor& image, double timeout,
                      std::uint64_t* id_out) {
  SATD_EXPECT(timeout >= 0.0, "timeout must be non-negative");
  const double now = clock_.now();
  // Every submit is offered load, admitted or not — the arrival-rate
  // estimate must see overload to predict it.
  arrivals_.observe_arrival(now);
  const double deadline = timeout > 0.0 ? now + timeout : 0.0;
  return queue_.submit(image, deadline, id_out);
}

void Server::drain() {
  queue_.begin_drain();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (monitor_) monitor_->stop();
  started_ = false;
}

}  // namespace satd::serve
