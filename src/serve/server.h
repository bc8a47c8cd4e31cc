// The inference server: worker threads around the queue/microbatcher
// core, plus optional robustness monitoring.
//
// Lifecycle: construct -> start() -> submit()* -> drain(). drain() closes
// admission (late submits get typed kStopping rejections), lets the
// workers finish the admitted backlog, joins them, and stops the monitor
// — no admitted request is ever dropped with an unresolved ticket. The
// destructor drains implicitly so a Server can never leak threads.
//
// Each worker owns a Microbatcher and through it a private replica of the
// published model; hot-swapping via the registry reaches workers at batch
// boundaries (see serve/registry.h for the swap protocol).
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "serve/estimator.h"
#include "serve/microbatcher.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/robustness_monitor.h"
#include "serve/stats.h"

namespace satd::serve {

/// Everything that shapes one server instance.
struct ServerConfig {
  std::string model_name = "default";  ///< registry name to serve
  std::size_t workers = 1;             ///< serving threads
  QueueConfig queue;                   ///< admission control
  BatchPolicy batch;                   ///< coalescing policy
  bool enable_monitor = false;         ///< robustness drift monitor
  MonitorConfig monitor;               ///< knobs when enabled
};

/// Multi-threaded micro-batching inference server (see file comment).
class Server {
 public:
  Server(ModelRegistry& registry, ServerConfig config,
         Clock& clock = SystemClock::instance());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the worker threads (and the monitor worker when enabled).
  /// Idempotent.
  void start();

  /// Submits one image. `timeout` is RELATIVE seconds (0 = no deadline);
  /// it becomes an absolute queue deadline against the server's clock.
  /// Never blocks: overload resolves the ticket immediately with a typed
  /// rejection. `id_out` (optional) receives the admission id usable
  /// with cancel(); 0 when the request was rejected.
  Ticket submit(const Tensor& image, double timeout = 0.0,
                std::uint64_t* id_out = nullptr);

  /// Cancels a still-queued request by admission id (see
  /// RequestQueue::cancel). Safe to race with serving: a request already
  /// popped is simply served into the abandoned ticket.
  bool cancel(std::uint64_t id) { return queue_.cancel(id); }

  /// Drain-then-stop: closes admission, serves the backlog, joins all
  /// workers. Idempotent; also runs from the destructor.
  void drain();

  ServerStats& stats() { return stats_; }
  RequestQueue& queue() { return queue_; }
  /// Live load/cost models feeding the batching window and the queue's
  /// feasibility horizon.
  ArrivalEstimator& arrivals() { return arrivals_; }
  ServiceTimeEstimator& service_model() { return service_; }
  /// Null unless enable_monitor was set.
  RobustnessMonitor* monitor() { return monitor_.get(); }

 private:
  /// Expected window + service delay; the queue adds it to min_slack
  /// when judging deadline feasibility.
  double feasibility_horizon();

  ModelRegistry& registry_;
  ServerConfig config_;
  Clock& clock_;
  ServerStats stats_;
  ArrivalEstimator arrivals_;
  ServiceTimeEstimator service_;
  RequestQueue queue_;
  std::unique_ptr<RobustnessMonitor> monitor_;
  std::vector<std::unique_ptr<Microbatcher>> batchers_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace satd::serve
