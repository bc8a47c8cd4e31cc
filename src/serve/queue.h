// Bounded MPMC request queue with deadline-aware admission control and a
// priority lane.
//
// Admission is where backpressure becomes *typed*: a submit against a full
// queue resolves immediately with kQueueFull, an absolute deadline that is
// already unmeetable resolves with kDeadlineInfeasible, and a queue that
// has begun draining resolves with kStopping. Clients therefore never
// block on an overloaded server and always learn *why* they were turned
// away.
//
// Feasibility is policy-aware: beyond the static min_slack, the config can
// carry an expected_delay callback (installed by the Server from its live
// service-time/arrival estimators) so the horizon tracks what the batching
// window + forward pass will actually cost. A request that could only be
// served dead is rejected at admission — it never occupies a queue slot
// and never counts as a deadline miss.
//
// The priority lane: a request whose deadline slack at admission is below
// urgent_slack is marked urgent and queued ahead of the normal lane, so
// tight-deadline work is popped first and (in the adaptive batcher)
// preempts window forming instead of waiting behind it.
//
// Cancellation: every admitted request carries a queue-assigned id
// (returned through submit's optional out-param). cancel(id) removes a
// still-queued request outright — the slot is freed immediately, the
// ticket resolves with a typed kCancelled, and the batcher never stages
// it — so a client that disconnects mid-wait (the socket front end's
// bread and butter) cannot leak capacity or stall a window on work
// nobody will read. Cancelling a request that was already popped is a
// benign no-op: the batcher serves it into an abandoned future.
//
// Shutdown is drain-then-stop: begin_drain() closes admission but every
// already-admitted request stays poppable, so workers finish the backlog
// before exiting (drained() flips true only when draining AND empty).
//
// Waiting: a worker with nothing to do blocks in wait_for_work() on the
// queue's condition variable, which submit() and begin_drain() signal, so
// a request is popped when it arrives rather than at the end of a sleep.
// Time flows through an injected Clock — a timed wait included — so tests
// drive deadline semantics and batching windows with a FakeClock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>

#include "common/clock.h"
#include "serve/stats.h"
#include "serve/types.h"

namespace satd::serve {

/// Admission-control knobs.
struct QueueConfig {
  std::size_t capacity = 256;  ///< max admitted-but-unserved requests
  /// A deadline closer than now + min_slack + expected_delay() (seconds)
  /// is rejected as infeasible — the request could not clear the window
  /// and forward pass in time anyway. 0 with no expected_delay rejects
  /// only deadlines that have already passed.
  double min_slack = 0.0;
  /// Optional policy-provided feasibility horizon (seconds): the serving
  /// stack's current expected batching-window + service delay. Called
  /// under the queue mutex; must not call back into the queue.
  std::function<double()> expected_delay;
  /// Deadline slack below which an admitted request enters the priority
  /// lane (popped before the normal lane; preempts adaptive window
  /// forming). 0 disables the lane.
  double urgent_slack = 0.0;
};

/// Bounded multi-producer / multi-consumer queue (see file comment).
class RequestQueue {
 public:
  RequestQueue(QueueConfig config, ServerStats& stats, Clock& clock);

  /// Admits one image. `deadline` is an ABSOLUTE clock time (0 = none).
  /// On rejection the returned ticket is already resolved with the
  /// matching typed error and the image is not copied into the queue.
  /// When `id_out` is non-null and the request was ADMITTED it receives
  /// the admission id usable with cancel(); rejections write 0.
  Ticket submit(const Tensor& image, double deadline = 0.0,
                std::uint64_t* id_out = nullptr);

  /// Cancels a still-queued request: frees its slot, resolves its ticket
  /// with kCancelled and records the outcome. Returns false when the id
  /// is no longer queued (already popped, served, or never admitted) —
  /// that race is benign and the caller just drops its ticket.
  bool cancel(std::uint64_t id);

  /// Pops the oldest urgent request, else the oldest normal one.
  /// Non-blocking: returns false when empty.
  bool pop(Request& out);

  /// Blocks until a request is poppable or admission has closed, or —
  /// when `deadline` is finite — until the clock reaches it. Returns
  /// false once drained(): nothing is queued and nothing more will be
  /// admitted.
  bool wait_for_work(
      double deadline = std::numeric_limits<double>::infinity());

  std::size_t depth() const;

  /// Closes admission; the backlog remains poppable.
  void begin_drain();

  bool draining() const;

  /// True once draining AND the backlog is empty — workers may exit.
  bool drained() const;

 private:
  QueueConfig config_;
  ServerStats& stats_;
  Clock& clock_;
  mutable std::mutex mutex_;
  std::condition_variable work_;  ///< signalled by submit and begin_drain
  std::deque<Request> urgent_;  ///< priority lane (popped first)
  std::deque<Request> queue_;
  std::uint64_t next_id_ = 1;   ///< admission ids (0 = invalid)
  bool draining_ = false;
};

}  // namespace satd::serve
