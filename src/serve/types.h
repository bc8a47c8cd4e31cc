// Shared request/response vocabulary of the serving subsystem.
//
// Every outcome a client can observe is a Response carrying a typed
// ServeError, so backpressure (queue full), infeasible deadlines, shutdown
// and deadline misses are distinguishable programmatically — not stringly.
// Rejections resolve the client's Ticket immediately; accepted requests
// resolve when a serving worker completes (or expires) them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace satd::serve {

/// Typed outcome of a serve request.
enum class ServeError {
  kNone = 0,             ///< served successfully
  kQueueFull,            ///< rejected at admission: queue at capacity
  kDeadlineInfeasible,   ///< rejected at admission: deadline already unmeetable
  kStopping,             ///< rejected at admission: server draining/stopped
  kDeadlineMiss,         ///< admitted, but expired before a worker served it
  kNoModel,              ///< no model published under the served name
  kCancelled,            ///< admitted, then cancelled (client abandoned it)
};

/// Stable textual tag for logs and JSON (e.g. "queue_full").
const char* to_string(ServeError e);

/// What the client gets back for one image.
struct Response {
  ServeError error = ServeError::kNone;
  std::size_t predicted = 0;          ///< argmax class (valid when kNone)
  std::vector<float> probabilities;   ///< softmax row (valid when kNone)
  std::uint64_t model_version = 0;    ///< registry version that served it
  std::size_t batch_size = 0;         ///< size of the coalesced batch
  double latency = 0.0;               ///< seconds from submit to response
};

namespace detail {
struct TicketState;  ///< what a Ticket and its Responder share
}  // namespace detail

/// Client handle for one submitted request. wait() blocks until the
/// server answers it (rejections are answered at once). A completion hook
/// lets an event loop learn of the answer without polling: the socket
/// front end's hook wakes its poll().
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the response is available — wait() would not block.
  bool ready() const;

  /// Blocks for the response. One-shot: the ticket is invalid afterwards.
  Response wait();

  /// Runs `hook` once the response is available: at once, on this
  /// thread, if it already is; otherwise on the thread that answers the
  /// ticket, after wait() can return. One hook per ticket; it must not
  /// block or throw.
  void on_ready(std::function<void()> hook);

 private:
  friend class Responder;
  std::shared_ptr<detail::TicketState> state_;
};

/// The serving half of a Ticket: answers it exactly once. Move-only. A
/// responder destroyed unanswered answers kStopping, so no ticket waits
/// forever on a request that was dropped.
class Responder {
 public:
  Responder() = default;  ///< bound to no ticket
  Responder(Responder&& other) noexcept = default;
  Responder& operator=(Responder&& other) noexcept;
  ~Responder();

  /// Binds this responder to a new, unanswered ticket and returns it.
  Ticket make_ticket();

  /// Answers the ticket: wakes wait(), then runs the completion hook.
  void respond(Response response);

 private:
  void abandon();  ///< answers kStopping if still unanswered

  std::shared_ptr<detail::TicketState> state_;
};

/// One admitted unit of work inside the queue. Move-only (owns the
/// responder that answers the client's ticket).
struct Request {
  Tensor image;           ///< single example, e.g. [1, 28, 28]
  std::uint64_t id = 0;   ///< queue-assigned admission id (cancellation key)
  double submit_time = 0; ///< clock time at admission
  double deadline = 0;    ///< absolute clock time; 0 = no deadline
  bool urgent = false;    ///< priority lane (slack < queue urgent_slack)
  Responder responder;
};

/// Builds a ticket that is already answered with `response` (admission
/// rejections, and sinks that answer synchronously).
Ticket resolved_ticket(Response response);

/// A ticket already answered with the typed admission error `error`.
inline Ticket rejected_ticket(ServeError error) {
  Response r;
  r.error = error;
  return resolved_ticket(std::move(r));
}

}  // namespace satd::serve
