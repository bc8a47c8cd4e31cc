#include "serve/types.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/contract.h"

namespace satd::serve {

namespace detail {
struct TicketState {
  std::mutex mutex;
  std::condition_variable answered_cv;
  std::atomic<bool> answered{false};  ///< set under mutex, read lock-free
  Response response;                  ///< valid once answered
  std::function<void()> hook;         ///< completion hook, run once
};
}  // namespace detail

bool Ticket::ready() const {
  return state_ && state_->answered.load(std::memory_order_acquire);
}

Response Ticket::wait() {
  SATD_EXPECT(valid(), "wait() on an invalid ticket");
  std::shared_ptr<detail::TicketState> state = std::move(state_);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->answered_cv.wait(lock, [&] { return state->answered.load(); });
  return std::move(state->response);
}

void Ticket::on_ready(std::function<void()> hook) {
  SATD_EXPECT(valid(), "on_ready() on an invalid ticket");
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    SATD_EXPECT(!state_->hook, "a ticket takes one completion hook");
    if (!state_->answered.load()) {
      state_->hook = std::move(hook);
      return;
    }
  }
  hook();
}

Responder& Responder::operator=(Responder&& other) noexcept {
  if (this != &other) {
    abandon();
    state_ = std::move(other.state_);
  }
  return *this;
}

Responder::~Responder() { abandon(); }

void Responder::abandon() {
  if (state_ && !state_->answered.load()) {
    Response stopping;
    stopping.error = ServeError::kStopping;
    respond(std::move(stopping));
  }
}

Ticket Responder::make_ticket() {
  SATD_EXPECT(!state_, "a responder answers one ticket");
  state_ = std::make_shared<detail::TicketState>();
  Ticket ticket;
  ticket.state_ = state_;
  return ticket;
}

void Responder::respond(Response response) {
  SATD_EXPECT(state_ != nullptr, "respond() without a ticket");
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    SATD_EXPECT(!state_->answered.load(), "a ticket is answered once");
    state_->response = std::move(response);
    state_->answered.store(true, std::memory_order_release);
    hook = std::move(state_->hook);
  }
  state_->answered_cv.notify_all();
  if (hook) hook();
}

Ticket resolved_ticket(Response response) {
  Responder responder;
  Ticket ticket = responder.make_ticket();
  responder.respond(std::move(response));
  return ticket;
}

}  // namespace satd::serve
