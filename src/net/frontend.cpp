#include "net/frontend.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/contract.h"
#include "common/log.h"
#include "net/fault.h"

namespace satd::net {

/// Wakes the loop's poll() when a ticket is answered. The loop sleeps
/// only in poll(); a hook writes the eventfd only if it finds the loop
/// asleep and first to do so, and otherwise just marks that the loop must
/// look again before it next sleeps.
class FrontEnd::Wakeup {
 public:
  Wakeup() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (!fd_.valid()) {
      throw SocketError(std::string("eventfd: ") + std::strerror(errno));
    }
  }

  int fd() const { return fd_.get(); }

  /// The completion hook (any thread).
  void notify() {
    if (state_.exchange(kNotified) == kAsleep) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = ::write(fd_.get(), &one, sizeof(one));
    }
  }

  /// Before poll(): false when a ticket was answered since the loop woke,
  /// so the poll must not block.
  bool sleep() { return state_.exchange(kAsleep) != kNotified; }

  /// After poll(): the loop is awake; clears the eventfd if it fired. The
  /// exchange also makes every answer a hook announced visible here.
  void wake(bool fired) {
    state_.exchange(kAwake);
    if (fired) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(fd_.get(), &count, sizeof(count));
    }
  }

 private:
  enum State { kAwake, kAsleep, kNotified };
  Fd fd_;
  std::atomic<State> state_{kAwake};
};

FrontEnd::FrontEnd(FrontEndConfig config, FrontEndSink sink, Clock& clock)
    : config_(std::move(config)), sink_(std::move(sink)), clock_(clock) {
  SATD_EXPECT(config_.listen.valid(), "front end needs a listen address");
  SATD_EXPECT(static_cast<bool>(sink_.submit), "front end needs a submit sink");
  SATD_EXPECT(config_.poll_interval > 0, "poll_interval must be positive");
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  if (started_) return;
  listener_ = listen_socket(config_.listen);
  if (config_.listen.kind == env::ListenAddress::Kind::kTcp) {
    port_ = local_port(listener_);
  }
  wake_ = std::make_shared<Wakeup>();
  stop_.store(false);
  started_ = true;
  loop_ = std::thread([this] { run(); });
  log::info() << "frontend: listening on " << to_string(config_.listen);
}

void FrontEnd::stop() {
  if (!started_) return;
  stop_.store(true);
  wake_->notify();
  if (loop_.joinable()) loop_.join();
  for (auto& c : conns_) close_conn(*c);
  conns_.clear();
  listener_.reset();
  wake_.reset();  // hooks of tickets still in flight keep it open
  started_ = false;
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats s;
  s.accepted = accepted_.load();
  s.closed = closed_.load();
  s.requests = requests_.load();
  s.responses = responses_.load();
  s.rejects = rejects_.load();
  s.wire_errors = wire_errors_.load();
  s.slow_loris = slow_loris_.load();
  s.cancelled = cancelled_.load();
  s.faults_injected = faults_.load();
  return s;
}

void FrontEnd::close_conn(Conn& conn) {
  if (!conn.fd.valid()) return;
  // Abandoned tickets: free the queue slots so the server does not
  // compute responses nobody will read. Cancel-after-pop is a benign
  // no-op (the worker serves into the dead ticket).
  for (const Pending& p : conn.pending) {
    if (p.cancel_id != 0 && sink_.cancel && sink_.cancel(p.shard, p.cancel_id)) {
      cancelled_.fetch_add(1);
    }
  }
  conn.pending.clear();
  conn.fd.reset();
  closed_.fetch_add(1);
}

void FrontEnd::enqueue_reject(Conn& conn, std::uint64_t request_id,
                              WireReject code, const std::string& message) {
  RejectFrame f;
  f.request_id = request_id;
  f.code = code;
  f.message = message;
  conn.outbuf += encode_reject(f);
  rejects_.fetch_add(1);
}

void FrontEnd::accept_new() {
  for (;;) {
    const int raw = ::accept(listener_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      log::warn() << "frontend: accept failed: " << std::strerror(errno);
      return;
    }
    Fd fd(raw);
    set_nonblocking(fd.get());
    accepted_.fetch_add(1);
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conn->decoder = FrameDecoder(config_.max_payload);
    conn->last_read = clock_.now();
    if (conns_.size() >= config_.max_connections) {
      // Over the limit: say why, flush, close. The reject frame makes
      // this distinguishable from a crash at the client.
      enqueue_reject(*conn, 0, WireReject::kOverloaded,
                     "connection limit reached");
      conn->closing = true;
    }
    conns_.push_back(std::move(conn));
  }
}

bool FrontEnd::service_read(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      conn.last_read = clock_.now();
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET and friends
  }

  FrameType type;
  std::string payload;
  while (conn.decoder.next(type, payload)) {
    if (type != FrameType::kRequest) {
      // Clients must not send response/reject frames; treat as protocol
      // abuse and close.
      enqueue_reject(conn, 0, WireReject::kMalformed,
                     "unexpected frame type from client");
      conn.closing = true;
      wire_errors_.fetch_add(1);
      return true;
    }
    RequestFrame req;
    std::string err;
    if (!decode_request(payload, req, err)) {
      enqueue_reject(conn, 0, WireReject::kMalformed, err);
      conn.closing = true;
      wire_errors_.fetch_add(1);
      return true;
    }
    Pending p;
    p.request_id = req.request_id;
    p.ticket = sink_.submit(req.image, req.timeout, req.route_key, &p.shard,
                            &p.cancel_id);
    p.ticket.on_ready([wake = wake_] { wake->notify(); });
    conn.pending.push_back(std::move(p));
    requests_.fetch_add(1);
  }
  if (conn.decoder.error() != WireError::kNone) {
    const WireReject code = conn.decoder.error() == WireError::kOversized
                                ? WireReject::kTooLarge
                                : WireReject::kMalformed;
    enqueue_reject(conn, 0, code, to_string(conn.decoder.error()));
    conn.closing = true;
    wire_errors_.fetch_add(1);
  }
  return true;
}

void FrontEnd::harvest(Conn& conn) {
  for (std::size_t i = 0; i < conn.pending.size();) {
    Pending& p = conn.pending[i];
    if (!p.ticket.ready()) {
      ++i;
      continue;
    }
    serve::Response resp = p.ticket.wait();
    ResponseFrame f;
    f.request_id = p.request_id;
    f.serve_error = static_cast<std::uint8_t>(resp.error);
    f.model_version = resp.model_version;
    f.predicted = static_cast<std::uint32_t>(resp.predicted);
    f.batch_size = static_cast<std::uint32_t>(resp.batch_size);
    f.shard = p.shard;
    f.latency = resp.latency;
    f.probabilities = std::move(resp.probabilities);
    std::string frame = encode_response(f);

    std::size_t torn = 0;
    switch (fault::take_response_fault(torn)) {
      case fault::ResponseFault::kNone:
        conn.outbuf += frame;
        responses_.fetch_add(1);
        break;
      case fault::ResponseFault::kTorn:
        // Server "crashes" mid-write: K bytes, then a hard close.
        faults_.fetch_add(1);
        conn.outbuf += frame.substr(0, std::min(torn, frame.size()));
        conn.closing = true;
        break;
      case fault::ResponseFault::kCorrupt: {
        // Damage one payload byte; the CRC trailer convicts it.
        faults_.fetch_add(1);
        frame[kHeaderBytes] = static_cast<char>(frame[kHeaderBytes] ^ 0x5a);
        conn.outbuf += frame;
        responses_.fetch_add(1);
        break;
      }
      case fault::ResponseFault::kDrop:
        // Swallow the response, keep the connection: the client's read
        // deadline is on its own.
        faults_.fetch_add(1);
        break;
      case fault::ResponseFault::kDisconnect:
        faults_.fetch_add(1);
        conn.closing = true;
        break;
    }
    conn.pending[i] = std::move(conn.pending.back());
    conn.pending.pop_back();
  }
}

bool FrontEnd::flush(Conn& conn) {
  while (!conn.outbuf.empty()) {
    // MSG_NOSIGNAL: a peer that vanished mid-flush must surface as EPIPE
    // here, not SIGPIPE the whole process.
    const ssize_t n = ::send(conn.fd.get(), conn.outbuf.data(),
                             conn.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // EPIPE/ECONNRESET: peer is gone
  }
  return true;
}

void FrontEnd::run() {
  std::vector<pollfd> pfds;
  const int quantum_ms =
      std::max(1, static_cast<int>(config_.poll_interval * 1000.0 + 0.5));
  double last_tick = clock_.now();
  while (!stop_.load()) {
    pfds.clear();
    pfds.push_back({listener_.get(), POLLIN, 0});
    pfds.push_back({wake_->fd(), POLLIN, 0});
    for (auto& c : conns_) {
      short events = 0;
      // Backpressure: a peer that will not drain its responses stops
      // being read, bounding outbuf at cap + one frame.
      if (!c->closing && c->outbuf.size() < config_.max_write_buffer) {
        events |= POLLIN;
      }
      if (!c->outbuf.empty()) events |= POLLOUT;
      pfds.push_back({c->fd.get(), events, 0});
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
           wake_->sleep() ? quantum_ms : 0);
    wake_->wake(pfds[1].revents & POLLIN);

    if (pfds[0].revents & POLLIN) accept_new();

    const double now = clock_.now();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      // pfds index i+2 only covers conns that existed when the poll set
      // was built; fresh accepts are serviced next time round.
      const short revents = i + 2 < pfds.size() ? pfds[i + 2].revents : 0;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
      if (alive && (revents & POLLIN)) alive = service_read(conn);
      if (alive && !conn.closing && conn.decoder.mid_frame() &&
          now - conn.last_read > config_.read_deadline) {
        // Slow loris: bytes of a frame arrived, then the stream stalled.
        slow_loris_.fetch_add(1);
        alive = false;
      }
      if (alive) {
        harvest(conn);
        alive = flush(conn);
      }
      if (alive && conn.closing && conn.outbuf.empty()) alive = false;
      if (!alive) close_conn(conn);
    }
    // Compact closed connections.
    for (std::size_t i = 0; i < conns_.size();) {
      if (!conns_[i]->fd.valid()) {
        conns_[i] = std::move(conns_.back());
        conns_.pop_back();
      } else {
        ++i;
      }
    }

    if (sink_.tick && now - last_tick >= config_.poll_interval) {
      sink_.tick();
      last_tick = now;
    }
  }
}

}  // namespace satd::net
