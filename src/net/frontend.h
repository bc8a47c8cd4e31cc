// Socket front end: a single-threaded poll() event loop that speaks
// SATDWIRE1 and feeds the serving stack's admission queue.
//
// One thread, no thread-per-connection, no thread-per-request: the loop
// polls the listener, an eventfd and every connection, reads whatever
// bytes arrived, decodes complete request frames, and submits them
// through a Sink (the shard router adapts itself into one). Instead of
// parking a thread on each serve::Ticket, the loop gives every ticket a
// completion hook that writes the eventfd, so the poll() wakes when a
// batch finishes and the loop HARVESTS the answered tickets
// (Ticket::ready()) and writes their response frames at once. The hooks
// coalesce: at most one eventfd write per poll, and none while the loop
// is awake. The poll timeout is left as the period of the sink's tick()
// and of the slow-loris check. Responses interleave freely on a
// connection — request ids, not arrival order, correlate them.
//
// Robustness posture (drilled by tests/net/):
//   - Malformed input never crashes: framing damage poisons the decoder,
//     the client gets a typed reject frame, and the connection closes.
//   - Slow loris: a connection stalled MID-FRAME past read_deadline is
//     closed (idle connections between frames are fine — keep-alive).
//   - Backpressure: a connection whose write buffer exceeds
//     max_write_buffer stops being read until the peer drains it, so a
//     slow reader bounds its own memory, not the server's.
//   - Connection limit: accepts past max_connections are told
//     kOverloaded and closed.
//   - Abandoned work: when a connection dies with requests still queued,
//     the sink's cancel hook frees their queue slots (satellite of the
//     queue-cancellation path) — the server does not compute responses
//     nobody will read.
//   - Fault injection: before sending a response the loop consults
//     net::fault and applies the armed damage (torn write + close, CRC
//     corruption, drop, disconnect) — the chaos tests' server half.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/types.h"

namespace satd::net {

/// Front-end knobs.
struct FrontEndConfig {
  env::ListenAddress listen;       ///< where to bind (unix or tcp)
  double read_deadline = 5.0;      ///< max seconds stalled mid-frame
  std::size_t max_payload = kDefaultMaxPayload;
  std::size_t max_write_buffer = 4u << 20;  ///< backpressure cap per conn
  std::size_t max_connections = 64;
  double poll_interval = 0.001;    ///< tick()/slow-loris period (seconds)
};

/// Event-loop counters (atomics; readable while the loop runs).
struct FrontEndStats {
  std::uint64_t accepted = 0;      ///< connections accepted
  std::uint64_t closed = 0;        ///< connections closed (any reason)
  std::uint64_t requests = 0;      ///< request frames decoded + submitted
  std::uint64_t responses = 0;     ///< response frames written
  std::uint64_t rejects = 0;       ///< protocol reject frames written
  std::uint64_t wire_errors = 0;   ///< poisoned streams
  std::uint64_t slow_loris = 0;    ///< mid-frame read-deadline closes
  std::uint64_t cancelled = 0;     ///< pending requests cancelled at close
  std::uint64_t faults_injected = 0;  ///< armed faults applied
};

/// How the front end talks to the serving stack. A Sink decouples net/
/// from serve/: in production it wraps a ShardRouter, in tests it can be
/// three lambdas.
struct FrontEndSink {
  /// Submit one image; returns the ticket plus (optionally) the shard
  /// index and admission id for cancellation.
  std::function<serve::Ticket(const Tensor& image, double timeout,
                              std::uint64_t route_key,
                              std::uint32_t* shard_out,
                              std::uint64_t* id_out)>
      submit;
  /// Cancel a queued request (abandoned connection). May be null.
  std::function<bool(std::uint32_t shard, std::uint64_t id)> cancel;
  /// Called once per poll_interval (the router's rollout tick). May be
  /// null.
  std::function<void()> tick;
};

/// poll()-driven SATDWIRE1 server (see file comment).
class FrontEnd {
 public:
  FrontEnd(FrontEndConfig config, FrontEndSink sink,
           Clock& clock = SystemClock::instance());
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the listener and spawns the event-loop thread. Throws
  /// SocketError when the address cannot be bound. Idempotent.
  void start();

  /// Wakes and joins the loop, then closes the listener and every
  /// connection (cancelling their pending requests). Idempotent; runs
  /// from the dtor.
  void stop();

  /// Resolved TCP port (after start(); meaningful for port-0 binds).
  std::uint16_t port() const { return port_; }

  FrontEndStats stats() const;

 private:
  class Wakeup;

  struct Pending {
    std::uint64_t request_id = 0;   ///< wire id, echoed in the response
    serve::Ticket ticket;
    std::uint32_t shard = 0;
    std::uint64_t cancel_id = 0;    ///< admission id (0 = rejected)
  };

  struct Conn {
    Fd fd;
    FrameDecoder decoder;
    std::string outbuf;
    std::vector<Pending> pending;
    double last_read = 0.0;   ///< clock time of the last byte received
    bool closing = false;     ///< flush outbuf, then close
  };

  void run();
  void accept_new();
  /// Reads + decodes; returns false when the connection must die now.
  bool service_read(Conn& conn);
  void harvest(Conn& conn);
  /// Flushes outbuf; returns false when the connection must die now.
  bool flush(Conn& conn);
  void enqueue_reject(Conn& conn, std::uint64_t request_id, WireReject code,
                      const std::string& message);
  void close_conn(Conn& conn);

  FrontEndConfig config_;
  FrontEndSink sink_;
  Clock& clock_;
  Fd listener_;
  /// The loop's eventfd; completion hooks share it, so one that fires
  /// after stop() writes an open descriptor.
  std::shared_ptr<Wakeup> wake_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, requests_{0},
      responses_{0}, rejects_{0}, wire_errors_{0}, slow_loris_{0},
      cancelled_{0}, faults_{0};
};

}  // namespace satd::net
