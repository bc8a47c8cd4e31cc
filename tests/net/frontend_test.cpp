// Front-end tests over real unix/TCP sockets: request/response flow,
// ephemeral-port binds, typed rejects for malformed and oversized
// frames, the slow-loris read deadline, the connection limit, pipelined
// requests on one connection, cancellation of requests abandoned by a
// dying connection, and completion wakeups (a response goes out when its
// ticket is answered, and a hook that fires after stop() writes no
// closed descriptor).
#include "net/frontend.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/fault.h"
#include "nn/zoo.h"
#include "serve/server.h"

namespace satd::net {
namespace {

Tensor tiny_image() { return Tensor::full(Shape{2, 2}, 0.5f); }

env::ListenAddress unix_addr(const std::string& name) {
  env::ListenAddress a;
  a.kind = env::ListenAddress::Kind::kUnix;
  a.path = testing::TempDir() + name;
  return a;
}

/// Sink that serves instantly: predicted = number of pixels, model
/// version 7. Good enough to prove bytes flow end to end.
FrontEndSink instant_sink() {
  FrontEndSink sink;
  sink.submit = [](const Tensor& image, double, std::uint64_t,
                   std::uint32_t* shard_out, std::uint64_t* id_out) {
    if (shard_out) *shard_out = 0;
    if (id_out) *id_out = 0;
    serve::Response r;
    r.predicted = image.numel();
    r.model_version = 7;
    r.probabilities = {0.25f, 0.75f};
    return serve::resolved_ticket(std::move(r));
  };
  return sink;
}

ClientConfig client_for(const env::ListenAddress& addr) {
  ClientConfig cfg;
  cfg.endpoints = {addr};
  cfg.connect_timeout = 2.0;
  cfg.request_timeout = 5.0;
  cfg.max_attempts = 2;
  return cfg;
}

/// Writes raw bytes (test-side; blocking with a coarse deadline).
void send_raw(const Fd& fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::write(fd.get(), bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        << std::strerror(errno);
    pollfd pfd{fd.get(), POLLOUT, 0};
    ::poll(&pfd, 1, 100);
  }
}

/// Reads until a frame or EOF; returns false on EOF/deadline.
bool recv_frame(const Fd& fd, FrameDecoder& dec, FrameType& type,
                std::string& payload, double deadline_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_s);
  for (;;) {
    if (dec.next(type, payload)) return true;
    if (dec.error() != WireError::kNone) return false;
    if (std::chrono::steady_clock::now() > deadline) return false;
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n == 0) return false;
    if (n > 0) dec.feed(buf, static_cast<std::size_t>(n));
  }
}

/// True once read() observes EOF (server closed the connection).
bool await_eof(const Fd& fd, double deadline_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_s);
  char buf[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // reset counts as closed
    }
  }
  return false;
}

TEST(FrontEnd, ServesARequestOverAUnixSocket) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_unix.sock");
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  Client client(client_for(cfg.listen));
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.predicted, 4u);
  EXPECT_EQ(r.model_version, 7u);
  EXPECT_EQ(r.attempts, 1u);
  ASSERT_EQ(r.probabilities.size(), 2u);
  EXPECT_FLOAT_EQ(r.probabilities[1], 0.75f);

  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.responses, 1u);
  fe.stop();
}

TEST(FrontEnd, BindsAnEphemeralTcpPort) {
  FrontEndConfig cfg;
  cfg.listen.kind = env::ListenAddress::Kind::kTcp;
  cfg.listen.host = "127.0.0.1";
  cfg.listen.port = 0;
  FrontEnd fe(cfg, instant_sink());
  fe.start();
  ASSERT_GT(fe.port(), 0);

  env::ListenAddress resolved = cfg.listen;
  resolved.port = fe.port();
  Client client(client_for(resolved));
  const ClientResult r = client.request(tiny_image());
  EXPECT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  fe.stop();
}

TEST(FrontEnd, MalformedStreamEarnsTypedRejectAndClose) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_malformed.sock");
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  std::string err;
  Fd fd = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(fd.valid()) << err;
  send_raw(fd, "GET / HTTP/1.1\r\n\r\n");

  FrameDecoder dec;
  FrameType type;
  std::string payload;
  ASSERT_TRUE(recv_frame(fd, dec, type, payload));
  ASSERT_EQ(type, FrameType::kReject);
  RejectFrame rej;
  ASSERT_TRUE(decode_reject(payload, rej, err));
  EXPECT_EQ(rej.code, WireReject::kMalformed);
  EXPECT_TRUE(await_eof(fd));
  EXPECT_GE(fe.stats().wire_errors, 1u);
  fe.stop();
}

TEST(FrontEnd, OversizedFrameEarnsTooLargeReject) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_oversized.sock");
  cfg.max_payload = 32;  // below even a 1-pixel request's 40-byte payload
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  std::string err;
  Fd fd = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(fd.valid()) << err;
  RequestFrame req;
  req.request_id = 1;
  req.image = tiny_image();
  send_raw(fd, encode_request(req));

  FrameDecoder dec;
  FrameType type;
  std::string payload;
  ASSERT_TRUE(recv_frame(fd, dec, type, payload));
  ASSERT_EQ(type, FrameType::kReject);
  RejectFrame rej;
  ASSERT_TRUE(decode_reject(payload, rej, err));
  EXPECT_EQ(rej.code, WireReject::kTooLarge);
  EXPECT_TRUE(await_eof(fd));
  fe.stop();
}

TEST(FrontEnd, SlowLorisMidFrameConnectionIsClosed) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_loris.sock");
  cfg.read_deadline = 0.05;
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  std::string err;
  Fd fd = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(fd.valid()) << err;
  const std::string frame = encode_request([] {
    RequestFrame r;
    r.request_id = 1;
    r.image = tiny_image();
    return r;
  }());
  // Half a frame, then silence: the read deadline must kill us.
  send_raw(fd, frame.substr(0, frame.size() / 2));
  EXPECT_TRUE(await_eof(fd));
  EXPECT_GE(fe.stats().slow_loris, 1u);

  // An IDLE connection (no partial frame) must NOT be reaped.
  Fd idle = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(idle.valid()) << err;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  send_raw(idle, frame);
  FrameDecoder dec;
  FrameType type;
  std::string payload;
  EXPECT_TRUE(recv_frame(idle, dec, type, payload));
  EXPECT_EQ(type, FrameType::kResponse);
  fe.stop();
}

TEST(FrontEnd, ConnectionLimitGetsOverloadedReject) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_limit.sock");
  cfg.max_connections = 1;
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  std::string err;
  Fd first = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(first.valid()) << err;
  // Prove the first connection is actually registered before the second
  // arrives (a fresh accept joins the poll set on the loop's next pass).
  {
    RequestFrame req;
    req.request_id = 1;
    req.image = tiny_image();
    send_raw(first, encode_request(req));
    FrameDecoder dec;
    FrameType type;
    std::string payload;
    ASSERT_TRUE(recv_frame(first, dec, type, payload));
  }

  Fd second = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(second.valid()) << err;
  FrameDecoder dec;
  FrameType type;
  std::string payload;
  ASSERT_TRUE(recv_frame(second, dec, type, payload));
  ASSERT_EQ(type, FrameType::kReject);
  RejectFrame rej;
  ASSERT_TRUE(decode_reject(payload, rej, err));
  EXPECT_EQ(rej.code, WireReject::kOverloaded);
  EXPECT_TRUE(await_eof(second));
  fe.stop();
}

TEST(FrontEnd, PipelinedRequestsAllComplete) {
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_pipeline.sock");
  FrontEnd fe(cfg, instant_sink());
  fe.start();

  std::string err;
  Fd fd = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(fd.valid()) << err;
  std::string burst;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    RequestFrame req;
    req.request_id = id;
    req.image = tiny_image();
    burst += encode_request(req);
  }
  send_raw(fd, burst);

  FrameDecoder dec;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3; ++i) {
    FrameType type;
    std::string payload;
    ASSERT_TRUE(recv_frame(fd, dec, type, payload));
    ASSERT_EQ(type, FrameType::kResponse);
    ResponseFrame resp;
    ASSERT_TRUE(decode_response(payload, resp, err));
    seen.insert(resp.request_id);
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2, 3}));
  fe.stop();
}

TEST(FrontEnd, AbandonedConnectionCancelsItsPendingRequests) {
  // Sink that never resolves: the request parks in "pending" until the
  // client vanishes, at which point the cancel hook must fire.
  std::atomic<int> cancels{0};
  FrontEndSink sink;
  // The responder must outlive the ticket; park it in a shared_ptr.
  auto parked = std::make_shared<serve::Responder>();
  sink.submit = [parked](const Tensor&, double, std::uint64_t,
                         std::uint32_t* shard_out, std::uint64_t* id_out) {
    if (shard_out) *shard_out = 3;
    if (id_out) *id_out = 99;  // admitted: cancellable
    return parked->make_ticket();
  };
  sink.cancel = [&cancels](std::uint32_t shard, std::uint64_t id) {
    EXPECT_EQ(shard, 3u);
    EXPECT_EQ(id, 99u);
    cancels.fetch_add(1);
    return true;
  };

  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_cancel.sock");
  FrontEnd fe(cfg, sink);
  fe.start();

  {
    std::string err;
    Fd fd = connect_socket(cfg.listen, 2.0, err);
    ASSERT_TRUE(fd.valid()) << err;
    RequestFrame req;
    req.request_id = 5;
    req.image = tiny_image();
    send_raw(fd, encode_request(req));
    // Wait until the request is actually admitted before abandoning it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (fe.stats().requests < 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // fd closes here: the client walked away

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cancels.load() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "cancel hook never fired";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fe.stats().cancelled, 1u);
  fe.stop();
}

TEST(FrontEnd, ResponseGoesOutWhenItsBatchFinishesNotAtTheNextPoll) {
  // A real server answers on its worker thread, after the front end has
  // gone back to poll(). With a 2 s poll timeout, only the completion
  // wakeup can bring the response back in well under a second.
  serve::ModelRegistry registry;
  {
    Rng rng(3);
    nn::Sequential m = nn::zoo::build("mlp_small", rng);
    registry.publish("m", m, "mlp_small");
  }
  serve::ServerConfig scfg;
  scfg.model_name = "m";
  serve::Server server(registry, scfg);
  server.start();
  FrontEndSink sink;
  sink.submit = [&server](const Tensor& image, double timeout,
                          std::uint64_t, std::uint32_t* shard_out,
                          std::uint64_t* id_out) {
    if (shard_out) *shard_out = 0;
    return server.submit(image, timeout, id_out);
  };

  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_wakeup.sock");
  cfg.poll_interval = 2.0;
  FrontEnd fe(cfg, sink);
  fe.start();

  Client client(client_for(cfg.listen));
  const auto t0 = std::chrono::steady_clock::now();
  const ClientResult r =
      client.request(Tensor::full(Shape{1, 28, 28}, 0.5f));
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_LT(elapsed, 0.5);
  fe.stop();
  server.drain();
}

TEST(FrontEnd, AnswerAfterStopWritesNoClosedDescriptor) {
  // The ticket is answered only after stop(). Its completion hook must
  // touch the front end's own, still open eventfd: had stop() closed it,
  // one of the pipes opened below would now own its number, and the
  // hook's write would land there.
  auto parked = std::make_shared<serve::Responder>();
  FrontEndSink sink;
  sink.submit = [parked](const Tensor&, double, std::uint64_t,
                         std::uint32_t* shard_out, std::uint64_t* id_out) {
    if (shard_out) *shard_out = 0;
    if (id_out) *id_out = 0;  // nothing to cancel at close
    return parked->make_ticket();
  };
  FrontEndConfig cfg;
  cfg.listen = unix_addr("fe_late_answer.sock");
  FrontEnd fe(cfg, sink);
  fe.start();

  std::string err;
  Fd fd = connect_socket(cfg.listen, 2.0, err);
  ASSERT_TRUE(fd.valid()) << err;
  RequestFrame req;
  req.request_id = 1;
  req.image = tiny_image();
  send_raw(fd, encode_request(req));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fe.stats().requests < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fe.stop();

  std::vector<Fd> readers, writers;
  for (int i = 0; i < 16; ++i) {
    int ends[2];
    ASSERT_EQ(::pipe2(ends, O_NONBLOCK | O_CLOEXEC), 0);
    readers.emplace_back(ends[0]);
    writers.emplace_back(ends[1]);
  }
  parked->respond(serve::Response{});
  for (const Fd& r : readers) {
    char byte;
    EXPECT_EQ(::read(r.get(), &byte, 1), -1);
    EXPECT_EQ(errno, EAGAIN);
  }
}

}  // namespace
}  // namespace satd::net
