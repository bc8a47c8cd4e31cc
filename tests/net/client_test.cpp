// Client retry/backoff tests: typed terminal errors, the seeded-jitter
// backoff schedule replayed exactly on a FakeClock (via injected
// connect-refused faults — no real ports, no real waiting), endpoint
// failover, and the retry/terminal classification of rejects and serve
// errors.
#include "net/client.h"

#include <gtest/gtest.h>

#include <string>

#include "net/fault.h"
#include "net/frontend.h"

namespace satd::net {
namespace {

Tensor tiny_image() { return Tensor::full(Shape{2, 2}, 0.5f); }

env::ListenAddress unix_addr(const std::string& name) {
  env::ListenAddress a;
  a.kind = env::ListenAddress::Kind::kUnix;
  a.path = testing::TempDir() + name;
  return a;
}

env::ListenAddress tcp_addr(std::uint16_t port) {
  env::ListenAddress a;
  a.kind = env::ListenAddress::Kind::kTcp;
  a.host = "127.0.0.1";
  a.port = port;
  return a;
}

FrontEndSink instant_sink(serve::ServeError error = serve::ServeError::kNone) {
  FrontEndSink sink;
  sink.submit = [error](const Tensor& image, double, std::uint64_t,
                        std::uint32_t*, std::uint64_t*) {
    serve::Response r;
    r.error = error;
    r.predicted = image.numel();
    return serve::resolved_ticket(std::move(r));
  };
  return sink;
}

class ClientFaults : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }
};

TEST_F(ClientFaults, ExhaustedConnectsReturnTypedErrorWithBackoffSchedule) {
  // Every connect refused (injected): the client must consume exactly
  // max_attempts tries, sleeping the seeded Backoff schedule between
  // them — replayable to the jitter digit from (policy, seed).
  fault::arm_connect_refused(100);
  ClientConfig cfg;
  cfg.endpoints = {tcp_addr(1)};
  cfg.max_attempts = 4;
  cfg.backoff_seed = 1234;
  FakeClock clock;
  Client client(cfg, clock);
  const ClientResult r = client.request(tiny_image());

  EXPECT_EQ(r.error, ClientError::kConnectFailed);
  EXPECT_EQ(r.attempts, 4u);
  EXPECT_NE(r.detail.find("injected"), std::string::npos);

  Backoff reference(cfg.backoff, cfg.backoff_seed);
  ASSERT_EQ(clock.sleeps().size(), 3u);  // attempts 2..4 sleep first
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(clock.sleeps()[i], reference.delay(i)) << i;
  }
}

TEST_F(ClientFaults, BackoffScheduleIsSeedReproducible) {
  auto run = [](std::uint64_t seed) {
    fault::arm_connect_refused(100);
    ClientConfig cfg;
    cfg.endpoints = {tcp_addr(1)};
    cfg.max_attempts = 3;
    cfg.backoff_seed = seed;
    FakeClock clock;
    Client client(cfg, clock);
    client.request(Tensor::full(Shape{2, 2}, 0.5f));
    fault::disarm();
    return clock.sleeps();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST_F(ClientFaults, RefusedConnectFailsOverToTheLiveEndpoint) {
  FrontEndConfig fecfg;
  fecfg.listen = unix_addr("cl_failover.sock");
  FrontEnd fe(fecfg, instant_sink());
  fe.start();

  // Endpoint 0 refuses (injected, one shot); endpoint 1 is live.
  fault::arm_connect_refused(1);
  ClientConfig cfg;
  cfg.endpoints = {tcp_addr(1), fecfg.listen};
  cfg.max_attempts = 3;
  FakeClock clock;  // sleeps are instant; IO still real
  Client client(cfg, clock);
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(client.endpoint_cursor(), 1u);
  fe.stop();
}

TEST_F(ClientFaults, TooLargeRejectIsTerminalNotRetried) {
  FrontEndConfig fecfg;
  fecfg.listen = unix_addr("cl_toolarge.sock");
  fecfg.max_payload = 32;  // below even a 1-pixel request's 40-byte payload
  FrontEnd fe(fecfg, instant_sink());
  fe.start();

  ClientConfig cfg;
  cfg.endpoints = {fecfg.listen};
  cfg.max_attempts = 5;
  Client client(cfg);
  const ClientResult r = client.request(tiny_image());
  EXPECT_EQ(r.error, ClientError::kRejected);
  EXPECT_EQ(r.attempts, 1u);  // resending the same bytes cannot help
  EXPECT_NE(r.detail.find("too_large"), std::string::npos);
  fe.stop();
}

TEST_F(ClientFaults, TerminalServeErrorIsNotRetried) {
  FrontEndConfig fecfg;
  fecfg.listen = unix_addr("cl_nomodel.sock");
  FrontEnd fe(fecfg, instant_sink(serve::ServeError::kNoModel));
  fe.start();

  ClientConfig cfg;
  cfg.endpoints = {fecfg.listen};
  cfg.max_attempts = 5;
  Client client(cfg);
  const ClientResult r = client.request(tiny_image());
  EXPECT_EQ(r.error, ClientError::kServe);
  EXPECT_EQ(r.serve_error, serve::ServeError::kNoModel);
  EXPECT_EQ(r.attempts, 1u);
  fe.stop();
}

TEST_F(ClientFaults, TransientServeErrorIsRetriedUntilExhaustion) {
  FrontEndConfig fecfg;
  fecfg.listen = unix_addr("cl_full.sock");
  FrontEnd fe(fecfg, instant_sink(serve::ServeError::kQueueFull));
  fe.start();

  ClientConfig cfg;
  cfg.endpoints = {fecfg.listen};
  cfg.max_attempts = 3;
  FakeClock clock;
  Client client(cfg, clock);
  const ClientResult r = client.request(tiny_image());
  EXPECT_EQ(r.error, ClientError::kServe);
  EXPECT_EQ(r.serve_error, serve::ServeError::kQueueFull);
  EXPECT_EQ(r.attempts, 3u);  // kept trying: pressure is transient
  fe.stop();
}

TEST_F(ClientFaults, ConnectionReuseAcrossRequests) {
  FrontEndConfig fecfg;
  fecfg.listen = unix_addr("cl_reuse.sock");
  FrontEnd fe(fecfg, instant_sink());
  fe.start();

  ClientConfig cfg;
  cfg.endpoints = {fecfg.listen};
  Client client(cfg);
  for (int i = 0; i < 3; ++i) {
    const ClientResult r = client.request(tiny_image());
    ASSERT_TRUE(r.ok()) << r.detail;
    EXPECT_EQ(r.attempts, 1u);
  }
  // One connection served all three requests.
  EXPECT_EQ(fe.stats().accepted, 1u);
  fe.stop();
}

}  // namespace
}  // namespace satd::net
