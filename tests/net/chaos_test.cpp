// Socket chaos drills: every armed wire-level fault must surface as a
// typed client error or a clean retry — never a crash, never a hang.
// Covers torn responses (server dies mid-write), CRC corruption in
// flight, silently dropped responses (client deadline), mid-conversation
// disconnects, and failover when a whole front end goes away abruptly
// (the in-process stand-in for the CI kill-9 drill).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/client.h"
#include "net/fault.h"
#include "net/frontend.h"
#include "temp_path.h"

namespace satd::net {
namespace {

Tensor tiny_image() { return Tensor::full(Shape{2, 2}, 0.5f); }

env::ListenAddress unix_addr(const std::string& name) {
  env::ListenAddress a;
  a.kind = env::ListenAddress::Kind::kUnix;
  a.path = testing::TempDir() + name;
  return a;
}

FrontEndSink instant_sink() {
  FrontEndSink sink;
  sink.submit = [](const Tensor& image, double, std::uint64_t,
                   std::uint32_t*, std::uint64_t*) {
    serve::Response r;
    r.predicted = image.numel();
    return serve::resolved_ticket(std::move(r));
  };
  return sink;
}

class SocketChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm();
    cfg_.listen = unix_addr(unique_test_name("chaos_fe") + ".sock");
    fe_ = std::make_unique<FrontEnd>(cfg_, instant_sink());
    fe_->start();
    ccfg_.endpoints = {cfg_.listen};
    ccfg_.max_attempts = 3;
    ccfg_.request_timeout = 0.5;  // drop-fault tests rely on this firing
  }
  void TearDown() override {
    fe_->stop();
    fault::disarm();
  }

  FrontEndConfig cfg_;
  ClientConfig ccfg_;
  std::unique_ptr<FrontEnd> fe_;
};

TEST_F(SocketChaos, TornResponseRetriesCleanly) {
  // The server "crashes" after 5 bytes of the response: the client sees
  // EOF inside a frame -> retryable connection loss -> attempt 2 wins.
  fault::arm_torn_response(5);
  Client client(ccfg_);
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(fe_->stats().faults_injected, 1u);
}

TEST_F(SocketChaos, CorruptResponseRetriesCleanly) {
  // One payload byte flipped in flight: the CRC trailer convicts the
  // frame, the stream is poisoned, and the retry succeeds.
  fault::arm_corrupt_response();
  Client client(ccfg_);
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.attempts, 2u);
}

TEST_F(SocketChaos, DroppedResponseTimesOutThenRetries) {
  // The server swallows the response but keeps the connection: only the
  // client's own read deadline can save it.
  fault::arm_drop_response();
  Client client(ccfg_);
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.attempts, 2u);
}

TEST_F(SocketChaos, DisconnectInsteadOfResponseRetriesCleanly) {
  fault::arm_disconnect_response();
  Client client(ccfg_);
  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_EQ(r.attempts, 2u);
}

TEST_F(SocketChaos, ExhaustedRetriesYieldTypedTimeoutNotAHang) {
  fault::arm_drop_response();
  ClientConfig cfg = ccfg_;
  cfg.max_attempts = 1;  // no second chance
  Client client(cfg);
  const ClientResult r = client.request(tiny_image());
  EXPECT_EQ(r.error, ClientError::kTimeout);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.detail.empty());
}

TEST_F(SocketChaos, EveryFaultInSequenceUnderOneClient) {
  // The full gauntlet on one client instance: each armed fault resolves
  // (typed or retried) and the next request starts clean.
  Client client(ccfg_);
  const fault::ResponseFault gauntlet[] = {
      fault::ResponseFault::kTorn, fault::ResponseFault::kCorrupt,
      fault::ResponseFault::kDrop, fault::ResponseFault::kDisconnect};
  for (const auto f : gauntlet) {
    switch (f) {
      case fault::ResponseFault::kTorn: fault::arm_torn_response(3); break;
      case fault::ResponseFault::kCorrupt: fault::arm_corrupt_response(); break;
      case fault::ResponseFault::kDrop: fault::arm_drop_response(); break;
      case fault::ResponseFault::kDisconnect:
        fault::arm_disconnect_response();
        break;
      default: break;
    }
    const ClientResult r = client.request(tiny_image());
    ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
    EXPECT_EQ(r.attempts, 2u) << "fault " << static_cast<int>(f);
  }
  EXPECT_FALSE(fault::armed());
}

TEST_F(SocketChaos, FrontEndVanishingMidStreamFailsOverToTheSurvivor) {
  // Two front ends; the one the client talks to first is destroyed
  // abruptly (connections die, listener gone — the in-process stand-in
  // for kill -9). The client must fail over and finish on the survivor.
  FrontEndConfig cfg2;
  cfg2.listen = unix_addr(unique_test_name("chaos_fe2") + ".sock");
  FrontEnd survivor(cfg2, instant_sink());
  survivor.start();

  ClientConfig cfg = ccfg_;
  cfg.endpoints = {cfg_.listen, cfg2.listen};
  cfg.max_attempts = 4;
  Client client(cfg);
  ASSERT_TRUE(client.request(tiny_image()).ok());
  EXPECT_EQ(client.endpoint_cursor(), 0u);

  fe_->stop();  // shard 0 is gone: cached connection now yields EOF

  const ClientResult r = client.request(tiny_image());
  ASSERT_TRUE(r.ok()) << to_string(r.error) << ": " << r.detail;
  EXPECT_GE(r.attempts, 2u);
  EXPECT_EQ(client.endpoint_cursor(), 1u);
  survivor.stop();
}

}  // namespace
}  // namespace satd::net
