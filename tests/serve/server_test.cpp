// Threaded end-to-end server tests (real SystemClock): bit-identical
// serving at 1/2/4 workers, graceful drain, typed overload rejection,
// hot-swap consistency under concurrent load, and wakeups: a request is
// served when it arrives, and no wakeup is lost.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/zoo.h"

namespace satd::serve {
namespace {

Tensor image_pool(std::size_t n) {
  data::SyntheticConfig cfg;
  cfg.train_size = n;
  cfg.test_size = 1;
  return data::make_synthetic_digits(cfg).train.images;
}

void publish_seeded(ModelRegistry& registry, const std::string& name,
                    std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential m = nn::zoo::build("mlp_small", rng);
  registry.publish(name, m, "mlp_small");
}

/// Reference softmax rows for every pool image, computed one-by-one on a
/// private replica — the ground truth every served response must equal
/// bit-for-bit.
std::vector<std::vector<float>> reference_probs(ModelRegistry& registry,
                                                const std::string& name,
                                                const Tensor& pool) {
  nn::Sequential replica =
      ModelRegistry::instantiate(*registry.current(name));
  const std::size_t n = pool.shape()[0];
  std::vector<std::vector<float>> out(n);
  Tensor batch(Shape{1, 1, 28, 28});
  for (std::size_t i = 0; i < n; ++i) {
    batch.set_row(0, pool.slice_row(i));
    const Tensor probs = nn::softmax(replica.forward(batch, false));
    out[i].assign(probs.raw(), probs.raw() + probs.numel());
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Server, BitIdenticalServingAtOneTwoFourWorkers) {
  const Tensor pool = image_pool(8);
  ModelRegistry registry;
  publish_seeded(registry, "m", 42);
  const auto expected = reference_probs(registry, "m", pool);

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerConfig cfg;
    cfg.model_name = "m";
    cfg.workers = workers;
    cfg.batch.max_batch = 4;
    cfg.batch.max_wait = 0.001;
    Server server(registry, cfg);
    server.start();

    // Concurrent clients so batches actually coalesce across requests.
    const std::size_t per_client = 24;
    std::vector<std::thread> clients;
    std::atomic<std::size_t> mismatches{0};
    for (std::size_t c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(100 + c);
        for (std::size_t i = 0; i < per_client; ++i) {
          const std::size_t idx = rng.uniform_index(pool.shape()[0]);
          Response r = server.submit(pool.slice_row(idx)).wait();
          if (r.error != ServeError::kNone ||
              r.probabilities != expected[idx]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.drain();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(server.stats().snapshot().served, 3 * per_client);
  }
}

TEST(Server, DrainResolvesEveryAdmittedTicket) {
  const Tensor pool = image_pool(4);
  ModelRegistry registry;
  publish_seeded(registry, "m", 1);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 2;
  cfg.queue.capacity = 1024;
  Server server(registry, cfg);
  server.start();

  // Fire-and-forget a backlog, then drain: every ticket must resolve as
  // served (capacity was never exceeded, no deadlines were set).
  std::vector<Ticket> tickets;
  Rng rng(3);
  for (std::size_t i = 0; i < 64; ++i) {
    tickets.push_back(
        server.submit(pool.slice_row(rng.uniform_index(pool.shape()[0]))));
  }
  server.drain();
  for (Ticket& t : tickets) {
    EXPECT_EQ(t.wait().error, ServeError::kNone);
  }
  EXPECT_EQ(server.stats().snapshot().served, 64u);

  // After drain, admission is closed with a typed rejection.
  EXPECT_EQ(server.submit(pool.slice_row(0)).wait().error,
            ServeError::kStopping);
}

TEST(Server, OverloadYieldsTypedRejectionsNotBlocking) {
  const Tensor pool = image_pool(4);
  ModelRegistry registry;
  publish_seeded(registry, "m", 2);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 1;
  cfg.queue.capacity = 8;  // 256 instant submits outpace the forwards
  Server server(registry, cfg);
  server.start();

  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 256; ++i) {
    tickets.push_back(server.submit(pool.slice_row(i % 4)));
  }
  std::size_t served = 0, rejected = 0;
  for (Ticket& t : tickets) {
    const Response r = t.wait();
    if (r.error == ServeError::kNone) {
      ++served;
    } else {
      ASSERT_EQ(r.error, ServeError::kQueueFull);
      ++rejected;
    }
  }
  server.drain();
  EXPECT_EQ(served + rejected, 256u);
  EXPECT_GT(rejected, 0u);  // 256 instant submits cannot all fit in 8 slots
  const StatsSnapshot s = server.stats().snapshot();
  EXPECT_EQ(s.served, served);
  EXPECT_EQ(s.rejected_full, rejected);
  EXPECT_LE(s.max_queue_depth, 8u);
}

TEST(Server, HotSwapUnderLoadNeverTearsAResponse) {
  // Two models with different weights; every response must carry the
  // probabilities of EXACTLY the version it reports — a response mixing
  // old and new weights (a torn swap) would match neither reference.
  const Tensor pool = image_pool(4);
  ModelRegistry registry;
  publish_seeded(registry, "m", 10);  // v1
  const auto probs_v1 = reference_probs(registry, "m", pool);
  {
    Rng rng(20);
    nn::Sequential v2 = nn::zoo::build("mlp_small", rng);
    ModelRegistry scratch;
    scratch.publish("m", v2, "mlp_small");
  }

  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 2;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait = 0.0005;
  Server server(registry, cfg);
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> checked{0};

  // Swapper: alternates v(odd) = seed 10 weights, v(even) = seed 20.
  std::thread swapper([&] {
    std::uint64_t flips = 0;
    while (!stop.load()) {
      publish_seeded(registry, "m", flips % 2 == 0 ? 20 : 10);
      ++flips;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // probs for seed-20 weights (they become even versions).
  ModelRegistry ref2;
  publish_seeded(ref2, "m", 20);
  const auto probs_v2 = reference_probs(ref2, "m", pool);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(300 + c);
      for (std::size_t i = 0; i < 40; ++i) {
        const std::size_t idx = rng.uniform_index(pool.shape()[0]);
        Response r = server.submit(pool.slice_row(idx)).wait();
        if (r.error != ServeError::kNone) continue;
        checked.fetch_add(1);
        // Odd versions carry seed-10 weights, even versions seed-20.
        const auto& want =
            r.model_version % 2 == 1 ? probs_v1[idx] : probs_v2[idx];
        if (r.probabilities != want) torn.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  swapper.join();
  server.drain();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(checked.load(), 120u);
}

TEST(Server, HopelessDeadlineIsRejectedAtAdmission) {
  // A measured batch-of-1 service time far longer than the timeout: the
  // request could only be served dead. The feasibility horizon (expected
  // window + predicted service) catches this AT ADMISSION — the request
  // is rejected kDeadlineInfeasible instead of being admitted, aged in
  // the queue, and counted as a deadline miss.
  const Tensor pool = image_pool(2);
  ModelRegistry registry;
  publish_seeded(registry, "m", 5);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 1;
  cfg.batch.max_batch = 16;
  cfg.batch.max_wait = 0.05;
  Server server(registry, cfg);
  // 50 ms per lone request on the published version. With no arrival
  // data the plan is to serve alone, so the horizon is that 50 ms.
  server.service_model().observe(registry.current("m")->version, 1, 0.05);
  server.start();

  Response r = server.submit(pool.slice_row(0), /*timeout=*/0.005).wait();
  EXPECT_EQ(r.error, ServeError::kDeadlineInfeasible);
  server.drain();
  const StatsSnapshot s = server.stats().snapshot();
  EXPECT_EQ(s.rejected_infeasible, 1u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.served, 0u);
}

TEST(Server, FeasibleDeadlineIsAdmittedAndServed) {
  // A timeout comfortably beyond the expected window + service must
  // clear the feasibility horizon and be served normally.
  const Tensor pool = image_pool(2);
  ModelRegistry registry;
  publish_seeded(registry, "m", 6);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 1;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait = 0.001;
  Server server(registry, cfg);
  server.start();

  Response r = server.submit(pool.slice_row(0), /*timeout=*/1.0).wait();
  EXPECT_EQ(r.error, ServeError::kNone);
  server.drain();
  EXPECT_EQ(server.stats().snapshot().served, 1u);
}

TEST(Server, LoneRequestIsNotHeldForMaxWait) {
  // max_wait is a cap, not a hold time: with nothing predicting a
  // neighbour, one request to an idle server is served when it arrives.
  const Tensor pool = image_pool(1);
  ModelRegistry registry;
  publish_seeded(registry, "m", 7);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.batch.max_wait = 1.0;
  Server server(registry, cfg);
  server.start();

  const auto t0 = std::chrono::steady_clock::now();
  const Response r = server.submit(pool.slice_row(0)).wait();
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(r.error, ServeError::kNone);
  EXPECT_LT(elapsed, 0.5);
  server.drain();
}

TEST(Server, SequentialRoundTripsNeverLoseAWakeup) {
  // Each submit finds the lone worker blocked idle on the queue, so every
  // round trip depends on submit's wakeup: a lost one hangs the test.
  const Tensor pool = image_pool(4);
  ModelRegistry registry;
  publish_seeded(registry, "m", 8);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 1;
  Server server(registry, cfg);
  server.start();

  std::size_t answered = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (server.submit(pool.slice_row(i % 4)).wait().error ==
        ServeError::kNone) {
      ++answered;
    }
  }
  server.drain();
  EXPECT_EQ(answered, 1000u);
  EXPECT_EQ(server.stats().snapshot().served, 1000u);
}

TEST(Server, DrainWakesAWorkerBlockedIdle) {
  ModelRegistry registry;
  publish_seeded(registry, "m", 9);
  ServerConfig cfg;
  cfg.model_name = "m";
  cfg.workers = 2;
  Server server(registry, cfg);
  server.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // idle

  const auto t0 = std::chrono::steady_clock::now();
  server.drain();
  EXPECT_LT(seconds_since(t0), 0.5);
}

}  // namespace
}  // namespace satd::serve
