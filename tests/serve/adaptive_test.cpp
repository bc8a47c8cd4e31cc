// The SLO-aware adaptive batching window, pinned exactly on a FakeClock:
// every window-close decision reads only the injected clock and the
// deterministic estimators, and every timed wait is one recorded sleep,
// so scripted arrival patterns (burst, trickle, bimodal mid-window
// arrivals) must produce exact sleep counts and batch compositions. Also:
// priority-lane preemption, deadline pressure, estimator reset through a
// hot swap, and the bit-identity contract with the estimators wired in
// (single-threaded and at 1/2/4 workers).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "serve/estimator.h"
#include "serve/microbatcher.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace satd::serve {
namespace {

/// Everything one single-threaded adaptive batching test needs, on a
/// FakeClock starting at t = 10.0. Arrival/service estimators are
/// exposed so tests script the load model exactly; the FakeClock forward
/// pass takes zero time, so service curves are seeded by hand.
struct AdaptiveHarness {
  explicit AdaptiveHarness(BatchPolicy policy, QueueConfig qcfg = {})
      : queue(qcfg, stats, clock),
        service(policy.max_batch),
        batcher(registry, "m", queue, stats, clock, policy,
                /*monitor=*/nullptr, &arrivals, &service) {}

  ModelRegistry registry;
  FakeClock clock{10.0};
  ServerStats stats;
  RequestQueue queue;
  ArrivalEstimator arrivals;
  ServiceTimeEstimator service;
  Microbatcher batcher;
};

/// max_batch 4, hard cap 10 ms, 1 ms poll quanta.
BatchPolicy adaptive_policy(std::size_t max_batch = 4) {
  BatchPolicy p;
  p.max_batch = max_batch;
  p.max_wait = 0.01;
  p.poll_interval = 0.001;
  return p;
}

Tensor test_images(std::size_t n) {
  data::SyntheticConfig cfg;
  cfg.train_size = n;
  cfg.test_size = 1;
  return data::make_synthetic_digits(cfg).train.images;
}

void publish(ModelRegistry& registry, std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential m = nn::zoo::build("mlp_small", rng);
  registry.publish("m", m, "mlp_small");
}

/// Seeds the canonical scripted load model: 1 ms arrival gap (last
/// arrival at t = 10.0) and a sublinear measured service curve
/// s(1) = 4 ms, s(2) = 5 ms on model version 1.
void seed_fast_arrivals_sublinear_service(AdaptiveHarness& h) {
  h.arrivals.observe_arrival(9.999);
  h.arrivals.observe_arrival(10.0);
  h.service.observe(1, 1, 0.004);
  h.service.observe(1, 2, 0.005);
}

TEST(Adaptive, TrickleClosesImmediatelyInsteadOfWaitingOutTheWindow) {
  // The inversion a fixed window had: under a 50 ms arrival gap it waited
  // out all of max_wait for nobody. The adaptive window predicts the next
  // arrival beyond the cap and serves the lone request with ZERO sleeps.
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  h.arrivals.observe_arrival(9.95);
  h.arrivals.observe_arrival(10.0);  // gap 50 ms >> max_wait 10 ms
  h.service.observe(1, 1, 0.004);
  h.service.observe(1, 2, 0.005);

  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());
  EXPECT_EQ(t.wait().batch_size, 1u);
}

TEST(Adaptive, NoArrivalDataNeverWaits) {
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  h.service.observe(1, 1, 0.004);
  h.service.observe(1, 2, 0.005);
  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());
  EXPECT_EQ(t.wait().batch_size, 1u);
}

TEST(Adaptive, NoServiceModelNeverWaits) {
  // An unmeasured model must not be speculated about: even with fast
  // arrivals the window closes immediately until a cost curve exists.
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  h.arrivals.observe_arrival(9.999);
  h.arrivals.observe_arrival(10.0);
  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());
  EXPECT_EQ(t.wait().batch_size, 1u);
}

TEST(Adaptive, BurstFillsTheBatchWithoutSleeping) {
  AdaptiveHarness h(adaptive_policy(/*max_batch=*/4));
  publish(h.registry, 1);
  const Tensor images = test_images(6);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 6; ++i) {
    tickets.push_back(h.queue.submit(images.slice_row(i)));
  }
  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());  // filled instantly from backlog
  EXPECT_EQ(tickets[0].wait().batch_size, 4u);
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(tickets[4].wait().batch_size, 2u);
}

TEST(Adaptive, WaitsExactlyWhileGoodputIsPredictedToImprove) {
  // Bimodal script: request A arrives alone; B arrives one poll quantum
  // later (injected from the FakeClock sleep hook). With s(1)=4 ms,
  // s(2)=5 ms and a 1 ms gap the goodput rule says waiting for B pays
  // ((b+1)·s(b) > b·(w+s(b+1))); after B the extrapolated s(3)=6 ms
  // keeps the window open until the aged arrival estimate (no third
  // request comes) tips the rule at w = 2 ms. Exact trace: sleeps at
  // t=10.000, 10.001, 10.002, close at 10.003, serve {A,B}.
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  seed_fast_arrivals_sublinear_service(h);

  const Tensor images = test_images(2);
  Ticket a = h.queue.submit(images.slice_row(0));
  Ticket b;
  h.clock.set_on_sleep([&](double now) {
    if (now == 10.001) {
      b = h.queue.submit(images.slice_row(1));
      h.arrivals.observe_arrival(now);
    }
  });

  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(h.clock.sleeps().size(), 3u);
  EXPECT_EQ(a.wait().batch_size, 2u);
  EXPECT_EQ(b.wait().batch_size, 2u);
  EXPECT_EQ(h.stats.snapshot().batches, 1u);
}

TEST(Adaptive, UrgentRequestPreemptsWindowForming) {
  // Same load model as above — the window would hold for 3 quanta — but
  // the mid-window arrival carries a deadline inside urgent_slack. It
  // lands in the priority lane and ends window forming the moment it is
  // staged: exactly one sleep, then both are served together, in time.
  QueueConfig qcfg;
  qcfg.urgent_slack = 0.005;
  AdaptiveHarness h(adaptive_policy(), qcfg);
  publish(h.registry, 1);
  seed_fast_arrivals_sublinear_service(h);

  const Tensor images = test_images(2);
  Ticket a = h.queue.submit(images.slice_row(0));
  Ticket b;
  h.clock.set_on_sleep([&](double now) {
    if (now == 10.001) {
      b = h.queue.submit(images.slice_row(1), /*deadline=*/10.003);
      h.arrivals.observe_arrival(now);
    }
  });

  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(h.clock.sleeps().size(), 1u);  // preempted, not goodput-closed
  Response rb = b.wait();
  EXPECT_EQ(rb.error, ServeError::kNone);  // served, not expired
  EXPECT_EQ(rb.batch_size, 2u);
  EXPECT_EQ(a.wait().batch_size, 2u);
}

TEST(Adaptive, DeadlinePressureClosesBeforeAStagedDeadlineBusts) {
  // A staged request with deadline t=10.0055: with s(1)=4 ms, another
  // poll quantum would leave 10.001+0.001+0.004 > 10.0055 — the goodput
  // rule alone would keep waiting (the arrival model still promises a
  // neighbour), but deadline pressure closes after exactly one sleep and
  // the request is served alive. (The deadline sits half a quantum off
  // the tipping point so the comparison has a real margin, not 1 ulp.)
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  seed_fast_arrivals_sublinear_service(h);

  Ticket t = h.queue.submit(test_images(1).slice_row(0),
                            /*deadline=*/10.0055);
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(h.clock.sleeps().size(), 1u);
  Response r = t.wait();
  EXPECT_EQ(r.error, ServeError::kNone);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_EQ(h.stats.snapshot().deadline_misses, 0u);
}

TEST(Adaptive, ServiceCurveResetsOnHotSwap) {
  // The v1 cost curve must not outlive v1: serving one batch on v2
  // discards it (a new checkpoint has a new cost curve) and re-tags the
  // estimator with the new version.
  AdaptiveHarness h(adaptive_policy());
  publish(h.registry, 1);
  publish(h.registry, 2);  // hot swap to version 2 before any serving
  h.service.observe(1, 1, 0.004);  // stale v1 curve
  ASSERT_DOUBLE_EQ(h.service.predict(1), 0.004);

  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(t.wait().model_version, 2u);
  EXPECT_EQ(h.service.version(), 2u);
  // Only v2 data remains (the FakeClock batch measured 0 seconds).
  EXPECT_DOUBLE_EQ(h.service.predict(1), 0.0);
  EXPECT_DOUBLE_EQ(h.service.predict(4), 0.0);
}

TEST(Adaptive, BatchedIsBitIdenticalToBatchOfOne) {
  // The bit-identity contract survives the adaptive window: a burst
  // coalesced adaptively must equal the same six images served alone.
  const Tensor images = test_images(6);

  AdaptiveHarness batched(adaptive_policy(/*max_batch=*/8));
  publish(batched.registry, 3);
  std::vector<Ticket> tb;
  for (std::size_t i = 0; i < 6; ++i) {
    tb.push_back(batched.queue.submit(images.slice_row(i)));
  }
  ASSERT_TRUE(batched.batcher.step());

  AdaptiveHarness single(adaptive_policy(/*max_batch=*/1));
  publish(single.registry, 3);  // same seed -> same published model
  std::vector<Ticket> ts;
  for (std::size_t i = 0; i < 6; ++i) {
    ts.push_back(single.queue.submit(images.slice_row(i)));
  }
  for (std::size_t i = 0; i < 6; ++i) ASSERT_TRUE(single.batcher.step());

  for (std::size_t i = 0; i < 6; ++i) {
    Response rb = tb[i].wait();
    Response rs = ts[i].wait();
    ASSERT_EQ(rb.error, ServeError::kNone);
    ASSERT_EQ(rs.error, ServeError::kNone);
    EXPECT_EQ(rb.batch_size, 6u);
    EXPECT_EQ(rs.batch_size, 1u);
    EXPECT_EQ(rb.predicted, rs.predicted);
    ASSERT_EQ(rb.probabilities.size(), rs.probabilities.size());
    for (std::size_t k = 0; k < rb.probabilities.size(); ++k) {
      EXPECT_EQ(rb.probabilities[k], rs.probabilities[k])
          << "image " << i << " class " << k;
    }
  }
}

TEST(Adaptive, ServerBitIdenticalAtOneTwoFourWorkers) {
  // End-to-end (real clock, real threads): the adaptive server at 1/2/4
  // workers serves every request bit-identical to a lone forward pass —
  // the window only reshapes batch composition, never answers.
  data::SyntheticConfig dcfg;
  dcfg.train_size = 8;
  dcfg.test_size = 1;
  const Tensor pool = data::make_synthetic_digits(dcfg).train.images;

  ModelRegistry registry;
  publish(registry, 42);
  nn::Sequential replica =
      ModelRegistry::instantiate(*registry.current("m"));
  std::vector<std::vector<float>> expected(pool.shape()[0]);
  Tensor one(Shape{1, 1, 28, 28});
  for (std::size_t i = 0; i < pool.shape()[0]; ++i) {
    one.set_row(0, pool.slice_row(i));
    const Tensor probs = nn::softmax(replica.forward(one, false));
    expected[i].assign(probs.raw(), probs.raw() + probs.numel());
  }

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServerConfig cfg;
    cfg.model_name = "m";
    cfg.workers = workers;
    cfg.batch.max_batch = 4;
    cfg.batch.max_wait = 0.001;
    Server server(registry, cfg);
    server.start();

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

}  // namespace
}  // namespace satd::serve
