// Deterministic single-threaded microbatcher tests on a FakeClock, with no
// arrival or service estimators wired in (so the window never waits):
// max_batch, deadline filtering, hot-swap at batch boundaries, and the
// batched == batch-of-1 bit-identity contract.
#include "serve/microbatcher.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "serve/registry.h"

namespace satd::serve {
namespace {

/// Everything one single-threaded batching test needs, on a FakeClock.
struct Harness {
  explicit Harness(BatchPolicy policy, QueueConfig qcfg = {})
      : queue(qcfg, stats, clock),
        batcher(registry, "m", queue, stats, clock, policy) {}

  ModelRegistry registry;
  FakeClock clock{0.0};
  ServerStats stats;
  RequestQueue queue;
  Microbatcher batcher;
};

BatchPolicy policy(std::size_t max_batch, double max_wait,
                   double poll = 0.0005) {
  BatchPolicy p;
  p.max_batch = max_batch;
  p.max_wait = max_wait;
  p.poll_interval = poll;
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

TEST(Microbatcher, StepOnEmptyQueueDoesNothing) {
  Harness h(policy(4, 0.001));
  publish(h.registry, 1);
  EXPECT_FALSE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());
}

TEST(Microbatcher, ServesASingleRequest) {
  Harness h(policy(4, 0.002));
  publish(h.registry, 1);
  const Tensor images = test_images(1);
  Ticket t = h.queue.submit(images.slice_row(0));

  ASSERT_TRUE(h.batcher.step());
  Response r = t.wait();
  EXPECT_EQ(r.error, ServeError::kNone);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_EQ(r.model_version, 1u);
  EXPECT_EQ(r.probabilities.size(), 10u);

  // The response matches a direct forward through the published model.
  nn::Sequential replica =
      ModelRegistry::instantiate(*h.registry.current("m"));
  Tensor batch(Shape{1, 1, 28, 28});
  batch.set_row(0, images.slice_row(0));
  const Tensor probs = nn::softmax(replica.forward(batch, false));
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(r.probabilities[k], probs[k]);
  }
}

TEST(Microbatcher, LoneRequestWithNoArrivalDataIsServedWithZeroSleeps) {
  // One request, a batch that can't fill, and nothing that predicts a
  // neighbour (no arrival or service data): the window closes at once
  // instead of waiting out max_wait for nobody.
  Harness h(policy(4, 0.002, 0.0005));
  publish(h.registry, 1);
  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());
  EXPECT_EQ(t.wait().batch_size, 1u);
}

TEST(Microbatcher, FullBatchClosesTheWindowEarly) {
  Harness h(policy(3, 10.0));  // a huge window that must NOT be waited out
  publish(h.registry, 1);
  const Tensor images = test_images(5);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 5; ++i) {
    tickets.push_back(h.queue.submit(images.slice_row(i)));
  }

  ASSERT_TRUE(h.batcher.step());
  EXPECT_TRUE(h.clock.sleeps().empty());  // filled instantly, no polling
  EXPECT_EQ(tickets[0].wait().batch_size, 3u);
  EXPECT_EQ(tickets[2].wait().batch_size, 3u);

  ASSERT_TRUE(h.batcher.step());  // the remaining two
  EXPECT_EQ(tickets[3].wait().batch_size, 2u);
  EXPECT_EQ(h.stats.snapshot().served, 5u);
  EXPECT_EQ(h.stats.snapshot().batches, 2u);
}

TEST(Microbatcher, BatchedIsBitIdenticalToBatchOfOne) {
  // The micro-batching contract: coalescing must not change a single
  // bit of any response. Serve six images in one batch and then the same
  // six individually; every probability must be exactly equal.
  const Tensor images = test_images(6);

  Harness batched(policy(8, 0.001));
  publish(batched.registry, 3);
  std::vector<Ticket> tb;
  for (std::size_t i = 0; i < 6; ++i) {
    tb.push_back(batched.queue.submit(images.slice_row(i)));
  }
  ASSERT_TRUE(batched.batcher.step());

  Harness single(policy(1, 0.0));
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

TEST(Microbatcher, ExpiredDeadlinesAreFilteredNotServed) {
  // Request A's deadline passes while it is queued (the worker was busy
  // elsewhere); it must resolve as kDeadlineMiss while B (no deadline) is
  // served normally.
  Harness h(policy(4, 0.004, 0.002));
  publish(h.registry, 1);
  const Tensor images = test_images(2);
  Ticket a = h.queue.submit(images.slice_row(0), /*deadline=*/0.003);
  Ticket b = h.queue.submit(images.slice_row(1));

  h.clock.advance(0.004);  // past A's deadline before the worker pops
  ASSERT_TRUE(h.batcher.step());
  Response ra = a.wait();
  EXPECT_EQ(ra.error, ServeError::kDeadlineMiss);
  EXPECT_TRUE(ra.probabilities.empty());
  Response rb = b.wait();
  EXPECT_EQ(rb.error, ServeError::kNone);
  EXPECT_EQ(rb.batch_size, 1u);  // the expired request is not in the batch
  EXPECT_EQ(h.stats.snapshot().deadline_misses, 1u);
  EXPECT_EQ(h.stats.snapshot().served, 1u);
}

TEST(Microbatcher, NoPublishedModelYieldsTypedError) {
  Harness h(policy(2, 0.0));
  Ticket t = h.queue.submit(test_images(1).slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(t.wait().error, ServeError::kNoModel);
  EXPECT_EQ(h.stats.snapshot().no_model, 1u);
}

TEST(Microbatcher, HotSwapLandsAtTheNextBatchBoundary) {
  Harness h(policy(2, 0.0));
  publish(h.registry, 1);
  const Tensor images = test_images(4);

  Ticket t1 = h.queue.submit(images.slice_row(0));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(t1.wait().model_version, 1u);
  EXPECT_EQ(h.batcher.replica_version(), 1u);

  publish(h.registry, 2);  // hot swap
  Ticket t2 = h.queue.submit(images.slice_row(1));
  ASSERT_TRUE(h.batcher.step());
  EXPECT_EQ(t2.wait().model_version, 2u);
  EXPECT_EQ(h.batcher.replica_version(), 2u);
}

TEST(Microbatcher, RunDrainsTheBacklogThenExits) {
  Harness h(policy(3, 0.001));
  publish(h.registry, 1);
  const Tensor images = test_images(7);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 7; ++i) {
    tickets.push_back(h.queue.submit(images.slice_row(i)));
  }
  h.queue.begin_drain();
  h.batcher.run();  // must serve all 7 and return
  for (Ticket& t : tickets) {
    EXPECT_EQ(t.wait().error, ServeError::kNone);
  }
  EXPECT_EQ(h.stats.snapshot().served, 7u);
  EXPECT_TRUE(h.queue.drained());
}

}  // namespace
}  // namespace satd::serve
