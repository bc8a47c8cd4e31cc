// Admission-control semantics of the serve queue, driven on a FakeClock
// so deadline feasibility is exact.
#include "serve/queue.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace satd::serve {
namespace {

Tensor image() { return Tensor::full(Shape{1, 28, 28}, 0.5f); }

struct QueueHarness {
  explicit QueueHarness(QueueConfig cfg = {}) : queue(cfg, stats, clock) {}
  FakeClock clock{100.0};
  ServerStats stats;
  RequestQueue queue;
};

TEST(Queue, SubmitThenPopRoundTrips) {
  QueueHarness h;
  Ticket t = h.queue.submit(image());
  EXPECT_EQ(h.queue.depth(), 1u);

  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_EQ(h.queue.depth(), 0u);
  EXPECT_DOUBLE_EQ(req.submit_time, 100.0);
  EXPECT_DOUBLE_EQ(req.deadline, 0.0);

  Response r;
  r.predicted = 7;
  req.responder.respond(r);
  EXPECT_EQ(t.wait().predicted, 7u);
}

TEST(Queue, PopOnEmptyReturnsFalse) {
  QueueHarness h;
  Request req;
  EXPECT_FALSE(h.queue.pop(req));
}

TEST(Queue, FullQueueRejectsTyped) {
  QueueConfig cfg;
  cfg.capacity = 2;
  QueueHarness h(cfg);
  Ticket a = h.queue.submit(image());
  Ticket b = h.queue.submit(image());
  Ticket c = h.queue.submit(image());

  Response r = c.wait();  // resolves immediately
  EXPECT_EQ(r.error, ServeError::kQueueFull);
  EXPECT_EQ(h.queue.depth(), 2u);
  EXPECT_EQ(h.stats.snapshot().rejected_full, 1u);
}

TEST(Queue, PastDeadlineIsInfeasible) {
  QueueHarness h;  // clock at 100
  Ticket t = h.queue.submit(image(), /*deadline=*/99.0);
  EXPECT_EQ(t.wait().error, ServeError::kDeadlineInfeasible);
  EXPECT_EQ(h.queue.depth(), 0u);
  EXPECT_EQ(h.stats.snapshot().rejected_infeasible, 1u);
}

TEST(Queue, MinSlackExtendsTheFeasibilityHorizon) {
  QueueConfig cfg;
  cfg.min_slack = 0.5;
  QueueHarness h(cfg);  // clock at 100
  // 100.4 is in the future but closer than now + min_slack: infeasible.
  EXPECT_EQ(h.queue.submit(image(), 100.4).wait().error,
            ServeError::kDeadlineInfeasible);
  // 100.6 clears the horizon: admitted.
  Ticket ok = h.queue.submit(image(), 100.6);
  EXPECT_EQ(h.queue.depth(), 1u);
}

TEST(Queue, ZeroDeadlineMeansNoDeadline) {
  QueueConfig cfg;
  cfg.min_slack = 10.0;
  QueueHarness h(cfg);
  h.queue.submit(image(), 0.0);
  EXPECT_EQ(h.queue.depth(), 1u);
}

TEST(Queue, DrainClosesAdmissionButKeepsBacklogPoppable) {
  QueueHarness h;
  Ticket a = h.queue.submit(image());
  h.queue.begin_drain();
  EXPECT_TRUE(h.queue.draining());
  EXPECT_FALSE(h.queue.drained());  // backlog not yet served

  Ticket late = h.queue.submit(image());
  EXPECT_EQ(late.wait().error, ServeError::kStopping);
  EXPECT_EQ(h.stats.snapshot().rejected_stopping, 1u);

  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_TRUE(h.queue.drained());
}

TEST(Queue, ExpectedDelayExtendsTheFeasibilityHorizon) {
  // The policy horizon (expected window + service, supplied by the
  // server) adds to min_slack: a deadline that clears min_slack alone
  // but not min_slack + horizon is hopeless and must bounce at
  // admission, not age in the queue.
  QueueConfig cfg;
  cfg.min_slack = 0.1;
  cfg.expected_delay = [] { return 0.4; };
  QueueHarness h(cfg);  // clock at 100
  EXPECT_EQ(h.queue.submit(image(), 100.3).wait().error,
            ServeError::kDeadlineInfeasible);
  EXPECT_EQ(h.stats.snapshot().rejected_infeasible, 1u);
  Ticket ok = h.queue.submit(image(), 100.6);
  EXPECT_EQ(h.queue.depth(), 1u);
}

TEST(Queue, UrgentLanePopsBeforeOlderRelaxedRequests) {
  // A tight-deadline request submitted LAST must come out FIRST: the
  // priority lane bypasses the FIFO so the batcher stages urgent work
  // before window forming can starve it.
  QueueConfig cfg;
  cfg.urgent_slack = 1.0;
  QueueHarness h(cfg);  // clock at 100
  Ticket relaxed1 = h.queue.submit(image());              // no deadline
  Ticket relaxed2 = h.queue.submit(image(), 200.0);       // loose deadline
  Ticket urgent = h.queue.submit(image(), 100.5);         // slack 0.5 < 1.0

  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_TRUE(req.urgent);
  EXPECT_DOUBLE_EQ(req.deadline, 100.5);
  ASSERT_TRUE(h.queue.pop(req));  // then FIFO order resumes
  EXPECT_FALSE(req.urgent);
  EXPECT_DOUBLE_EQ(req.deadline, 0.0);
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_DOUBLE_EQ(req.deadline, 200.0);
  EXPECT_EQ(h.queue.depth(), 0u);
}

TEST(Queue, UrgentLaneDisabledByDefault) {
  QueueHarness h;  // urgent_slack = 0: nothing is ever urgent
  h.queue.submit(image(), 100.001);
  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_FALSE(req.urgent);
}

TEST(Queue, CancelFreesTheSlotAndResolvesTyped) {
  QueueConfig cfg;
  cfg.capacity = 1;
  QueueHarness h(cfg);
  std::uint64_t id = 0;
  Ticket t = h.queue.submit(image(), 0.0, &id);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(h.queue.depth(), 1u);

  EXPECT_TRUE(h.queue.cancel(id));
  EXPECT_EQ(h.queue.depth(), 0u);
  const Response r = t.wait();  // resolved, not hung
  EXPECT_EQ(r.error, ServeError::kCancelled);
  EXPECT_EQ(h.stats.snapshot().cancelled, 1u);

  // The freed slot is immediately reusable (the point of cancelling).
  Ticket again = h.queue.submit(image());
  EXPECT_EQ(h.queue.depth(), 1u);
  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  req.responder.respond(Response{});
  EXPECT_EQ(again.wait().error, ServeError::kNone);
}

TEST(Queue, CancelAfterPopIsABenignNoOp) {
  QueueHarness h;
  std::uint64_t id = 0;
  Ticket t = h.queue.submit(image(), 0.0, &id);
  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_FALSE(h.queue.cancel(id));  // already in flight
  Response r;
  r.predicted = 3;
  req.responder.respond(r);  // served into the (still live) ticket
  EXPECT_EQ(t.wait().predicted, 3u);
}

TEST(Queue, CancelUnknownIdReturnsFalse) {
  QueueHarness h;
  EXPECT_FALSE(h.queue.cancel(42));
  EXPECT_FALSE(h.queue.cancel(0));
}

TEST(Queue, CancelReachesTheUrgentLane) {
  QueueConfig cfg;
  cfg.urgent_slack = 10.0;
  QueueHarness h(cfg);  // clock at 100
  std::uint64_t id = 0;
  Ticket t = h.queue.submit(image(), /*deadline=*/105.0, &id);  // urgent
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(h.queue.cancel(id));
  EXPECT_EQ(t.wait().error, ServeError::kCancelled);
  Request req;
  EXPECT_FALSE(h.queue.pop(req));
}

TEST(Queue, RejectedSubmitWritesZeroId) {
  QueueConfig cfg;
  cfg.capacity = 1;
  QueueHarness h(cfg);
  std::uint64_t first = 0, second = 77;
  h.queue.submit(image(), 0.0, &first);
  Ticket rejected = h.queue.submit(image(), 0.0, &second);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(second, 0u);  // rejected: nothing to cancel
  EXPECT_EQ(rejected.wait().error, ServeError::kQueueFull);
}

TEST(Queue, DepthHighWaterMarkIsTracked) {
  QueueHarness h;
  h.queue.submit(image());
  h.queue.submit(image());
  h.queue.submit(image());
  Request req;
  h.queue.pop(req);
  h.queue.submit(image());
  EXPECT_EQ(h.stats.snapshot().max_queue_depth, 3u);
}

TEST(Queue, TimedWaitForWorkIsOneFakeClockSleep) {
  QueueHarness h;  // clock at 100
  EXPECT_TRUE(h.queue.wait_for_work(/*deadline=*/100.25));
  ASSERT_EQ(h.clock.sleeps().size(), 1u);
  EXPECT_DOUBLE_EQ(h.clock.now(), 100.25);
}

TEST(Queue, WaitForWorkReportsDrainedOnceTheBacklogIsGone) {
  QueueHarness h;
  Ticket t = h.queue.submit(image());
  h.queue.begin_drain();
  EXPECT_TRUE(h.queue.wait_for_work());  // backlog left: returns at once
  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  EXPECT_FALSE(h.queue.wait_for_work());  // drained: returns at once
  EXPECT_TRUE(h.clock.sleeps().empty());
}

TEST(Ticket, HookRegisteredAfterTheAnswerFiresAtOnce) {
  Response answer;
  answer.predicted = 5;
  Ticket t = resolved_ticket(std::move(answer));
  int fired = 0;
  t.on_ready([&fired] { ++fired; });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(t.wait().predicted, 5u);
}

TEST(Ticket, HookFiresOnceWhenTheAnswerLands) {
  QueueHarness h;
  Ticket t = h.queue.submit(image());
  int fired = 0;
  t.on_ready([&fired] { ++fired; });
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.ready());

  Request req;
  ASSERT_TRUE(h.queue.pop(req));
  req.responder.respond(Response{});
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(t.ready());
  EXPECT_EQ(t.wait().error, ServeError::kNone);
  EXPECT_EQ(fired, 1);
}

TEST(Ticket, RequestDroppedUnansweredAnswersStopping) {
  // A queue destroyed with its backlog (a server that never started)
  // must not leave a client waiting forever.
  Ticket t;
  {
    QueueHarness h;
    t = h.queue.submit(image());
  }
  EXPECT_EQ(t.wait().error, ServeError::kStopping);
}

}  // namespace
}  // namespace satd::serve
