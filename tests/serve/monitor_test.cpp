// Robustness-monitor tests: sampling cadence, bounded pending buffer,
// deterministic collapse alarm via a handcrafted model pair, and the
// isolation contract — enabling the monitor changes no served response.
#include "serve/robustness_monitor.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "serve/server.h"

namespace satd::serve {
namespace {

Tensor uniform_image() { return Tensor::full(Shape{1, 28, 28}, 0.2f); }

/// All-zero mlp_small: logits are identically zero, argmax is class 0 on
/// ANY input, and the attack gradient is zero — every BIM probe targeting
/// class 0 survives. The "robust" half of the alarm scenario.
nn::Sequential zero_model() {
  Rng rng(1);
  nn::Sequential m = nn::zoo::build("mlp_small", rng);
  for (Tensor* p : m.parameters()) {
    for (float& v : p->data()) v = 0.0f;
  }
  return m;
}

/// Margin model: only pixel 0 reaches hidden unit 0 (h0 = x[0]), and the
/// output weights give class 0 the edge iff h0 is large enough:
///   logit0 = h0, logit1 = 0.9 * h0 + 0.01.
/// On the uniform 0.2 image: logits (0.2, 0.19) -> predicts 0, and the
/// cross-entropy gradient on x[0] is robustly negative (~ -0.8, far from
/// float cancellation). BIM(eps=0.3, N=3) steps x[0] down 0.1 per
/// iteration to 0, where logits become (0, 0.01) -> predicts 1. Every
/// probe deterministically FAILS. The "collapsed" half of the scenario.
nn::Sequential margin_model() {
  nn::Sequential m = zero_model();
  std::vector<Tensor*> params = m.parameters();
  params[0]->data()[0] = 1.0f;   // W1[0, 0]: h0 = x[0]
  params[2]->data()[0] = 1.0f;   // W2[0, 0]
  params[2]->data()[1] = 0.9f;   // W2[0, 1]
  params[3]->data()[1] = 0.01f;  // b2[1]
  return m;
}

MonitorConfig probe_every_request() {
  MonitorConfig cfg;
  cfg.sample_period = 1;
  cfg.window = 4;
  cfg.eps = 0.3f;
  cfg.iterations = 3;
  cfg.collapse_fraction = 0.5f;
  cfg.min_baseline = 0.2f;
  return cfg;
}

TEST(Monitor, SamplesOneInPeriodObservations) {
  ModelRegistry registry;
  MonitorConfig cfg;
  cfg.sample_period = 4;
  RobustnessMonitor monitor(registry, "m", cfg);
  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 12; ++i) monitor.observe(img, 0);

  const MonitorReport r = monitor.report();
  EXPECT_EQ(r.observed, 12u);
  EXPECT_EQ(r.sampled, 3u);  // observations 4, 8, 12
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.probed, 0u);  // nothing stepped yet
  EXPECT_FLOAT_EQ(r.robust_fraction, -1.0f);
}

TEST(Monitor, PendingBufferIsBoundedAndDropsAreCounted) {
  ModelRegistry registry;
  MonitorConfig cfg;
  cfg.sample_period = 1;
  cfg.max_pending = 2;
  RobustnessMonitor monitor(registry, "m", cfg);
  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 5; ++i) monitor.observe(img, 0);

  const MonitorReport r = monitor.report();
  EXPECT_EQ(r.sampled, 2u);
  EXPECT_EQ(r.dropped, 3u);
}

TEST(Monitor, StepWithoutPublishedModelSkipsQuietly) {
  ModelRegistry registry;  // nothing published
  RobustnessMonitor monitor(registry, "m", probe_every_request());
  monitor.observe(uniform_image(), 0);
  EXPECT_TRUE(monitor.step());  // consumed the sample...
  EXPECT_EQ(monitor.report().probed, 0u);  // ...but could not probe
  EXPECT_FALSE(monitor.step());
}

TEST(Monitor, SurvivingProbesFillTheRollingWindow) {
  ModelRegistry registry;
  nn::Sequential m = zero_model();
  registry.publish("m", m, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());

  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 3; ++i) {
    monitor.observe(img, /*predicted=*/0);
    ASSERT_TRUE(monitor.step());
  }
  const MonitorReport r = monitor.report();
  EXPECT_EQ(r.probed, 3u);
  EXPECT_FLOAT_EQ(r.robust_fraction, 1.0f);
  EXPECT_FLOAT_EQ(r.best_fraction, 1.0f);
  EXPECT_EQ(r.alarms, 0u);
}

TEST(Monitor, AlarmFiresWhenAHotSwapCollapsesRobustness) {
  // Phase 1: the zero model survives every probe -> best fraction 1.0.
  // Phase 2: hot-swap to the margin model, which fails every probe. As
  // failures displace the window [1,1,1,1] -> 0.75 -> 0.5 -> 0.25 -> 0,
  // the alarm must fire exactly when the fraction drops BELOW
  // collapse_fraction * best = 0.5 (probes 7 and 8).
  ModelRegistry registry;
  nn::Sequential robust = zero_model();
  registry.publish("m", robust, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());

  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  EXPECT_EQ(monitor.report().alarms, 0u);

  nn::Sequential fragile = margin_model();
  registry.publish("m", fragile, "mlp_small");  // version 2
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }

  const MonitorReport r = monitor.report();
  EXPECT_EQ(r.probed, 8u);
  EXPECT_EQ(r.alarms, 2u);
  EXPECT_FLOAT_EQ(r.robust_fraction, 0.0f);
  EXPECT_FLOAT_EQ(r.best_fraction, 1.0f);
}

TEST(Monitor, EnablingTheMonitorChangesNoServedResponse) {
  // The isolation contract: probes run on a private replica off the
  // request path, so serving with the monitor hammering every request is
  // bit-identical to serving without it.
  data::SyntheticConfig dcfg;
  dcfg.train_size = 8;
  dcfg.test_size = 1;
  const Tensor pool = data::make_synthetic_digits(dcfg).train.images;

  ModelRegistry registry;
  {
    Rng rng(17);
    nn::Sequential m = nn::zoo::build("mlp_small", rng);
    registry.publish("m", m, "mlp_small");
  }

  auto serve_all = [&](bool with_monitor) {
    ServerConfig cfg;
    cfg.model_name = "m";
    cfg.workers = 1;
    cfg.enable_monitor = with_monitor;
    cfg.monitor.sample_period = 1;  // probe every single request
    cfg.monitor.eps = 0.3f;
    Server server(registry, cfg);
    server.start();
    std::vector<Response> out;
    for (std::size_t i = 0; i < 8; ++i) {
      out.push_back(server.submit(pool.slice_row(i)).wait());
    }
    server.drain();
    if (with_monitor) {
      EXPECT_EQ(server.monitor()->report().observed, 8u);
    } else {
      EXPECT_EQ(server.monitor(), nullptr);
    }
    return out;
  };

  const std::vector<Response> plain = serve_all(false);
  const std::vector<Response> monitored = serve_all(true);
  ASSERT_EQ(plain.size(), monitored.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].error, ServeError::kNone);
    EXPECT_EQ(monitored[i].error, ServeError::kNone);
    EXPECT_EQ(plain[i].predicted, monitored[i].predicted);
    EXPECT_EQ(plain[i].probabilities, monitored[i].probabilities) << i;
  }
}

TEST(Monitor, AlarmStateIsQueryableAndLatched) {
  // The programmatic twin of the alarm counter: alarmed() flips true at
  // the first collapse and stays true (latched) until reset().
  ModelRegistry registry;
  nn::Sequential robust = zero_model();
  registry.publish("m", robust, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());
  EXPECT_FALSE(monitor.alarmed());

  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  EXPECT_FALSE(monitor.alarmed());

  nn::Sequential fragile = margin_model();
  registry.publish("m", fragile, "mlp_small");
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  EXPECT_TRUE(monitor.alarmed());

  // Robust probes after the collapse do NOT clear the latch...
  nn::Sequential good = zero_model();
  registry.publish("m", good, "mlp_small");
  monitor.observe(img, 0);
  ASSERT_TRUE(monitor.step());
  EXPECT_TRUE(monitor.alarmed());
  // ...only reset() does.
  monitor.reset();
  EXPECT_FALSE(monitor.alarmed());
}

TEST(Monitor, AlarmCallbackFiresWithTheReportAtAlarm) {
  ModelRegistry registry;
  nn::Sequential robust = zero_model();
  registry.publish("m", robust, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());

  std::vector<MonitorReport> alarms;
  monitor.set_alarm_callback(
      [&alarms](const MonitorReport& r) { alarms.push_back(r); });

  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  EXPECT_TRUE(alarms.empty());

  nn::Sequential fragile = margin_model();
  registry.publish("m", fragile, "mlp_small");
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  // The window decays 1.0 -> 0.75 -> 0.5 -> 0.25 -> 0; alarms fire at
  // 0.25 and 0 (below 0.5 * best), each invoking the callback with the
  // report at that instant.
  ASSERT_EQ(alarms.size(), 2u);
  EXPECT_FLOAT_EQ(alarms[0].robust_fraction, 0.25f);
  EXPECT_FLOAT_EQ(alarms[1].robust_fraction, 0.0f);
  EXPECT_EQ(alarms[1].alarms, 2u);

  // Clearing the hook stops deliveries; the counter keeps counting.
  monitor.set_alarm_callback(nullptr);
  monitor.observe(img, 0);
  ASSERT_TRUE(monitor.step());
  EXPECT_EQ(alarms.size(), 2u);
  EXPECT_GE(monitor.report().alarms, 3u);
}

TEST(Monitor, ResetStartsAFreshObservationWindow) {
  // reset() clears the window, baseline and latch but keeps cumulative
  // telemetry — the router's per-rollout bookkeeping depends on both.
  ModelRegistry registry;
  nn::Sequential robust = zero_model();
  registry.publish("m", robust, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());

  const Tensor img = uniform_image();
  for (std::size_t i = 0; i < 4; ++i) {
    monitor.observe(img, 0);
    ASSERT_TRUE(monitor.step());
  }
  const MonitorReport before = monitor.report();
  EXPECT_FLOAT_EQ(before.best_fraction, 1.0f);

  monitor.reset();
  const MonitorReport after = monitor.report();
  EXPECT_FLOAT_EQ(after.robust_fraction, -1.0f);  // fresh window
  EXPECT_FLOAT_EQ(after.best_fraction, -1.0f);    // fresh baseline
  EXPECT_EQ(after.alarms, 0u);
  EXPECT_EQ(after.probed, before.probed);      // telemetry survives
  EXPECT_EQ(after.observed, before.observed);
}

TEST(Monitor, StartAndStopAreIdempotent) {
  ModelRegistry registry;
  nn::Sequential m = zero_model();
  registry.publish("m", m, "mlp_small");
  RobustnessMonitor monitor(registry, "m", probe_every_request());
  monitor.start();
  monitor.start();
  monitor.observe(uniform_image(), 0);
  monitor.stop();
  monitor.stop();  // and the destructor stops again harmlessly
}

}  // namespace
}  // namespace satd::serve
