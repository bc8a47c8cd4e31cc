// Training workloads: the paper's Table I at the `fast` scale (1000
// synthetic digits, 30 epochs, batch 32, cnn_small, eps 0.3), each method
// followed by its evaluation row on 400 test images (Original, FGSM,
// BIM(10), BIM(30)).
//
//   train_single_step — FGSM-Adv, then Proposed: one crafting pass per two
//     update passes, so the update step dominates.
//   train_iterative   — BIM(10)-Adv, 20 epochs: ten crafting passes per two
//     update passes, so attack crafting dominates.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "attack/bim.h"
#include "attack/fgsm.h"
#include "core/factory.h"
#include "data/synthetic.h"
#include "metrics/evaluator.h"
#include "nn/zoo.h"
#include "trace.h"
#include "workloads.h"

namespace satd::benchmark {

namespace {

// --seed makes the inputs (the synthetic digits). Model initialization and
// the trainers' shuffling and crafting streams are program configuration,
// fixed at the library's experiment seed: at this scale a fresh training
// seed decides whether single-step Proposed training converges to a robust
// model (about 1 seed in 15 does not), and a benchmark run must not fail
// on the luck of its seed.
constexpr std::uint64_t kTrainSeed = 42;
constexpr std::size_t kTrainSize = 1000;
constexpr std::size_t kTestSize = 400;
constexpr float kEps = 0.3f;
constexpr std::size_t kSetupReps = 9;
// An idle virtual CPU of a shared host takes about a second of load to
// reach full speed; the timed fits start after this much throwaway work.
constexpr double kWarmupSeconds = 1.0;
constexpr const char* kModelSpec = "cnn_small";

struct Workload {
  std::vector<std::string> methods;
  std::string headline;  ///< the method whose accuracy the metrics report
  std::size_t epochs;
};

// BIM(10)-Adv trains for 20 of Table I's 30 epochs: an epoch costs four
// single-step epochs, and the workload measures that cost, so a run stays
// near the length of the others (20 s). Below 20 epochs the trained
// model's accuracy varies twice as much from seed to seed.
Workload workload_for(const std::string& name) {
  if (name == "train_single_step") {
    return {{"fgsm_adv", "proposed"}, "proposed", 30};
  }
  if (name == "train_iterative") return {{"bim_adv"}, "bim_adv", 20};
  throw std::invalid_argument("unknown training workload " + name);
}

core::TrainConfig make_config(std::size_t epochs, bool smoke) {
  core::TrainConfig cfg;
  cfg.epochs = smoke ? 1 : epochs;
  cfg.batch_size = 32;
  cfg.learning_rate = 1e-3;
  cfg.seed = kTrainSeed;
  cfg.eps = kEps;
  cfg.bim_iterations = 10;
  // As ExperimentEnv::train_config: the paper's 20-epoch reset when the
  // run is long enough.
  cfg.reset_period = cfg.epochs >= 30 ? 20 : std::max<std::size_t>(1, cfg.epochs / 2);
  return cfg;
}

/// One method's model and trainer. The trainer borrows the model, so both
/// live on the heap at fixed addresses.
struct MethodRun {
  std::string method;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<core::Trainer> trainer;
};

MethodRun make_run(const std::string& method, std::size_t index,
                   const core::TrainConfig& cfg) {
  Rng rng = Rng(kTrainSeed).fork(100 + index);
  MethodRun run;
  run.method = method;
  run.model = std::make_unique<nn::Sequential>(nn::zoo::build(kModelSpec, rng));
  run.trainer = core::make_trainer(method, *run.model, cfg);
  return run;
}

/// Throwaway one-epoch fits of `method` on a throwaway model, for at least
/// kWarmupSeconds.
void warm_up(const std::string& method, const core::TrainConfig& cfg,
             const data::Dataset& train) {
  core::TrainConfig one = cfg;
  one.epochs = 1;
  one.reset_period = 1;
  const double t0 = now();
  do {
    Rng rng = Rng(kTrainSeed).fork(99);
    nn::Sequential model = nn::zoo::build(kModelSpec, rng);
    core::make_trainer(method, model, one)->fit(train);
  } while (now() - t0 < kWarmupSeconds);
}

struct EvalRow {
  float clean = 0, fgsm = 0, bim10 = 0, bim30 = 0;
  double s_clean = 0, s_fgsm = 0, s_bim10 = 0, s_bim30 = 0;
};

EvalRow evaluate_row(nn::Sequential& model, const data::Dataset& test) {
  EvalRow r;
  double t = now();
  const auto lap = [&t] {
    const double t1 = now();
    const double d = t1 - t;
    t = t1;
    return d;
  };
  r.clean = metrics::evaluate_clean(model, test);
  r.s_clean = lap();
  attack::Fgsm fgsm(kEps);
  r.fgsm = metrics::evaluate_attack(model, test, fgsm);
  r.s_fgsm = lap();
  attack::Bim bim10(kEps, 10);
  r.bim10 = metrics::evaluate_attack(model, test, bim10);
  r.s_bim10 = lap();
  attack::Bim bim30(kEps, 30);
  r.bim30 = metrics::evaluate_attack(model, test, bim30);
  r.s_bim30 = lap();
  return r;
}

/// What one fit + evaluation of one method produced.
struct MethodResult {
  std::string method;
  core::TrainReport report;
  std::unique_ptr<TrainTimeline> timeline;
  EvalRow eval;
  std::vector<float> params;  ///< final parameters, for the identity gate
};

MethodResult fit_and_evaluate(MethodRun& run, const data::DatasetPair& data,
                              bool traced,
                              const std::function<void()>& after_epoch = {}) {
  MethodResult r;
  r.method = run.method;
  r.timeline = std::make_unique<TrainTimeline>(run.model->layer_count());
  if (traced) {
    nn::Sequential view = traced_view(*run.model, *r.timeline);
    auto trainer =
        core::make_trainer(run.method, view, run.trainer->config());
    r.report = fit_with_timeline(*trainer, data.train, *r.timeline);
  } else {
    r.report =
        fit_with_timeline(*run.trainer, data.train, *r.timeline, after_epoch);
  }
  r.eval = evaluate_row(*run.model, data.test);
  for (Tensor* p : run.model->parameters()) {
    r.params.insert(r.params.end(), p->data().begin(), p->data().end());
  }
  return r;
}

/// Median EpochStats::seconds, the paper's Table I cost column.
double epoch_seconds(const core::TrainReport& report) {
  std::vector<double> s;
  for (const auto& e : report.epochs) s.push_back(e.seconds);
  return median(std::move(s));
}

std::vector<double> pooled_batch_seconds(
    const std::vector<MethodResult>& results) {
  std::vector<double> all;
  for (const auto& r : results) {
    const auto& b = r.timeline->batch_seconds();
    all.insert(all.end(), b.begin(), b.end());
  }
  return all;
}

const MethodResult& find(const std::vector<MethodResult>& results,
                         const std::string& method) {
  for (const auto& r : results) {
    if (r.method == method) return r;
  }
  throw std::logic_error("no result for " + method);
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

// Every training step and epoch does the same work, so the host's other
// tenants are what spreads their times. Each time metric is taken per
// method in the run's least-disturbed window (fastest_window_percentile),
// then summed (epochs) or averaged (steps) over the methods. The tail is
// p90: a window holds 40-60 steps.
void report_end_to_end(const std::vector<MethodResult>& results,
                       Report& report) {
  double samples = 0.0, seconds = 0.0, p50 = 0.0, tail = 0.0, correct = 0.0;
  for (const auto& r : results) {
    std::vector<double> epochs;
    for (const auto& e : r.report.epochs) epochs.push_back(e.seconds);
    const auto& batches = r.timeline->batch_seconds();
    samples += static_cast<double>(kTrainSize);
    seconds += fastest_window_percentile(epochs, 0.5);
    p50 += fastest_window_percentile(batches, 0.5);
    tail += fastest_window_percentile(batches, 0.9);
    correct += r.eval.clean + r.eval.fgsm + r.eval.bim10 + r.eval.bim30;
  }
  const auto methods = static_cast<double>(results.size());
  report.set("throughput_per_s", samples / seconds);
  report.set("p50_ms", p50 / methods * 1e3);
  report.set("tail_ms", tail / methods * 1e3);
  // The trained models' quality: the share of (method, test image, Table I
  // column) items classified correctly.
  report.set("correct_share", correct / (4.0 * methods));
}

void report_per_layer(const std::vector<MethodResult>& untraced,
                      const std::vector<MethodResult>& traced,
                      nn::Sequential& model, const std::string& headline,
                      bool smoke, Report& report) {
  const std::size_t layers = model.layer_count();
  double batches = 0.0, attack_s = 0.0, attack_gap_s = 0.0, loss_s = 0.0,
         optimizer_s = 0.0, prep_s = 0.0, fit_begin_s = 0.0, overhead_s = 0.0,
         epochs = 0.0, rollbacks = 0.0, closure = 0.0;
  double bwd[2] = {0.0, 0.0};
  for (const auto& r : traced) {
    const TrainTimeline& tl = *r.timeline;
    batches += static_cast<double>(tl.timed_batches());
    attack_s += tl.attack_seconds();
    attack_gap_s += tl.attack_gap_seconds();
    loss_s += tl.loss_seconds();
    optimizer_s += tl.optimizer_seconds();
    prep_s += tl.batch_prep_seconds();
    fit_begin_s += tl.fit_begin_seconds();
    overhead_s += tl.epoch_overhead_seconds();
    epochs += static_cast<double>(tl.epochs());
    rollbacks += static_cast<double>(r.report.divergence_events.size());
    for (const double c : tl.epoch_closure()) closure = std::max(closure, c);
    bwd[0] += static_cast<double>(tl.backward_passes(Phase::kAttack));
    bwd[1] += static_cast<double>(tl.backward_passes(Phase::kUpdate));
  }
  // Per timed batch (trace.h: every other batch of the traced fit).
  const auto per_batch_ms = [batches](double s) { return s / batches * 1e3; };

  for (std::size_t i = 0; i < layers; ++i) {
    const std::string tag = layer_tag(i, model.layer(i));
    double flops = 0.0, busy = 0.0;
    for (const Phase phase : {Phase::kAttack, Phase::kUpdate}) {
      for (const Pass pass : {Pass::kForward, Pass::kBackward}) {
        double s = 0.0;
        std::size_t examples = 0;
        for (const auto& r : traced) {
          s += r.timeline->span_seconds(i, phase, pass);
          examples += r.timeline->examples(i, phase, pass);
        }
        report.set("nn." + tag + (phase == Phase::kAttack ? ".attack" : ".update") +
                       (pass == Pass::kForward ? ".fwd_ms" : ".bwd_ms"),
                   per_batch_ms(s));
        // Forward is one GEMM per example (2 flops per MAC); backward is
        // two (input gradient and weight gradient).
        const double passes = pass == Pass::kForward ? 1.0 : 2.0;
        flops += 2.0 * passes * layer_macs(model, i, examples);
        busy += s;
      }
    }
    if (layer_macs(model, i, 1) > 0.0) {
      report.set("tensor." + tag + ".gflops", flops / busy / 1e9);
    }
  }
  report.set("attack.craft_ms", per_batch_ms(attack_s));
  report.set("attack.elementwise_ms", per_batch_ms(attack_gap_s));
  report.set("attack.grad_calls", bwd[0] / batches);
  report.set("nn.bwd_useful_share", bwd[1] / (bwd[0] + bwd[1]));
  report.set("nn.loss_ms", per_batch_ms(loss_s));
  report.set("nn.optimizer_ms", per_batch_ms(optimizer_s));
  report.set("data.batch_prep_ms", per_batch_ms(prep_s));
  const std::vector<double> untraced_batches = pooled_batch_seconds(untraced);
  report.set("core.batch_ms_p50", percentile(untraced_batches, 0.50) * 1e3);
  report.set("core.batch_ms_p99", percentile(untraced_batches, 0.99) * 1e3);
  report.set("core.fit_begin_ms",
             fit_begin_s / static_cast<double>(traced.size()) * 1e3);
  report.set("core.epoch_overhead_ms", overhead_s / epochs * 1e3);
  report.set("core.rollbacks", rollbacks);

  EvalRow sum;
  for (const auto& r : untraced) {
    sum.s_clean += r.eval.s_clean;
    sum.s_fgsm += r.eval.s_fgsm;
    sum.s_bim10 += r.eval.s_bim10;
    sum.s_bim30 += r.eval.s_bim30;
  }
  const auto n = static_cast<double>(untraced.size());
  report.set("metrics.eval_clean_ms", sum.s_clean / n * 1e3);
  report.set("metrics.eval_fgsm_ms", sum.s_fgsm / n * 1e3);
  report.set("metrics.eval_bim10_ms", sum.s_bim10 / n * 1e3);
  report.set("metrics.eval_bim30_ms", sum.s_bim30 / n * 1e3);
  report.set("metrics.eval_samples_per_s",
             4.0 * kTestSize * n /
                 (sum.s_clean + sum.s_fgsm + sum.s_bim10 + sum.s_bim30));
  const MethodResult& head = find(untraced, headline);
  report.set("metrics.clean_acc", head.eval.clean);
  report.set("metrics.robust_acc", head.eval.bim10);

  std::vector<double> timed, untimed;
  for (const auto& r : traced) {
    const auto& t = r.timeline->timed_batch_seconds();
    const auto& u = r.timeline->untimed_batch_seconds();
    timed.insert(timed.end(), t.begin(), t.end());
    untimed.insert(untimed.end(), u.begin(), u.end());
  }
  const double base = percentile(untimed, 0.5);
  const double with_trace = percentile(timed, 0.5);
  const double overhead = (with_trace - base) / base;
  report.set("trace.overhead_share", overhead);
  report.set("trace.closure_error", closure);
  report.gate("trace.closure", closure <= 0.05,
              fmt("worst epoch: spans + named gaps differ from "
                  "EpochStats::seconds by %.4f (limit 0.05)",
                  closure));
  // A one-epoch smoke fit has 16 batches a side, too few for a median to
  // resolve 5%.
  if (!smoke) {
    report.gate("trace.overhead", overhead <= 0.05,
                fmt("median batch %.4f ms timed vs %.4f ms untimed, "
                    "interleaved in one fit (limit +5%%)",
                    with_trace * 1e3, base * 1e3));
  }
}

}  // namespace

void run_train(const Options& options, Report& report) {
  const Workload workload = workload_for(options.workload);
  const core::TrainConfig cfg = make_config(workload.epochs, options.smoke);

  // Set-up: synthesize the dataset, build and initialize each model, and
  // construct its trainer.
  data::SyntheticConfig dcfg;
  dcfg.train_size = kTrainSize;
  dcfg.test_size = kTestSize;
  dcfg.seed = options.seed;
  const auto set_up = [&](data::DatasetPair& data,
                          std::vector<MethodRun>& runs) {
    data = data::make_synthetic_digits(dcfg);
    runs.clear();
    for (std::size_t m = 0; m < workload.methods.size(); ++m) {
      runs.push_back(make_run(workload.methods[m], m, cfg));
    }
  };
  data::DatasetPair data;
  std::vector<MethodRun> runs;
  set_up(data, runs);
  warm_up(workload.methods.front(), cfg, data.train);

  // setup_s: the median of kSetupReps timed repetitions of the set-up,
  // spread evenly over the fits' epoch boundaries. The set-up is single
  // threaded and the host's speed changes over seconds, so repetitions
  // taken back to back all land on one speed.
  std::vector<double> setup;
  const std::size_t total_epochs = cfg.epochs * workload.methods.size();
  const std::size_t stride = std::max<std::size_t>(1, total_epochs / kSetupReps);
  std::size_t epochs_done = 0;
  const auto timed_set_up = [&] {
    if (options.trace || epochs_done++ % stride != 0 ||
        setup.size() == kSetupReps) {
      return;
    }
    data::DatasetPair d;
    std::vector<MethodRun> r;
    const double t0 = now();
    set_up(d, r);
    setup.push_back(now() - t0);
  };

  std::vector<MethodResult> results;
  for (MethodRun& run : runs) {
    results.push_back(
        fit_and_evaluate(run, data, /*traced=*/false, timed_set_up));
  }
  if (!options.trace) report.set("setup_s", median(setup));

  std::size_t batches = 0;
  for (const auto& r : results) {
    batches += r.timeline->batch_seconds().size();
    const float loss = r.report.final_loss();
    report.note(r.method + ".final_loss", loss);
    report.note(r.method + ".epoch_s", epoch_seconds(r.report));
    report.note(r.method + ".acc_clean", r.eval.clean);
    report.note(r.method + ".acc_fgsm", r.eval.fgsm);
    report.note(r.method + ".acc_bim10", r.eval.bim10);
    report.note(r.method + ".acc_bim30", r.eval.bim30);
    report.note(r.method + ".rollbacks",
                static_cast<double>(r.report.divergence_events.size()));
    report.gate(r.method + ".finite_loss", std::isfinite(loss),
                fmt("final loss %.6f", loss));
    if (!options.smoke) {
      report.gate(r.method + ".clean_acc", r.eval.clean >= 0.95f,
                  fmt("clean accuracy %.4f (floor 0.95)", r.eval.clean));
    }
  }
  if (!options.smoke && options.workload == "train_single_step") {
    const float proposed = find(results, "proposed").eval.bim10;
    const float fgsm_adv = find(results, "fgsm_adv").eval.bim10;
    report.gate("proposed.beats_fgsm_adv", proposed >= fgsm_adv + 0.2f,
                fmt("BIM(10) accuracy: Proposed %.4f, FGSM-Adv %.4f "
                    "(needs a 0.2 lead)",
                    proposed, fgsm_adv));
  }
  report.count(batches + results.size() * 4 * kTestSize, 0);

  if (!options.trace) {
    report_end_to_end(results, report);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced rerun from the same initial state: the per-layer numbers, and
  // proof that tracing changes nothing the trainer computes.
  std::vector<MethodResult> traced;
  for (std::size_t m = 0; m < workload.methods.size(); ++m) {
    MethodRun run = make_run(workload.methods[m], m, cfg);
    traced.push_back(fit_and_evaluate(run, data, /*traced=*/true));
    const MethodResult& a = results[m];
    const MethodResult& b = traced.back();
    const float la = a.report.final_loss(), lb = b.report.final_loss();
    const bool identical =
        std::memcmp(&la, &lb, sizeof(float)) == 0 &&
        a.eval.clean == b.eval.clean && a.eval.fgsm == b.eval.fgsm &&
        a.eval.bim10 == b.eval.bim10 && a.eval.bim30 == b.eval.bim30 &&
        a.params.size() == b.params.size() &&
        std::memcmp(a.params.data(), b.params.data(),
                    a.params.size() * sizeof(float)) == 0;
    report.gate(a.method + ".traced_identical", identical,
                fmt("final loss %.9g untraced, %.9g traced; parameters and "
                    "accuracies compared bit for bit",
                    la, lb));
  }
  nn::Sequential& model = *runs.front().model;
  report_per_layer(results, traced, model, workload.headline, options.smoke,
                   report);
}

}  // namespace satd::benchmark
