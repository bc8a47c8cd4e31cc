// Adversarial-training framework: shared config, reporting and the
// epoch/batch loop that every training method plugs into.
//
// The five methods of the paper's evaluation (Table I) are:
//   VanillaTrainer    — clean examples only (Figure 1/2 baseline)
//   FgsmAdvTrainer    — clean + single-step FGSM mixture (Goodfellow '15)
//   BimAdvTrainer     — clean + BIM(N) mixture: the Iter-Adv reference
//   AtdaTrainer       — SOTA Single-Adv baseline (Song et al. 2018)
//   ProposedTrainer   — the paper's contribution (src/core/proposed_trainer.h)
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace satd::core {

/// Hyper-parameters for every trainer. Method-specific knobs are grouped
/// and ignored by methods that do not use them, so one config describes a
/// whole Table-I run.
struct TrainConfig {
  std::size_t epochs = 30;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;  // Adam
  std::uint64_t seed = 42;

  // Adversarial-training knobs (shared).
  float eps = 0.3f;      ///< total l-inf budget (0.3 digits / 0.2 fashion)
  float adv_mix = 0.5f;  ///< weight of the adversarial term in the mixture

  // Iter-Adv (BimAdvTrainer / PgdAdvTrainer).
  std::size_t bim_iterations = 10;

  // Free adversarial training (FreeAdvTrainer, extension): replays of
  // each mini-batch; the effective epoch count is epochs * free_replays.
  std::size_t free_replays = 4;

  // Proposed method.
  std::size_t reset_period = 20;  ///< buffer reset interval (epochs)
  float step_fraction = 0.1f;     ///< per-epoch step = eps * step_fraction

  // Adversarial logit pairing (AlpTrainer, extension): weight of the
  // squared logit-difference term.
  float alp_weight = 0.5f;

  // Ensemble adversarial training (EnsembleAdvTrainer, extension):
  // number of static surrogate models, the architecture they use, and
  // how many vanilla epochs each one is pre-trained for. The surrogates
  // are derived deterministically from `seed`, so two runs with the same
  // config train against bit-identical ensembles.
  std::size_t ensemble_surrogate_count = 2;
  std::string ensemble_surrogate_spec = "mlp_small";
  std::size_t ensemble_surrogate_epochs = 3;

  // Regularized single-step training (FgsmRegTrainer, extension): weight
  // of the FGSM-vs-iterative logit-divergence penalty and the iteration
  // count of the multi-step probe it compares against.
  float fgsm_reg_weight = 0.5f;
  std::size_t fgsm_reg_iterations = 2;

  // Label smoothing applied to every cross-entropy term (0 = off). A
  // regularization defense in the family the paper's related work cites.
  float label_smoothing = 0.0f;

  // ATDA (Song et al. 2018) loss weights.
  float atda_lambda_coral = 0.5f;
  float atda_lambda_mmd = 0.5f;
  float atda_lambda_margin = 0.05f;
  float atda_margin = 2.0f;
  float atda_center_alpha = 0.1f;  ///< EMA rate for class centers

  // ---- training health guards ----
  //
  // Single-step adversarial training is known to collapse mid-run
  // (Vivek & Babu 2020), so fit() checks every finished epoch for a
  // non-finite loss, non-finite parameters, or a loss spike. A failed
  // epoch is rolled back to the in-memory last-good snapshot (params +
  // optimizer moments + RNG streams + method state) and retried with a
  // halved learning rate; after `divergence_max_retries` failed retries
  // of the same epoch, fit() throws TrainingDivergedError.
  bool health_checks = true;
  std::size_t divergence_max_retries = 2;
  /// Epoch mean loss > factor * max(last-good loss, 0.1) counts as a
  /// divergence. The floor keeps near-converged runs from tripping on
  /// tiny absolute wobbles; the factor is sized to the cross-entropy
  /// clamp (-log 1e-12 ≈ 27.6 caps any per-sample loss), so 10x the
  /// last-good epoch is already a catastrophic, non-transient jump.
  float loss_spike_factor = 10.0f;
};

/// Per-epoch record.
struct EpochStats {
  std::size_t epoch = 0;
  float mean_loss = 0.0f;
  double seconds = 0.0;
};

/// One detected divergence (rolled back and retried, or fatal).
struct DivergenceEvent {
  std::size_t epoch = 0;
  std::size_t attempt = 0;   ///< 0 = first try of the epoch
  float loss = 0.0f;         ///< epoch mean loss at detection
  std::string reason;        ///< "non_finite_loss" | "non_finite_parameter"
                             ///< | "loss_spike"
};

/// Thrown when an epoch keeps diverging after the configured number of
/// rollback-and-retry attempts.
class TrainingDivergedError : public std::runtime_error {
 public:
  explicit TrainingDivergedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Result of a full fit() run.
struct TrainReport {
  std::string method;
  std::vector<EpochStats> epochs;
  /// Every divergence the health guards caught (empty on a clean run).
  std::vector<DivergenceEvent> divergence_events;
  /// True when fit() returned early because the stop check fired
  /// (graceful shutdown); `epochs` then holds the completed epochs and
  /// the trainer sits exactly at that epoch boundary.
  bool stopped_early = false;
  /// Mean wall-clock seconds per epoch — the paper's Table I cost metric.
  double mean_epoch_seconds() const;
  /// Total training seconds.
  double total_seconds() const;
  /// Loss of the final epoch (0 if no epochs ran).
  float final_loss() const;
};

/// Optional per-epoch observer (epoch stats as they complete).
using EpochCallback = std::function<void(const EpochStats&)>;

/// Polled between batches for graceful shutdown (e.g. a SIGINT flag).
using StopCheck = std::function<bool()>;

/// Test-only hook invoked at the start of each epoch attempt (after
/// on_epoch_begin, before any batch) with (epoch, retry attempt, model)
/// — lets fault-injection tests poison parameters so the epoch's own
/// loss blows up and drives the rollback path deterministically.
using EpochFaultHook =
    std::function<void(std::size_t, std::size_t, nn::Sequential&)>;

/// Pluggable end-of-epoch health check, run after the built-in
/// NaN/spike verdict passes, with (epoch, retry attempt, model, epoch
/// mean loss). Returns nullptr for a healthy epoch or a STABLE reason
/// token (a string literal — the pointer must outlive the call); a
/// non-null verdict drives the same rollback-and-retry path as the
/// built-in divergence checks. Used by the robustness-collapse sentinel
/// (core/sentinel.h): single-step adversarial training can collapse in
/// robust accuracy while the clean loss stays perfectly healthy, which
/// no loss-based guard can see.
using EpochHealthHook = std::function<const char*(
    std::size_t, std::size_t, nn::Sequential&, float)>;

/// Base class implementing the epoch/batch loop and the clean+adversarial
/// mixture update that all methods share. Subclasses provide the
/// adversarial batch (or opt out) via make_adversarial_batch().
class Trainer {
 public:
  /// The trainer borrows the model; the caller keeps ownership.
  Trainer(nn::Sequential& model, TrainConfig config);
  virtual ~Trainer() = default;

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Runs epochs [start_epoch, config.epochs) over `train`. start_epoch
  /// is only meaningful when resuming from a checkpoint (the report then
  /// covers the resumed epochs only). With config.health_checks on, a
  /// diverged epoch (NaN/Inf loss or parameters, loss spike) is rolled
  /// back to the last-good state and retried at half the learning rate;
  /// throws TrainingDivergedError once retries are exhausted.
  TrainReport fit(const data::Dataset& train, EpochCallback callback = {},
                  std::size_t start_epoch = 0);

  /// Installs a predicate polled between batches; when it returns true,
  /// fit() rolls the trainer back to the last completed epoch boundary
  /// and returns early with report.stopped_early set — a checkpoint
  /// saved right after is exactly epoch-granular. Must be cheap and
  /// signal-safe to read (typically a sig_atomic_t / atomic flag).
  void set_stop_check(StopCheck check) { stop_check_ = std::move(check); }

  /// Installs the test-only fault hook (see EpochFaultHook).
  void set_epoch_fault_hook(EpochFaultHook hook) {
    epoch_fault_hook_ = std::move(hook);
  }

  /// Installs an extra end-of-epoch health check (see EpochHealthHook).
  /// Runs even when config.health_checks is off, and shares the rollback
  /// budget: an epoch the hook keeps rejecting throws
  /// TrainingDivergedError after divergence_max_retries retries.
  void set_epoch_health_hook(EpochHealthHook hook) {
    epoch_health_hook_ = std::move(hook);
  }

  virtual std::string name() const = 0;

  const TrainConfig& config() const { return config_; }
  nn::Sequential& model() { return model_; }
  nn::Optimizer& optimizer() { return *optimizer_; }

  // ---- checkpointing ----
  //
  // A checkpoint captures everything a resumed run needs to be
  // bit-identical to an uninterrupted one: model parameters, optimizer
  // state, both RNG streams, and method-specific state (the Proposed
  // trainer's adversarial buffer, ATDA's class centers, ...). Save from
  // an epoch callback with next_epoch = stats.epoch + 1; resume by
  // constructing the same trainer type/config on a fresh model, calling
  // load_checkpoint, and passing the returned epoch to fit().
  // Limitation: models containing Dropout keep private RNG streams that
  // are not captured (none of the zoo models use Dropout).

  /// Writes a checkpoint; `next_epoch` is the epoch the resumed fit()
  /// should start at.
  void save_checkpoint(std::ostream& os, std::size_t next_epoch);
  void save_checkpoint_file(const std::string& path, std::size_t next_epoch);

  /// Restores a checkpoint into this trainer (method/config must match
  /// the saving trainer); returns the epoch to pass to fit(). Throws
  /// SerializeError on mismatch.
  std::size_t load_checkpoint(std::istream& is);
  std::size_t load_checkpoint_file(const std::string& path);

 protected:
  /// Called once before the first epoch (buffer allocation etc.).
  virtual void on_fit_begin(const data::Dataset& train);

  /// Called instead of on_fit_begin when fit() resumes from a
  /// checkpoint: re-binds borrowed references (e.g. the Proposed
  /// trainer's dataset pointer) WITHOUT resetting restored state.
  virtual void on_resume(const data::Dataset& train);

  /// Called at each epoch start (buffer resets etc.).
  virtual void on_epoch_begin(std::size_t epoch);

  /// Method-specific checkpoint payload (default: none). Implementations
  /// must read back exactly what they wrote.
  virtual void save_method_state(std::ostream& os) const;
  virtual void load_method_state(std::istream& is);

  /// Writes the adversarial companion of `batch` into `adv` (a persistent
  /// buffer reused across batches), or leaves/makes `adv` empty to train
  /// on clean data only (VanillaTrainer). May use model() freely;
  /// parameter gradients must be left zeroed.
  virtual void make_adversarial_batch(const data::Batch& batch,
                                      Tensor& adv) = 0;

  /// One optimizer update on the clean/adversarial mixture. Returns the
  /// batch loss. Subclasses with bespoke losses (ATDA) override this.
  virtual float train_batch(const data::Batch& batch);

  /// Gradient-descent step helper shared by subclasses: runs
  /// forward/backward at `weight` on (x, labels), accumulating gradients.
  /// Returns the (unweighted) mean loss.
  float accumulate_loss_gradient(const Tensor& x,
                                 std::span<const std::size_t> labels,
                                 float weight);

  /// Applies the optimizer to the accumulated gradients and zeroes them.
  void apply_step();

  /// Health verdict for a finished epoch: nullptr when healthy, else a
  /// stable reason token ("non_finite_loss", "non_finite_parameter",
  /// "loss_spike"). `last_good_loss` < 0 means no baseline yet (first
  /// epoch of the run) and disables the spike check.
  const char* epoch_health_verdict(float mean_loss,
                                   float last_good_loss) const;

  nn::Sequential& model_;
  TrainConfig config_;
  Rng rng_;
  Rng shuffle_rng_;  // epoch-shuffle stream (member so checkpoints carry it)
  std::unique_ptr<nn::Optimizer> optimizer_;

  // Persistent per-batch buffers (resized on shape change, reused
  // otherwise) so the steady-state training loop is allocation free:
  // forward logits, loss result, adversarial batch.
  Tensor logits_scratch_;
  nn::LossResult loss_scratch_;
  Tensor adv_scratch_;

  StopCheck stop_check_;
  EpochFaultHook epoch_fault_hook_;
  EpochHealthHook epoch_health_hook_;
};

}  // namespace satd::core
