#include "core/trainer.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/contract.h"
#include "common/durable_io.h"
#include "common/log.h"
#include "nn/loss.h"
#include "tensor/serialize.h"

namespace satd::core {

double TrainReport::mean_epoch_seconds() const {
  if (epochs.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& e : epochs) acc += e.seconds;
  return acc / static_cast<double>(epochs.size());
}

double TrainReport::total_seconds() const {
  double acc = 0.0;
  for (const auto& e : epochs) acc += e.seconds;
  return acc;
}

float TrainReport::final_loss() const {
  return epochs.empty() ? 0.0f : epochs.back().mean_loss;
}

Trainer::Trainer(nn::Sequential& model, TrainConfig config)
    : model_(model),
      config_(config),
      rng_(config.seed),
      shuffle_rng_(rng_.fork(0x5EED)) {
  SATD_EXPECT(config.epochs > 0, "epochs must be positive");
  SATD_EXPECT(config.batch_size > 0, "batch size must be positive");
  SATD_EXPECT(config.eps >= 0.0f, "eps must be non-negative");
  SATD_EXPECT(config.adv_mix >= 0.0f && config.adv_mix <= 1.0f,
              "adv_mix must be in [0,1]");
  SATD_EXPECT(config.label_smoothing >= 0.0f && config.label_smoothing < 1.0f,
              "label_smoothing must be in [0,1)");
  optimizer_ = std::make_unique<nn::Adam>(config.learning_rate);
}

void Trainer::on_fit_begin(const data::Dataset& /*train*/) {}
void Trainer::on_resume(const data::Dataset& /*train*/) {}
void Trainer::on_epoch_begin(std::size_t /*epoch*/) {}
void Trainer::save_method_state(std::ostream& /*os*/) const {}
void Trainer::load_method_state(std::istream& /*is*/) {}

float Trainer::accumulate_loss_gradient(const Tensor& x,
                                        std::span<const std::size_t> labels,
                                        float weight) {
  model_.forward_into(x, logits_scratch_, /*training=*/true);
  if (config_.label_smoothing > 0.0f) {
    nn::softmax_cross_entropy_smoothed_into(
        logits_scratch_, labels, config_.label_smoothing, loss_scratch_);
  } else {
    nn::softmax_cross_entropy_into(logits_scratch_, labels, loss_scratch_);
  }
  if (weight != 1.0f) {
    for (float& g : loss_scratch_.grad_logits.data()) g *= weight;
  }
  model_.backward_params(loss_scratch_.grad_logits);
  return loss_scratch_.value;
}

void Trainer::apply_step() {
  optimizer_->step(model_.parameters(), model_.gradients());
  model_.zero_grad();
}

float Trainer::train_batch(const data::Batch& batch) {
  make_adversarial_batch(batch, adv_scratch_);
  model_.zero_grad();
  float loss = 0.0f;
  if (adv_scratch_.empty()) {
    loss = accumulate_loss_gradient(batch.images, batch.labels, 1.0f);
  } else {
    const float mix = config_.adv_mix;
    // Mixture loss L = (1-mix)*L_clean + mix*L_adv. The adversarial
    // backward runs last purely by convention; each accumulates into the
    // same gradient buffers.
    const float clean_loss =
        accumulate_loss_gradient(batch.images, batch.labels, 1.0f - mix);
    const float adv_loss =
        accumulate_loss_gradient(adv_scratch_, batch.labels, mix);
    loss = (1.0f - mix) * clean_loss + mix * adv_loss;
  }
  apply_step();
  return loss;
}

const char* Trainer::epoch_health_verdict(float mean_loss,
                                          float last_good_loss) const {
  if (!std::isfinite(mean_loss)) return "non_finite_loss";
  for (Tensor* p : model_.parameters()) {
    for (float v : p->data()) {
      if (!std::isfinite(v)) return "non_finite_parameter";
    }
  }
  if (last_good_loss >= 0.0f &&
      mean_loss >
          config_.loss_spike_factor * std::max(last_good_loss, 0.1f)) {
    return "loss_spike";
  }
  return nullptr;
}

TrainReport Trainer::fit(const data::Dataset& train, EpochCallback callback,
                         std::size_t start_epoch) {
  train.validate();
  SATD_EXPECT(start_epoch <= config_.epochs, "start_epoch beyond run length");
  TrainReport report;
  report.method = name();
  if (start_epoch == 0) {
    on_fit_begin(train);
  } else {
    on_resume(train);
  }
  data::Batcher batcher(train, config_.batch_size);

  // Last-good snapshot for divergence rollback and graceful shutdown:
  // the full checkpoint payload (params, optimizer moments, both RNG
  // streams, method state) serialized in memory at each epoch boundary.
  // Restoring it and replaying the epoch is deterministic because the
  // RNG streams rewind with it.
  const bool keep_snapshot = config_.health_checks ||
                             static_cast<bool>(stop_check_) ||
                             static_cast<bool>(epoch_health_hook_);
  std::string snapshot;
  auto take_snapshot = [&](std::size_t next_epoch) {
    if (!keep_snapshot) return;
    std::ostringstream ss(std::ios::binary);
    save_checkpoint(ss, next_epoch);
    snapshot = ss.str();
  };
  auto restore_snapshot = [&] {
    std::istringstream ss(snapshot, std::ios::binary);
    load_checkpoint(ss);
  };
  take_snapshot(start_epoch);

  float last_good_loss = -1.0f;  // <0 = no baseline yet
  for (std::size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    const double base_lr = optimizer_->learning_rate();
    std::size_t attempt = 0;
    EpochStats stats;
    for (;;) {
      Stopwatch watch;
      on_epoch_begin(epoch);
      if (epoch_fault_hook_) epoch_fault_hook_(epoch, attempt, model_);
      batcher.begin_epoch(shuffle_rng_);
      double loss_acc = 0.0;
      const std::size_t batches = batcher.batch_count();
      std::size_t done = 0;
      for (; done < batches; ++done) {
        if (stop_check_ && stop_check_()) break;
        const data::Batch batch = batcher.make_batch(done);
        loss_acc += train_batch(batch);
      }
      if (done < batches) {
        // Graceful shutdown: discard the partial epoch so the trainer
        // sits exactly at the last completed epoch boundary, where a
        // checkpoint is bit-identical to an uninterrupted run's.
        restore_snapshot();
        optimizer_->set_learning_rate(base_lr);
        report.stopped_early = true;
        log::info() << name() << " stop requested during epoch " << epoch
                    << "; rolled back to the epoch boundary";
        return report;
      }
      stats.epoch = epoch;
      stats.mean_loss =
          static_cast<float>(loss_acc / static_cast<double>(batches));
      stats.seconds = watch.seconds();
      const char* verdict =
          config_.health_checks
              ? epoch_health_verdict(stats.mean_loss, last_good_loss)
              : nullptr;
      if (verdict == nullptr && epoch_health_hook_) {
        verdict =
            epoch_health_hook_(epoch, attempt, model_, stats.mean_loss);
      }
      if (verdict == nullptr) break;  // healthy epoch
      report.divergence_events.push_back(
          {epoch, attempt, stats.mean_loss, verdict});
      ++attempt;
      if (attempt > config_.divergence_max_retries) {
        optimizer_->set_learning_rate(base_lr);
        throw TrainingDivergedError(
            name() + " diverged at epoch " + std::to_string(epoch) + " (" +
            verdict + ", loss " + std::to_string(stats.mean_loss) +
            ") and did not recover after " +
            std::to_string(config_.divergence_max_retries) + " retries");
      }
      restore_snapshot();
      const double retry_lr = base_lr * std::pow(0.5, attempt);
      optimizer_->set_learning_rate(retry_lr);
      log::warn() << name() << " epoch " << epoch << " diverged (" << verdict
                  << ", loss " << stats.mean_loss
                  << "); rolled back, retrying at lr " << retry_lr;
    }
    optimizer_->set_learning_rate(base_lr);  // undo any retry halving
    last_good_loss = stats.mean_loss;
    report.epochs.push_back(stats);
    take_snapshot(epoch + 1);
    if (callback) callback(stats);
    log::debug() << name() << " epoch " << epoch << " loss "
                 << stats.mean_loss << " (" << stats.seconds << "s)";
  }
  return report;
}

namespace {
constexpr char kCheckpointMagic[] = "SATDCKP1";
}

void Trainer::save_checkpoint(std::ostream& os, std::size_t next_epoch) {
  SATD_EXPECT(next_epoch <= config_.epochs, "next_epoch beyond run length");
  os.write(kCheckpointMagic, 8);
  write_string(os, name());
  write_u64(os, next_epoch);
  rng_.save(os);
  shuffle_rng_.save(os);
  const auto params = model_.parameters();
  write_u64(os, params.size());
  for (Tensor* p : params) write_tensor(os, *p);
  optimizer_->save_state(os);
  save_method_state(os);
}

void Trainer::save_checkpoint_file(const std::string& path,
                                   std::size_t next_epoch) {
  // Atomic + checksummed (common/durable_io): an interrupted save leaves
  // any previous checkpoint at `path` intact; IoError carries path+errno.
  durable::write_file_checksummed(
      path, [&](std::ostream& os) { save_checkpoint(os, next_epoch); });
}

std::size_t Trainer::load_checkpoint(std::istream& is) {
  char magic[8];
  is.read(magic, 8);
  if (!is || std::string(magic, 8) != kCheckpointMagic) {
    throw SerializeError("bad checkpoint magic");
  }
  const std::string method = read_string(is);
  if (method != name()) {
    throw SerializeError("checkpoint is for method '" + method +
                         "', trainer is '" + name() + "'");
  }
  const std::uint64_t next_epoch = read_u64(is);
  rng_.load(is);
  shuffle_rng_.load(is);
  const std::uint64_t count = read_u64(is);
  const auto params = model_.parameters();
  if (count != params.size()) {
    throw SerializeError("checkpoint parameter count mismatch");
  }
  for (Tensor* p : params) {
    Tensor t = read_tensor(is);
    if (t.shape() != p->shape()) {
      throw SerializeError("checkpoint parameter shape mismatch");
    }
    *p = std::move(t);
  }
  optimizer_->load_state(is);
  load_method_state(is);
  return static_cast<std::size_t>(next_epoch);
}

std::size_t Trainer::load_checkpoint_file(const std::string& path) {
  std::istringstream is(durable::read_file_verified(path), std::ios::binary);
  return load_checkpoint(is);
}

}  // namespace satd::core
