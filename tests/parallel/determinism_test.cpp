// Pins the parallel-execution determinism contract (DESIGN.md §8): every
// hot-path decomposition is over independent output elements, so train
// steps, attacks and full training runs are bit-identical for any thread
// count. Runs the same workloads at 1, 2 and 4 global threads and
// compares results with exact float equality.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/attack.h"
#include "attack/bim.h"
#include "common/contract.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fgsm_adv_trainer.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "tensor/kernel/microkernel.h"
#include "tensor/tensor.h"

namespace satd {
namespace {

Tensor random_batch(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{n, 1, 28, 28});
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(0, 1));
  return t;
}

std::vector<std::size_t> cyclic_labels(std::size_t n) {
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = i % 10;
  return labels;
}

/// Snapshots all model parameters (deep copies).
std::vector<Tensor> snapshot_params(nn::Sequential& model) {
  std::vector<Tensor> out;
  for (const Tensor* p : model.parameters()) out.push_back(*p);
  return out;
}

void expect_bit_identical(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b, std::size_t threads) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].equals(b[i]))
        << "tensor " << i << " differs at " << threads << " threads";
  }
}

/// Restores the SATD_THREADS / hardware default pool after each test so
/// thread-count overrides never leak into other suites.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override { ThreadPool::set_global_threads(0); }
  static constexpr std::size_t kThreadCounts[] = {1, 2, 4};
};

/// Forwards the calls a model makes to a real layer it does not own, and
/// cannot clone: the shape of the benchmark's timing wrapper.
class ForwardingLayer : public nn::Layer {
 public:
  explicit ForwardingLayer(nn::Layer& inner) : inner_(inner) {}
  void forward_into(const Tensor& x, Tensor& out, bool training) override {
    inner_.forward_into(x, out, training);
  }
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override {
    inner_.backward_into(grad_out, grad_in);
  }
  std::vector<Tensor*> parameters() override { return inner_.parameters(); }
  std::vector<Tensor*> gradients() override { return inner_.gradients(); }
  std::vector<Tensor*> state_tensors() override {
    return inner_.state_tensors();
  }
  std::string name() const override { return inner_.name(); }
  Shape output_shape(const Shape& input) const override {
    return inner_.output_shape(input);
  }

 private:
  nn::Layer& inner_;
};

/// dLoss/dInput of `spec` (built from seed 3) for every batch size that
/// matters to the 4-row piece split, at 1, 2 and 4 threads: the 1-thread
/// whole-batch pass is the reference for the split ones.
void expect_input_gradient_thread_invariant(const std::string& spec) {
  for (std::size_t n : {1, 3, 4, 5, 33, 64}) {
    const Tensor x = random_batch(n, 40 + n);
    const auto labels = cyclic_labels(n);
    Tensor reference;
    for (std::size_t threads : {1, 2, 4}) {
      ThreadPool::set_global_threads(threads);
      Rng rng(3);
      nn::Sequential model = nn::zoo::build(spec, rng);
      const Tensor g = attack::input_gradient(model, x, labels);
      if (threads == 1) {
        reference = g;
      } else {
        EXPECT_TRUE(g.equals(reference))
            << spec << ": input gradient of a batch of " << n
            << " differs at " << threads << " threads";
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, InputGradientBitIdenticalOverZooAndBatches) {
  for (const std::string& spec : nn::zoo::known_specs()) {
    expect_input_gradient_thread_invariant(spec);
  }
}

TEST_F(ParallelDeterminismTest, InputGradientBitIdenticalUnderScalarKernel) {
  struct RestoreKernel {
    ~RestoreKernel() { kernel::set_active_kernel(""); }
  } restore;
  ASSERT_TRUE(kernel::set_active_kernel("scalar"));
  for (const std::string& spec : nn::zoo::known_specs()) {
    expect_input_gradient_thread_invariant(spec);
  }
}

// A model that cannot clone takes the whole-batch path even on 4 threads;
// it must craft what the bare model crafts through its replicas.
TEST_F(ParallelDeterminismTest, NonCloneableModelCraftsLikeBareModel) {
  ThreadPool::set_global_threads(4);
  const Tensor x = random_batch(33, 51);
  const auto labels = cyclic_labels(33);
  for (const std::string& spec : nn::zoo::known_specs()) {
    Rng rng(4);
    nn::Sequential bare = nn::zoo::build(spec, rng);
    nn::Sequential wrapped;
    for (std::size_t i = 0; i < bare.layer_count(); ++i) {
      wrapped.emplace<ForwardingLayer>(bare.layer(i));
    }
    ASSERT_TRUE(wrapped.replicas(1).empty());
    attack::Bim bim(0.3f, 3);
    const Tensor adv_wrapped = bim.perturb(wrapped, x, labels);
    const Tensor adv_bare = bim.perturb(bare, x, labels);
    EXPECT_TRUE(adv_wrapped.equals(adv_bare)) << spec;
  }
}

// Replicas re-copy the weights and state of their model on every call: a
// model that crafted, took an optimizer step (which also moves BatchNorm's
// running statistics) and crafted again matches a fresh copy of itself.
TEST_F(ParallelDeterminismTest, ReplicasFollowTheirModel) {
  ThreadPool::set_global_threads(4);
  const Tensor x = random_batch(33, 52);
  const auto labels = cyclic_labels(33);
  Rng rng(5);
  nn::Sequential model = nn::zoo::build("cnn_bn", rng);
  attack::Bim bim(0.3f, 3);
  const Tensor before = bim.perturb(model, x, labels);

  Tensor logits, gx;
  nn::LossResult loss;
  model.forward_into(x, logits, /*training=*/true);
  nn::softmax_cross_entropy_into(logits, labels, loss);
  model.backward_into(loss.grad_logits, gx);
  nn::Adam adam(0.01);
  adam.step(model.parameters(), model.gradients());
  model.zero_grad();
  const Tensor after = bim.perturb(model, x, labels);
  EXPECT_FALSE(after.equals(before)) << "the step did not move the attack";

  Rng fresh_rng(5);
  nn::Sequential fresh = nn::zoo::build("cnn_bn", fresh_rng);
  const auto src = model.parameters();
  const auto dst = fresh.parameters();
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
  const auto src_state = model.state_tensors();
  const auto dst_state = fresh.state_tensors();
  for (std::size_t i = 0; i < src_state.size(); ++i) {
    *dst_state[i] = *src_state[i];
  }
  attack::Bim fresh_bim(0.3f, 3);
  EXPECT_TRUE(fresh_bim.perturb(fresh, x, labels).equals(after));
}

// One attack instance taking turns between two models, as ensemble
// training's round-robin does, crafts each exactly as a fresh attack on a
// fresh copy of that model would.
TEST_F(ParallelDeterminismTest, OneAttackAlternatingBetweenModels) {
  ThreadPool::set_global_threads(4);
  const Tensor x = random_batch(33, 53);
  const auto labels = cyclic_labels(33);
  Rng rng_a(6), rng_b(7);
  nn::Sequential a = nn::zoo::build("cnn_small", rng_a);
  nn::Sequential b = nn::zoo::build("mlp_small", rng_b);
  attack::Bim shared(0.3f, 3);
  std::vector<Tensor> turns;
  for (int round = 0; round < 2; ++round) {
    turns.push_back(shared.perturb(a, x, labels));
    turns.push_back(shared.perturb(b, x, labels));
  }
  Rng fresh_rng_a(6), fresh_rng_b(7);
  nn::Sequential fresh_a = nn::zoo::build("cnn_small", fresh_rng_a);
  nn::Sequential fresh_b = nn::zoo::build("mlp_small", fresh_rng_b);
  attack::Bim own_a(0.3f, 3), own_b(0.3f, 3);
  const Tensor ref_a = own_a.perturb(fresh_a, x, labels);
  const Tensor ref_b = own_b.perturb(fresh_b, x, labels);
  for (std::size_t t = 0; t < turns.size(); ++t) {
    EXPECT_TRUE(turns[t].equals(t % 2 == 0 ? ref_a : ref_b)) << "turn " << t;
  }
}

// A contract violation inside one piece (here a label out of range in the
// last rows) surfaces on the calling thread, after every piece finished.
TEST_F(ParallelDeterminismTest, PieceContractViolationReachesCaller) {
  ThreadPool::set_global_threads(4);
  const Tensor x = random_batch(64, 54);
  auto labels = cyclic_labels(64);
  labels.back() = nn::zoo::kNumClasses;
  Rng rng(8);
  nn::Sequential model = nn::zoo::build("cnn_small", rng);
  EXPECT_THROW(attack::input_gradient(model, x, labels), ContractViolation);
}

TEST_F(ParallelDeterminismTest, TrainStepGradientsBitIdentical) {
  const Tensor x = random_batch(32, 17);
  const auto labels = cyclic_labels(32);

  std::vector<Tensor> reference;
  Tensor ref_logits;
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    Rng rng(5);
    nn::Sequential model = nn::zoo::build("cnn_small", rng);
    Tensor logits, gx;
    nn::LossResult loss;
    model.forward_into(x, logits, true);
    nn::softmax_cross_entropy_into(logits, labels, loss);
    model.backward_into(loss.grad_logits, gx);

    std::vector<Tensor> grads;
    for (const Tensor* g : model.gradients()) grads.push_back(*g);
    grads.push_back(gx);
    if (threads == 1) {
      reference = std::move(grads);
      ref_logits = logits;
    } else {
      EXPECT_TRUE(logits.equals(ref_logits))
          << "logits differ at " << threads << " threads";
      expect_bit_identical(reference, grads, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, BimAttackBitIdentical) {
  const Tensor x = random_batch(16, 23);
  const auto labels = cyclic_labels(16);

  Tensor reference;
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    Rng rng(9);
    nn::Sequential model = nn::zoo::build("cnn_small", rng);
    attack::Bim bim(0.3f, 10);
    Tensor adv;
    bim.perturb_into(model, x, labels, adv);
    if (threads == 1) {
      reference = adv;
    } else {
      EXPECT_TRUE(adv.equals(reference))
          << "BIM output differs at " << threads << " threads";
    }
  }
}

// The acceptance-level pin: two full adversarial-training epochs produce
// bit-identical model parameters at 1, 2 and 4 threads.
TEST_F(ParallelDeterminismTest, TwoEpochTrainingParametersBitIdentical) {
  data::SyntheticConfig data_cfg;
  data_cfg.train_size = 96;
  data_cfg.test_size = 10;
  data_cfg.seed = 31;
  const auto data = data::make_synthetic_digits(data_cfg);

  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  cfg.seed = 7;
  cfg.eps = 0.2f;

  std::vector<Tensor> reference;
  float ref_loss = 0.0f;
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    Rng rng(cfg.seed);
    nn::Sequential model = nn::zoo::build("cnn_small", rng);
    core::FgsmAdvTrainer trainer(model, cfg);
    const core::TrainReport report = trainer.fit(data.train);
    ASSERT_EQ(report.epochs.size(), 2u);
    if (threads == 1) {
      reference = snapshot_params(model);
      ref_loss = report.final_loss();
    } else {
      EXPECT_EQ(report.final_loss(), ref_loss)
          << "loss differs at " << threads << " threads";
      expect_bit_identical(reference, snapshot_params(model), threads);
    }
  }
}

}  // namespace
}  // namespace satd
