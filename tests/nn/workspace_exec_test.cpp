// Tests for the allocation-free `_into` execution path: bit-identity
// with the value-returning wrappers, steady-state pointer stability,
// shape-change reuse, the cache-validity contract, and a
// finite-difference check routed through forward_into/backward_into.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contract.h"
#include "common/rng.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "nn/zoo.h"

namespace satd::nn {
namespace {

Tensor random_images(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, zoo::kImageChannels, zoo::kImageSize, zoo::kImageSize});
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0, 1));
  return x;
}

std::vector<std::size_t> cyclic_labels(std::size_t n) {
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = i % zoo::kNumClasses;
  return labels;
}

class IntoPathZooTest : public ::testing::TestWithParam<std::string> {};

// The value-returning wrappers and the `_into` path must produce
// byte-identical floats: same kernels, same accumulation order, only the
// destination storage differs.
TEST_P(IntoPathZooTest, ForwardBackwardBitIdenticalToValuePath) {
  Rng rng1(11), rng2(11);
  Sequential value_model = zoo::build(GetParam(), rng1);
  Sequential into_model = zoo::build(GetParam(), rng2);
  const Tensor x = random_images(3, 21);

  const Tensor logits_value = value_model.forward(x, /*training=*/true);
  Tensor logits_into;
  into_model.forward_into(x, logits_into, /*training=*/true);
  ASSERT_EQ(logits_value.shape(), logits_into.shape());
  EXPECT_TRUE(logits_value.equals(logits_into));

  Rng grad_rng(31);
  Tensor g(logits_value.shape());
  for (float& v : g.data()) v = static_cast<float>(grad_rng.uniform(-1, 1));

  const Tensor gx_value = value_model.backward(g);
  Tensor gx_into;
  into_model.backward_into(g, gx_into);
  ASSERT_EQ(gx_value.shape(), gx_into.shape());
  EXPECT_TRUE(gx_value.equals(gx_into));

  const auto gv = value_model.gradients();
  const auto gi = into_model.gradients();
  ASSERT_EQ(gv.size(), gi.size());
  for (std::size_t i = 0; i < gv.size(); ++i) {
    EXPECT_TRUE(gv[i]->equals(*gi[i])) << "gradient tensor " << i;
  }
}

// backward_params skips only work whose result nothing reads: the
// parameter gradients it accumulates, over two passes, are bit-identical
// to backward_into's.
TEST_P(IntoPathZooTest, BackwardParamsMatchesBackwardInto) {
  Rng rng1(17), rng2(17);
  Sequential full = zoo::build(GetParam(), rng1);
  Sequential params_only = zoo::build(GetParam(), rng2);
  Rng grad_rng(32);
  Tensor g(Shape{3, zoo::kNumClasses});
  for (float& v : g.data()) v = static_cast<float>(grad_rng.uniform(-1, 1));

  Tensor logits, gx;
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    const Tensor x = random_images(3, 27 + pass);
    full.forward_into(x, logits, /*training=*/true);
    full.backward_into(g, gx);
    params_only.forward_into(x, logits, /*training=*/true);
    params_only.backward_params(g);
  }
  const auto gf = full.gradients();
  const auto gp = params_only.gradients();
  ASSERT_EQ(gf.size(), gp.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    EXPECT_TRUE(gf[i]->equals(*gp[i])) << "gradient tensor " << i;
  }
}

// Under GradMode::kInputOnly a backward leaves every parameter gradient
// as it was and writes the same dLoss/dInput as a full backward.
TEST_P(IntoPathZooTest, InputOnlyBackwardMatchesFullInputGradient) {
  Rng rng1(18), rng2(18);
  Sequential full = zoo::build(GetParam(), rng1);
  Sequential input_only = zoo::build(GetParam(), rng2);
  for (Tensor* grad : input_only.gradients()) grad->fill(0.25f);
  const Tensor x = random_images(3, 28);
  Tensor g(Shape{3, zoo::kNumClasses});
  g.fill(0.1f);

  Tensor logits, gx_full, gx_input;
  full.forward_into(x, logits, /*training=*/false);
  full.backward_into(g, gx_full);
  input_only.forward_into(x, logits, /*training=*/false);
  {
    const ScopedGradMode mode(GradMode::kInputOnly);
    input_only.backward_into(g, gx_input);
  }
  EXPECT_TRUE(gx_full.equals(gx_input));
  for (Tensor* grad : input_only.gradients()) {
    for (float v : grad->data()) EXPECT_EQ(v, 0.25f);
  }
}

// Steady state is allocation-free: once buffers exist, repeated passes
// at the same shape must not move the output or input-gradient storage.
TEST_P(IntoPathZooTest, SteadyStatePointersAreStable) {
  Rng rng(12);
  Sequential model = zoo::build(GetParam(), rng);
  Tensor logits, gx, g;
  const Tensor warmup = random_images(4, 22);
  model.forward_into(warmup, logits, true);
  g = Tensor(logits.shape());
  g.fill(0.05f);
  model.backward_into(g, gx);
  model.zero_grad();

  const float* logits_ptr = logits.raw();
  const float* gx_ptr = gx.raw();
  for (int iter = 0; iter < 3; ++iter) {
    const Tensor x = random_images(4, 100 + static_cast<std::uint64_t>(iter));
    model.forward_into(x, logits, true);
    model.backward_into(g, gx);
    model.zero_grad();
    EXPECT_EQ(logits.raw(), logits_ptr) << "iteration " << iter;
    EXPECT_EQ(gx.raw(), gx_ptr) << "iteration " << iter;
  }
}

// Buffer reuse across a batch-size change must not leak state: a smaller
// batch run after a larger one matches a fresh model bit for bit.
TEST_P(IntoPathZooTest, ShapeChangeReuseMatchesFreshModel) {
  Rng rng1(13), rng2(13);
  Sequential warm = zoo::build(GetParam(), rng1);
  Sequential fresh = zoo::build(GetParam(), rng2);
  const Tensor big = random_images(5, 23);
  const Tensor small = random_images(2, 24);

  Tensor scratch, warm_out, fresh_out;
  warm.forward_into(big, scratch, true);
  Tensor g(scratch.shape());
  g.fill(0.1f);
  Tensor gx;
  warm.backward_into(g, gx);
  warm.zero_grad();

  warm.forward_into(small, warm_out, true);
  fresh.forward_into(small, fresh_out, true);
  EXPECT_TRUE(warm_out.equals(fresh_out));
}

TEST(IntoPathContract, BackwardBeforeForwardThrows) {
  Rng rng(14);
  Sequential model = zoo::build("mlp_small", rng);
  Tensor g(Shape{2, zoo::kNumClasses});
  g.fill(0.1f);
  Tensor gx;
  EXPECT_THROW(model.backward_into(g, gx), ContractViolation);
}

TEST(IntoPathContract, DoubleBackwardThrows) {
  Rng rng(15);
  Sequential model = zoo::build("mlp_small", rng);
  const Tensor x = random_images(2, 25);
  Tensor logits;
  model.forward_into(x, logits, true);
  Tensor g(logits.shape());
  g.fill(0.1f);
  Tensor gx;
  model.backward_into(g, gx);  // consumes the layer caches
  EXPECT_THROW(model.backward_into(g, gx), ContractViolation);
}

TEST(IntoPathContract, BackwardAfterReleaseBuffersThrows) {
  Rng rng(16);
  Sequential model = zoo::build("mlp_small", rng);
  const Tensor x = random_images(2, 26);
  Tensor logits;
  model.forward_into(x, logits, true);
  Tensor g(logits.shape());
  g.fill(0.1f);
  model.release_buffers();  // invalidates every cache
  Tensor gx;
  EXPECT_THROW(model.backward_into(g, gx), ContractViolation);
}

TEST(IntoPathContract, ReleaseBuffersThenForwardRecovers) {
  Rng rng(17);
  Sequential model = zoo::build("cnn_small", rng);
  const Tensor x = random_images(2, 27);
  Tensor a, b;
  model.forward_into(x, a, false);
  model.release_buffers();
  Tensor kept = a;  // `a` itself is caller storage, untouched by release
  model.forward_into(x, b, false);
  EXPECT_TRUE(kept.equals(b));
}

// Finite-difference check routed entirely through the `_into` path.
TEST(IntoPathGradcheck, InputGradientMatchesFiniteDifference) {
  Rng rng(18);
  Sequential model = zoo::build("mlp_small", rng);
  const Tensor x = random_images(2, 28);
  const auto labels = cyclic_labels(2);

  Tensor logits, gx;
  LossResult loss;
  model.zero_grad();
  model.forward_into(x, logits, true);
  softmax_cross_entropy_into(logits, labels, loss);
  model.backward_into(loss.grad_logits, gx);
  model.zero_grad();
  ASSERT_EQ(gx.shape(), x.shape());

  auto loss_at = [&](const Tensor& probe) {
    Tensor l;
    model.forward_into(probe, l, true);
    return softmax_cross_entropy_value(l, labels);
  };
  Tensor probe = x;
  const float h = 5e-3f;
  const std::size_t n = x.numel();
  const std::size_t step = std::max<std::size_t>(1, n / 16);
  for (std::size_t i = 0; i < n; i += step) {
    const float saved = probe[i];
    probe[i] = saved + h;
    const float up = loss_at(probe);
    probe[i] = saved - h;
    const float down = loss_at(probe);
    probe[i] = saved;
    const float numeric = (up - down) / (2.0f * h);
    EXPECT_NEAR(gx[i], numeric, 2e-2f * std::max(1.0f, std::fabs(gx[i])))
        << "input coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, IntoPathZooTest,
                         ::testing::ValuesIn(zoo::known_specs()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace satd::nn
