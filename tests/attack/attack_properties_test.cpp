// Property-based invariants every attack in the library must satisfy,
// swept across attack kinds and eps budgets via parameterized gtest.
#include <gtest/gtest.h>

#include <memory>

#include "attack/bim.h"
#include "attack/fgsm.h"
#include "attack/mifgsm.h"
#include "attack/pgd.h"
#include "attack_test_util.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace satd::attack {
namespace {

using testing::test_batch;
using testing::test_labels;
using testing::trained_model;

struct AttackCase {
  std::string kind;
  float eps;
};

AttackPtr make_attack(const AttackCase& c) {
  static Rng rng(99);
  if (c.kind == "fgsm") return std::make_unique<Fgsm>(c.eps);
  if (c.kind == "bim") return std::make_unique<Bim>(c.eps, 5);
  if (c.kind == "pgd") {
    return std::make_unique<Pgd>(c.eps, 5, c.eps / 3.0f, rng);
  }
  if (c.kind == "mifgsm") {
    return std::make_unique<MiFgsm>(c.eps, 5, c.eps / 3.0f);
  }
  ADD_FAILURE() << "unknown attack kind " << c.kind;
  return nullptr;
}

class AttackPropertyTest : public ::testing::TestWithParam<AttackCase> {};

TEST_P(AttackPropertyTest, OutputShapeMatchesInput) {
  auto attack = make_attack(GetParam());
  const Tensor x = test_batch(9);
  const Tensor adv = attack->perturb(trained_model(), x, test_labels(9));
  EXPECT_EQ(adv.shape(), x.shape());
}

TEST_P(AttackPropertyTest, EpsBallContainment) {
  auto attack = make_attack(GetParam());
  const Tensor x = test_batch(9);
  const Tensor adv = attack->perturb(trained_model(), x, test_labels(9));
  EXPECT_LE(ops::max_abs_diff(adv, x), GetParam().eps + 1e-5f);
}

TEST_P(AttackPropertyTest, PixelRangeContainment) {
  auto attack = make_attack(GetParam());
  const Tensor x = test_batch(9);
  const Tensor adv = attack->perturb(trained_model(), x, test_labels(9));
  for (float v : adv.data()) {
    EXPECT_GE(v, kPixelMin);
    EXPECT_LE(v, kPixelMax);
  }
}

TEST_P(AttackPropertyTest, EpsilonAccessorMatches) {
  auto attack = make_attack(GetParam());
  EXPECT_FLOAT_EQ(attack->epsilon(), GetParam().eps);
}

TEST_P(AttackPropertyTest, DoesNotMutateInput) {
  auto attack = make_attack(GetParam());
  const Tensor x = test_batch(9);
  const Tensor copy = x;
  attack->perturb(trained_model(), x, test_labels(9));
  EXPECT_TRUE(x.equals(copy));
}

TEST_P(AttackPropertyTest, ParameterGradientsLeftZero) {
  auto attack = make_attack(GetParam());
  nn::Sequential& model = trained_model();
  attack->perturb(model, test_batch(4), test_labels(4));
  for (Tensor* g : model.gradients()) {
    for (float v : g->data()) EXPECT_EQ(v, 0.0f);
  }
  // Crafting accumulates nothing, so gradients a caller has already
  // accumulated survive it, on the whole-batch path and the split one.
  for (Tensor* g : model.gradients()) g->fill(0.5f);
  attack->perturb(model, test_batch(4), test_labels(4));
  attack->perturb(model, test_batch(9), test_labels(9));
  for (Tensor* g : model.gradients()) {
    for (float v : g->data()) EXPECT_EQ(v, 0.5f);
  }
  model.zero_grad();
}

TEST_P(AttackPropertyTest, ModelParametersUntouched) {
  auto attack = make_attack(GetParam());
  nn::Sequential& model = trained_model();
  std::vector<Tensor> before;
  for (Tensor* p : model.parameters()) before.push_back(*p);
  attack->perturb(model, test_batch(4), test_labels(4));
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i]->equals(before[i])) << "parameter " << i;
  }
}

TEST_P(AttackPropertyTest, ReducesAccuracyAtLargeEps) {
  if (GetParam().eps < 0.25f) GTEST_SKIP() << "only meaningful at large eps";
  auto attack = make_attack(GetParam());
  nn::Sequential& model = trained_model();
  const Tensor x = test_batch(40);
  const auto labels = test_labels(40);
  const float clean_acc =
      nn::accuracy(model.forward(x, false), labels);
  const Tensor adv = attack->perturb(model, x, labels);
  const float adv_acc = nn::accuracy(model.forward(adv, false), labels);
  EXPECT_LT(adv_acc, clean_acc);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndBudgets, AttackPropertyTest,
    ::testing::Values(AttackCase{"fgsm", 0.05f}, AttackCase{"fgsm", 0.3f},
                      AttackCase{"bim", 0.05f}, AttackCase{"bim", 0.3f},
                      AttackCase{"pgd", 0.05f}, AttackCase{"pgd", 0.3f},
                      AttackCase{"mifgsm", 0.05f},
                      AttackCase{"mifgsm", 0.3f}),
    [](const ::testing::TestParamInfo<AttackCase>& info) {
      return info.param.kind + "_eps" +
             std::to_string(static_cast<int>(info.param.eps * 100));
    });

}  // namespace
}  // namespace satd::attack
