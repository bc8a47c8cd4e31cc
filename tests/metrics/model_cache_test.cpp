#include "metrics/model_cache.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/contract.h"
#include "core/vanilla_trainer.h"
#include "data/synthetic.h"
#include "nn/zoo.h"
#include "temp_path.h"

namespace satd::metrics {
namespace {

namespace fs = std::filesystem;

class ModelCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_cache_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ModelKey key(const std::string& method = "vanilla") {
    ModelKey k;
    k.method = method;
    k.dataset = "digits";
    k.model_spec = "mlp_small";
    k.train_size = 100;
    k.epochs = 2;
    k.batch_size = 32;
    k.seed = 5;
    k.eps = 0.3f;
    return k;
  }

  static core::TrainReport quick_train(nn::Sequential& model) {
    data::SyntheticConfig cfg;
    cfg.train_size = 100;
    cfg.test_size = 10;
    cfg.seed = 5;
    const auto pair = data::make_synthetic_digits(cfg);
    core::TrainConfig tc;
    tc.epochs = 2;
    core::VanillaTrainer trainer(model, tc);
    return trainer.fit(pair.train);
  }

  std::string dir_;
};

TEST_F(ModelCacheTest, FirstCallTrainsSecondCallLoads) {
  int train_calls = 0;
  auto train = [&](nn::Sequential& m) {
    ++train_calls;
    return quick_train(m);
  };
  CachedModel first = train_or_load(dir_, key(), train);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(train_calls, 1);
  ASSERT_EQ(first.report.epochs.size(), 2u);

  CachedModel second = train_or_load(dir_, key(), train);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(train_calls, 1);  // not retrained
  // Loaded model reproduces the trained model's outputs.
  Tensor probe = Tensor::full(Shape{1, 1, 28, 28}, 0.5f);
  EXPECT_TRUE(first.model.forward(probe, false)
                  .equals(second.model.forward(probe, false)));
}

TEST_F(ModelCacheTest, ReportSurvivesCacheHit) {
  auto train = [&](nn::Sequential& m) { return quick_train(m); };
  const CachedModel first = train_or_load(dir_, key(), train);
  const CachedModel second = train_or_load(dir_, key(), train);
  ASSERT_EQ(second.report.epochs.size(), first.report.epochs.size());
  EXPECT_EQ(second.report.method, first.report.method);
  for (std::size_t e = 0; e < first.report.epochs.size(); ++e) {
    EXPECT_NEAR(second.report.epochs[e].seconds,
                first.report.epochs[e].seconds, 1e-6);
    EXPECT_NEAR(second.report.epochs[e].mean_loss,
                first.report.epochs[e].mean_loss, 1e-6f);
  }
}

TEST_F(ModelCacheTest, DifferentKeysDifferentEntries) {
  int train_calls = 0;
  auto train = [&](nn::Sequential& m) {
    ++train_calls;
    return quick_train(m);
  };
  train_or_load(dir_, key("vanilla"), train);
  train_or_load(dir_, key("fgsm_adv"), train);
  EXPECT_EQ(train_calls, 2);
  ModelKey k2 = key();
  k2.eps = 0.2f;  // eps only differs in the hash, not the readable stem
  train_or_load(dir_, k2, train);
  EXPECT_EQ(train_calls, 3);
}

TEST_F(ModelCacheTest, StemIsReadableAndStable) {
  const std::string stem = key().stem();
  EXPECT_NE(stem.find("digits"), std::string::npos);
  EXPECT_NE(stem.find("vanilla"), std::string::npos);
  EXPECT_NE(stem.find("_t100"), std::string::npos);
  EXPECT_NE(stem.find("_e2"), std::string::npos);
  EXPECT_EQ(stem, key().stem());
  ModelKey other = key();
  other.seed = 6;
  EXPECT_NE(stem, other.stem());
}

TEST_F(ModelCacheTest, UnknownSpecRejected) {
  ModelKey bad = key();
  bad.model_spec = "resnet";
  auto train = [&](nn::Sequential& m) { return quick_train(m); };
  EXPECT_THROW(train_or_load(dir_, bad, train), ContractViolation);
}

TEST_F(ModelCacheTest, ReportFileRoundTrip) {
  core::TrainReport report;
  report.method = "Test";
  report.epochs.push_back({0, 1.5f, 2.25});
  report.epochs.push_back({1, 0.75f, 2.5});
  const std::string path = dir_ + "/report.txt";
  fs::create_directories(dir_);
  write_report_file(path, report);
  const core::TrainReport back = read_report_file(path);
  EXPECT_EQ(back.method, "Test");
  ASSERT_EQ(back.epochs.size(), 2u);
  EXPECT_EQ(back.epochs[1].epoch, 1u);
  EXPECT_FLOAT_EQ(back.epochs[1].mean_loss, 0.75f);
  EXPECT_DOUBLE_EQ(back.epochs[1].seconds, 2.5);
}

}  // namespace
}  // namespace satd::metrics
