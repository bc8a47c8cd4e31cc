// Graceful degradation of the bench model cache: a corrupt, truncated
// or garbage entry is quarantined as `*.corrupt` and retrained — the
// bench run completes instead of aborting on one damaged file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/durable_io.h"
#include "core/vanilla_trainer.h"
#include "data/synthetic.h"
#include "metrics/model_cache.h"
#include "nn/zoo.h"
#include "temp_path.h"

namespace satd::metrics {
namespace {

namespace fs = std::filesystem;

class CacheQuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_cache_quarantine").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ModelKey key() {
    ModelKey k;
    k.method = "vanilla";
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

  std::string model_path() {
    return (fs::path(dir_) / key().stem()).string() + ".model";
  }
  std::string report_path() {
    return (fs::path(dir_) / key().stem()).string() + ".report";
  }

  /// Populates the cache and returns how many times `train` ran.
  int populate() {
    int calls = 0;
    train_or_load(dir_, key(), [&](nn::Sequential& m) {
      ++calls;
      return quick_train(m);
    });
    return calls;
  }

  std::string dir_;
};

TEST_F(CacheQuarantineTest, TruncatedModelIsQuarantinedAndRetrained) {
  ASSERT_EQ(populate(), 1);
  // Truncate the cached model to half its size.
  const auto size = fs::file_size(model_path());
  fs::resize_file(model_path(), size / 2);

  int calls = 0;
  const CachedModel out = train_or_load(dir_, key(), [&](nn::Sequential& m) {
    ++calls;
    return quick_train(m);
  });
  EXPECT_EQ(calls, 1) << "damaged entry must retrain, not load";
  EXPECT_FALSE(out.from_cache);
  EXPECT_TRUE(fs::exists(model_path() + ".corrupt"))
      << "damaged model must be moved aside for inspection";
  // The retrain rewrote a good entry: next call is a clean hit.
  const CachedModel again = train_or_load(dir_, key(), [&](nn::Sequential& m) {
    ++calls;
    return quick_train(m);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(again.from_cache);
}

TEST_F(CacheQuarantineTest, BitRotInModelIsDetectedAndQuarantined) {
  ASSERT_EQ(populate(), 1);
  // Flip one byte deep inside the parameter data.
  {
    std::fstream f(model_path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(model_path()) / 2));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  int calls = 0;
  const CachedModel out = train_or_load(dir_, key(), [&](nn::Sequential& m) {
    ++calls;
    return quick_train(m);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(out.from_cache);
  EXPECT_TRUE(fs::exists(model_path() + ".corrupt"));
}

TEST_F(CacheQuarantineTest, GarbageReportIsQuarantinedAndRetrained) {
  ASSERT_EQ(populate(), 1);
  {
    std::ofstream os(report_path());
    os << "method";  // cut off mid-header
  }
  int calls = 0;
  const CachedModel out = train_or_load(dir_, key(), [&](nn::Sequential& m) {
    ++calls;
    return quick_train(m);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(out.from_cache);
  EXPECT_TRUE(fs::exists(report_path() + ".corrupt"));
}

TEST_F(CacheQuarantineTest, ReportRoundTripsDivergenceEvents) {
  core::TrainReport report;
  report.method = "Test";
  report.epochs.push_back({0, 1.5f, 2.25});
  report.divergence_events.push_back({0, 1, 123.0f, "loss_spike"});
  report.divergence_events.push_back({3, 0, 0.0f, "non_finite_loss"});
  fs::create_directories(dir_);
  const std::string path = dir_ + "/report.txt";
  write_report_file(path, report);
  const core::TrainReport back = read_report_file(path);
  ASSERT_EQ(back.divergence_events.size(), 2u);
  EXPECT_EQ(back.divergence_events[0].epoch, 0u);
  EXPECT_EQ(back.divergence_events[0].attempt, 1u);
  EXPECT_FLOAT_EQ(back.divergence_events[0].loss, 123.0f);
  EXPECT_EQ(back.divergence_events[0].reason, "loss_spike");
  EXPECT_EQ(back.divergence_events[1].reason, "non_finite_loss");
}

TEST_F(CacheQuarantineTest, LegacyReportWithoutDivergenceSectionLoads) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/legacy_report.txt";
  {
    std::ofstream os(path);
    os << "method Test\nepochs 1\n0 1.5 2.25\n";
  }
  const core::TrainReport back = read_report_file(path);
  ASSERT_EQ(back.epochs.size(), 1u);
  EXPECT_TRUE(back.divergence_events.empty());
}

TEST_F(CacheQuarantineTest, MissingAndMalformedReportsThrowTyped) {
  fs::create_directories(dir_);
  EXPECT_THROW(read_report_file(dir_ + "/absent.txt"), durable::IoError);
  const std::string path = dir_ + "/bad.txt";
  {
    std::ofstream os(path);
    os << "totally different file format\n";
  }
  EXPECT_THROW(read_report_file(path), durable::CorruptFileError);
}

}  // namespace
}  // namespace satd::metrics
