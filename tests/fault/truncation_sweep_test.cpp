// Truncation sweep: a model file or checkpoint cut off at ANY byte
// prefix must either load fully (only the intact length) or throw a
// typed error — never crash, hang, or hand back garbage parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/durable_io.h"
#include "core/factory.h"
#include "data/synthetic.h"
#include "nn/model_io.h"
#include "nn/zoo.h"
#include "tensor/serialize.h"
#include "temp_path.h"

namespace satd {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& p) {
  std::ifstream is(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void spit(const std::string& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Cut points covering every "interesting" region without replaying a
/// multi-KB file byte by byte: every byte of the first 64 (magic,
/// framing header, spec), ~200 evenly spaced interior cuts, and every
/// byte of the final 16 (CRC trailer).
std::vector<std::size_t> sweep_points(std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < std::min<std::size_t>(size, 64); ++i) {
    cuts.push_back(i);
  }
  const std::size_t step = std::max<std::size_t>(size / 200, 1);
  for (std::size_t i = 64; i + 16 < size; i += step) cuts.push_back(i);
  for (std::size_t i = size > 16 ? size - 16 : 0; i < size; ++i) {
    cuts.push_back(i);
  }
  return cuts;
}

class TruncationSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_truncation_sweep");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(TruncationSweepTest, ModelFileNeverLoadsGarbage) {
  Rng rng(7);
  nn::Sequential m = nn::zoo::build("mlp_small", rng);
  const std::string full_path = path("model.bin");
  nn::save_model_file(full_path, m, "mlp_small");
  const std::string full = slurp(full_path);
  ASSERT_GT(full.size(), 100u);

  const std::string cut_path = path("model_cut.bin");
  for (std::size_t cut : sweep_points(full.size())) {
    spit(cut_path, full.substr(0, cut));
    EXPECT_THROW(nn::load_model_file(cut_path), durable::CorruptFileError)
        << "truncation at byte " << cut << " of " << full.size();
  }
  // The intact file still loads after the sweep.
  nn::Sequential loaded = nn::load_model_file(full_path);
  Tensor probe = Tensor::full(Shape{1, 1, 28, 28}, 0.5f);
  EXPECT_TRUE(m.forward(probe, false).equals(loaded.forward(probe, false)));
}

TEST_F(TruncationSweepTest, CheckpointNeverLoadsGarbage) {
  data::SyntheticConfig dc;
  dc.train_size = 96;
  dc.test_size = 16;
  dc.seed = 5;
  const auto data = data::make_synthetic_digits(dc);

  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.seed = 11;
  cfg.eps = 0.1f;
  Rng rng(1);
  nn::Sequential model = nn::zoo::build("mlp_small", rng);
  auto trainer = core::make_trainer("proposed", model, cfg);
  trainer->fit(data.train);
  const std::string full_path = path("run.ckpt");
  trainer->save_checkpoint_file(full_path, 2);
  const std::string full = slurp(full_path);
  ASSERT_GT(full.size(), 100u);

  Rng rng2(2);
  nn::Sequential model2 = nn::zoo::build("mlp_small", rng2);
  auto trainer2 = core::make_trainer("proposed", model2, cfg);
  const std::string cut_path = path("run_cut.ckpt");
  for (std::size_t cut : sweep_points(full.size())) {
    spit(cut_path, full.substr(0, cut));
    EXPECT_THROW(trainer2->load_checkpoint_file(cut_path),
                 durable::CorruptFileError)
        << "truncation at byte " << cut << " of " << full.size();
  }
  EXPECT_EQ(trainer2->load_checkpoint_file(full_path), 2u);
}

// Legacy (unframed) artifacts have no whole-file CRC, but every
// truncation must still surface as a typed SerializeError from the
// payload parser — the pre-checksum guarantee this layer strengthens.
TEST_F(TruncationSweepTest, LegacyUnframedModelStillFailsTyped) {
  Rng rng(9);
  nn::Sequential m = nn::zoo::build("mlp_small", rng);
  std::ostringstream ss(std::ios::binary);
  nn::save_model(ss, m, "mlp_small");
  const std::string full = ss.str();

  const std::string cut_path = path("legacy_cut.bin");
  for (std::size_t cut : sweep_points(full.size())) {
    if (cut == full.size()) continue;
    spit(cut_path, full.substr(0, cut));
    EXPECT_THROW(nn::load_model_file(cut_path), durable::CorruptFileError)
        << "truncation at byte " << cut << " of " << full.size();
  }
  // And the full legacy payload (no frame) still loads — read-compat.
  spit(cut_path, full);
  nn::Sequential loaded = nn::load_model_file(cut_path);
  Tensor probe = Tensor::full(Shape{1, 1, 28, 28}, 0.25f);
  EXPECT_TRUE(m.forward(probe, false).equals(loaded.forward(probe, false)));
}

}  // namespace
}  // namespace satd
