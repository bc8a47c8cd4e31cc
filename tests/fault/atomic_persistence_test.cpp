// Atomicity end-to-end: a model/checkpoint save interrupted at any byte
// (injected via durable::fault) must leave the previous artifact fully
// loadable — the crash-mid-save scenario that used to destroy it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/durable_io.h"
#include "core/factory.h"
#include "data/synthetic.h"
#include "nn/model_io.h"
#include "nn/zoo.h"
#include "temp_path.h"

namespace satd {
namespace {

namespace fs = std::filesystem;

class AtomicPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_atomic_persistence");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    durable::fault::disarm();
  }
  void TearDown() override {
    durable::fault::disarm();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(AtomicPersistenceTest, InterruptedModelSavePreservesPreviousModel) {
  Rng rng(1);
  nn::Sequential good = nn::zoo::build("mlp_small", rng);
  const std::string p = path("model.bin");
  nn::save_model_file(p, good, "mlp_small");
  const auto file_size = fs::file_size(p);
  Tensor probe = Tensor::full(Shape{1, 1, 28, 28}, 0.5f);
  const Tensor good_out = good.forward(probe, false);

  Rng rng2(2);
  nn::Sequential newer = nn::zoo::build("mlp_small", rng2);
  // Interrupt the overwrite at a spread of byte offsets, including 0
  // (nothing written) and the penultimate byte.
  const std::size_t step = std::max<std::size_t>(file_size / 64, 1);
  for (std::size_t cut = 0; cut < file_size; cut += step) {
    durable::fault::arm_write_failure(cut);
    EXPECT_THROW(nn::save_model_file(p, newer, "mlp_small"),
                 durable::IoError);
    nn::Sequential survivor = nn::load_model_file(p);
    EXPECT_TRUE(survivor.forward(probe, false).equals(good_out))
        << "interrupted save at byte " << cut
        << " damaged the previous model";
  }
  // Un-faulted save then replaces it cleanly.
  nn::save_model_file(p, newer, "mlp_small");
  EXPECT_TRUE(nn::load_model_file(p).forward(probe, false)
                  .equals(newer.forward(probe, false)));
}

TEST_F(AtomicPersistenceTest, InterruptedCheckpointSavePreservesPrevious) {
  data::SyntheticConfig dc;
  dc.train_size = 96;
  dc.test_size = 16;
  dc.seed = 3;
  const auto data = data::make_synthetic_digits(dc);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.seed = 21;

  Rng rng(1);
  nn::Sequential model = nn::zoo::build("mlp_small", rng);
  auto trainer = core::make_trainer("proposed", model, cfg);
  trainer->fit(data.train);
  const std::string p = path("run.ckpt");
  trainer->save_checkpoint_file(p, 1);
  const auto file_size = fs::file_size(p);

  const std::size_t step = std::max<std::size_t>(file_size / 32, 1);
  for (std::size_t cut = 0; cut < file_size; cut += step) {
    durable::fault::arm_write_failure(cut);
    EXPECT_THROW(trainer->save_checkpoint_file(p, 2), durable::IoError);
    Rng rng2(9);
    nn::Sequential m2 = nn::zoo::build("mlp_small", rng2);
    auto t2 = core::make_trainer("proposed", m2, cfg);
    EXPECT_EQ(t2->load_checkpoint_file(p), 1u)
        << "interrupted save at byte " << cut
        << " damaged the previous checkpoint";
  }
}

}  // namespace
}  // namespace satd
