#include "data/pgm.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/contract.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "temp_path.h"

namespace satd::data {
namespace {

namespace fs = std::filesystem;

class PgmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_pgm_test");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) { return (dir_ / name).string(); }
  fs::path dir_;
};

TEST_F(PgmTest, RoundTripsWithinQuantization) {
  Rng rng(1);
  const Tensor img = render_digit(5, rng);
  write_pgm(path("digit.pgm"), img);
  const Tensor back = read_pgm(path("digit.pgm"));
  EXPECT_EQ(back.shape(), img.shape());
  // 8-bit quantization: worst case half a level.
  EXPECT_TRUE(back.allclose(img, 0.5f / 255.0f + 1e-6f));
}

TEST_F(PgmTest, AcceptsRank2Images) {
  Tensor img(Shape{4, 6});
  img.fill(0.5f);
  write_pgm(path("r2.pgm"), img);
  const Tensor back = read_pgm(path("r2.pgm"));
  EXPECT_EQ(back.shape(), (Shape{1, 4, 6}));
}

TEST_F(PgmTest, HeaderIsWellFormed) {
  Tensor img(Shape{1, 2, 3});
  write_pgm(path("h.pgm"), img);
  std::ifstream is(path("h.pgm"), std::ios::binary);
  std::string magic;
  std::size_t w, h, maxval;
  is >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 3u);
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(maxval, 255u);
}

TEST_F(PgmTest, RejectsBadInputs) {
  Tensor batch(Shape{2, 1, 4, 4});
  EXPECT_THROW(write_pgm(path("bad.pgm"), batch), ContractViolation);
  EXPECT_THROW(read_pgm(path("missing.pgm")), std::runtime_error);
  {
    std::ofstream os(path("garbage.pgm"), std::ios::binary);
    os << "P6 2 2 255 junk";
  }
  EXPECT_THROW(read_pgm(path("garbage.pgm")), std::runtime_error);
  {
    std::ofstream os(path("trunc.pgm"), std::ios::binary);
    os << "P5\n10 10\n255\nxx";  // far fewer than 100 bytes
  }
  EXPECT_THROW(read_pgm(path("trunc.pgm")), std::runtime_error);
}

TEST(Montage, TilesRowMajor) {
  Tensor images(Shape{3, 1, 2, 2});
  images.slice_row(0);  // no-op sanity
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      images[i * 4 + j] = static_cast<float>(i) / 10.0f;
    }
  }
  const Tensor m = montage(images, 2);
  EXPECT_EQ(m.shape(), (Shape{1, 4, 4}));
  // Image 0 occupies top-left 2x2, image 1 top-right, image 2 bottom-left.
  EXPECT_FLOAT_EQ(m.at(std::size_t{0}, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(std::size_t{0}, 0, 2), 0.1f);
  EXPECT_FLOAT_EQ(m.at(std::size_t{0}, 2, 0), 0.2f);
  // Missing fourth cell is black.
  EXPECT_FLOAT_EQ(m.at(std::size_t{0}, 2, 2), 0.0f);
}

TEST(Montage, SingleColumnStacksVertically) {
  Tensor images(Shape{2, 1, 3, 3});
  const Tensor m = montage(images, 1);
  EXPECT_EQ(m.shape(), (Shape{1, 6, 3}));
}

TEST(Montage, ValidatesInputs) {
  Tensor images(Shape{2, 1, 3, 3});
  EXPECT_THROW(montage(images, 0), ContractViolation);
  Tensor multi(Shape{2, 3, 3, 3});
  EXPECT_THROW(montage(multi, 2), ContractViolation);
  Tensor empty(Shape{0, 1, 3, 3});
  EXPECT_THROW(montage(empty, 2), ContractViolation);
}

}  // namespace
}  // namespace satd::data
