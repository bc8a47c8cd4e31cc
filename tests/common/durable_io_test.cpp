#include "common/durable_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "temp_path.h"

namespace satd::durable {
namespace {

namespace fs = std::filesystem;

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_durable_io_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fault::disarm();
  }
  void TearDown() override {
    fault::disarm();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  }

  fs::path dir_;
};

TEST_F(DurableIoTest, Crc32MatchesKnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0x00000000u);
  EXPECT_EQ(crc32(std::string("a")), 0xE8B7BE43u);
}

TEST_F(DurableIoTest, Crc32ChainsIncrementally) {
  const std::string s = "the quick brown fox";
  const std::uint32_t whole = crc32(s);
  std::uint32_t chained = crc32(s.data(), 7);
  chained = crc32(s.data() + 7, s.size() - 7, chained);
  EXPECT_EQ(chained, whole);
}

TEST_F(DurableIoTest, ExtractedCrc32KeepsFileFramingByteIdentical) {
  // durable::crc32 now forwards to the standalone common/crc32.h; the
  // stored trailer must still be exactly the pre-extraction sum, so old
  // files verify and new files are bit-identical to old writers.
  const std::string payload = "payload under both implementations";
  EXPECT_EQ(satd::crc32(payload), crc32(payload));
  EXPECT_EQ(satd::crc32("123456789"), 0xCBF43926u);

  const std::string framed = wrap_checksummed(payload);
  const std::uint32_t expect = satd::crc32(payload);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(framed[framed.size() - 4 + i]))
              << (8 * i);
  }
  EXPECT_EQ(stored, expect);
}

TEST_F(DurableIoTest, FrameRoundTrip) {
  const std::string payload("binary\0payload\xff with odd bytes", 30);
  const std::string framed = wrap_checksummed(payload);
  EXPECT_TRUE(is_checksummed(framed));
  EXPECT_FALSE(is_checksummed(payload));
  EXPECT_EQ(unwrap_checksummed(framed, "test"), payload);
}

TEST_F(DurableIoTest, FrameDetectsBitRot) {
  std::string framed = wrap_checksummed(std::string(256, 'x'));
  framed[40] ^= 0x01;  // flip one payload bit
  EXPECT_THROW(unwrap_checksummed(framed, "test"), CorruptFileError);
}

TEST_F(DurableIoTest, FrameDetectsTruncationAtEveryByte) {
  const std::string framed = wrap_checksummed("some payload bytes");
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    EXPECT_THROW(unwrap_checksummed(framed.substr(0, cut), "test"),
                 CorruptFileError)
        << "cut at byte " << cut;
  }
}

TEST_F(DurableIoTest, FrameDetectsTrailingGarbage) {
  std::string framed = wrap_checksummed("payload");
  framed += "extra";
  EXPECT_THROW(unwrap_checksummed(framed, "test"), CorruptFileError);
}

TEST_F(DurableIoTest, AtomicWriteCreatesAndReplaces) {
  const std::string p = path("file.bin");
  atomic_write_file(p, "first");
  EXPECT_EQ(slurp(p), "first");
  atomic_write_file(p, "second version");
  EXPECT_EQ(slurp(p), "second version");
  EXPECT_FALSE(fs::exists(p + ".tmp"));  // temp renamed away
}

TEST_F(DurableIoTest, AtomicWriteFsyncsTheParentDirectory) {
  // The rename is only durable once the directory entry itself is on
  // disk; a successful atomic write must therefore fsync the parent.
  fault::reset_dir_fsync_probe();
  EXPECT_EQ(fault::last_dir_fsync(), "");
  const std::string p = path("durable.bin");
  atomic_write_file(p, "bytes");
  EXPECT_EQ(fault::last_dir_fsync(), dir_.string());
}

TEST_F(DurableIoTest, RelativePathFsyncsTheWorkingDirectory) {
  fault::reset_dir_fsync_probe();
  const std::string p = "satd_durable_io_relative.bin";
  atomic_write_file(p, "bytes");
  EXPECT_EQ(fault::last_dir_fsync(), ".");
  fs::remove(p);
}

TEST_F(DurableIoTest, FailedWriteNeverReachesTheDirectoryFsync) {
  fault::reset_dir_fsync_probe();
  const std::string p = path("victim.bin");
  fault::arm_write_failure(2);
  EXPECT_THROW(atomic_write_file(p, "payload"), IoError);
  EXPECT_EQ(fault::last_dir_fsync(), "")
      << "an aborted save must not report directory durability";
}

TEST_F(DurableIoTest, OpenFailureCarriesPathAndErrnoContext) {
  const std::string p = path("no_such_dir") + "/file.bin";
  try {
    atomic_write_file(p, "bytes");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(p), std::string::npos) << msg;
    EXPECT_NE(msg.find("No such file or directory"), std::string::npos)
        << msg;
  }
}

TEST_F(DurableIoTest, InjectedFailureLeavesPreviousFileIntact) {
  const std::string p = path("artifact.bin");
  atomic_write_file(p, wrap_checksummed("good artifact"));
  const std::string replacement = wrap_checksummed("replacement");
  for (std::size_t cut = 0; cut < replacement.size(); cut += 3) {
    fault::arm_write_failure(cut);
    EXPECT_THROW(atomic_write_file(p, replacement), IoError);
    EXPECT_FALSE(fault::armed()) << "trigger must be one-shot";
    EXPECT_EQ(unwrap_checksummed(slurp(p), p), "good artifact")
        << "interrupted save at byte " << cut << " damaged the artifact";
  }
  // The next un-faulted save succeeds over the leftover temp file.
  atomic_write_file(p, replacement);
  EXPECT_EQ(unwrap_checksummed(slurp(p), p), "replacement");
}

TEST_F(DurableIoTest, WriteFileChecksummedRoundTripsThroughRead) {
  const std::string p = path("framed.bin");
  write_file_checksummed(p, [](std::ostream& os) { os << "hello frame"; });
  EXPECT_TRUE(is_checksummed(slurp(p)));
  EXPECT_EQ(read_file_verified(p), "hello frame");
}

TEST_F(DurableIoTest, ReadFileVerifiedPassesLegacyFilesThrough) {
  const std::string p = path("legacy.bin");
  {
    std::ofstream os(p, std::ios::binary);
    os << "unframed legacy bytes";
  }
  EXPECT_EQ(read_file_verified(p), "unframed legacy bytes");
}

TEST_F(DurableIoTest, ReadFileVerifiedThrowsTypedErrors) {
  EXPECT_THROW(read_file_verified(path("absent.bin")), IoError);
  const std::string p = path("rotten.bin");
  std::string framed = wrap_checksummed("payload");
  framed[framed.size() - 1] ^= 0xFF;  // corrupt stored CRC
  atomic_write_file(p, framed);
  EXPECT_THROW(read_file_verified(p), CorruptFileError);
}

TEST_F(DurableIoTest, FaultStreamFailsAtTheLimit) {
  FaultStream fs_ok(100);
  fs_ok << "short write";
  EXPECT_TRUE(fs_ok.good());
  EXPECT_EQ(fs_ok.data(), "short write");

  FaultStream fs_cut(5);
  fs_cut << "abcdefghij";
  EXPECT_FALSE(fs_cut.good()) << "write past the limit must fail";
  EXPECT_EQ(fs_cut.data(), "abcde") << "bytes before the cut are kept";
}

}  // namespace
}  // namespace satd::durable
