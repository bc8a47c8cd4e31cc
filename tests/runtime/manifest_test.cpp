// Durable job journal: round trips, upserts, fingerprint guard, and
// crash-only recovery from a corrupt file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/durable_io.h"
#include "runtime/manifest.h"
#include "tensor/serialize.h"
#include "temp_path.h"

namespace satd::runtime {
namespace {

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("satd_manifest_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "manifest.bin").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string path_;
};

TEST_F(ManifestTest, RoundTripsRecords) {
  {
    Manifest m(path_, "fp");
    EXPECT_FALSE(m.load());  // nothing on disk yet
    m.record({"train:a", JobState::kDone, 2, "", {"a.model", "a.report"}});
    m.record({"train:b", JobState::kRunning, 1, "", {}});
    m.record({"exp:c", JobState::kDegraded, 3, "failed: boom", {"c.csv"}});
  }
  Manifest m2(path_, "fp");
  ASSERT_TRUE(m2.load());
  ASSERT_EQ(m2.records().size(), 3u);

  const JobRecord* a = m2.find("train:a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, JobState::kDone);
  EXPECT_EQ(a->attempts, 2u);
  ASSERT_EQ(a->outputs.size(), 2u);
  EXPECT_EQ(a->outputs[0], "a.model");

  const JobRecord* b = m2.find("train:b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->state, JobState::kRunning);

  const JobRecord* c = m2.find("exp:c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, JobState::kDegraded);
  EXPECT_EQ(c->reason, "failed: boom");
}

TEST_F(ManifestTest, RecordUpsertsByName) {
  Manifest m(path_, "fp");
  m.record({"job", JobState::kRunning, 1, "", {}});
  m.record({"job", JobState::kDone, 1, "", {}});
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.find("job")->state, JobState::kDone);

  Manifest reloaded(path_, "fp");
  ASSERT_TRUE(reloaded.load());
  ASSERT_EQ(reloaded.records().size(), 1u);
  EXPECT_EQ(reloaded.find("job")->state, JobState::kDone);
}

TEST_F(ManifestTest, FingerprintMismatchStartsFresh) {
  {
    Manifest m(path_, "scale=tiny");
    m.record({"job", JobState::kDone, 1, "", {}});
  }
  Manifest other(path_, "scale=paper");
  EXPECT_FALSE(other.load());
  EXPECT_TRUE(other.records().empty());
}

TEST_F(ManifestTest, CorruptJournalIsQuarantined) {
  {
    std::ofstream os(path_, std::ios::binary);
    os << "definitely not a manifest";
  }
  Manifest m(path_, "fp");
  EXPECT_FALSE(m.load());
  EXPECT_FALSE(fs::exists(path_));               // moved aside
  EXPECT_TRUE(fs::exists(path_ + ".corrupt"));   // kept for inspection
  // The quarantined journal never blocks progress: recording works.
  m.record({"job", JobState::kDone, 1, "", {}});
  Manifest reloaded(path_, "fp");
  EXPECT_TRUE(reloaded.load());
}

TEST_F(ManifestTest, TruncatedJournalIsQuarantined) {
  {
    Manifest m(path_, "fp");
    m.record({"job", JobState::kDone, 1, "", {"out.csv"}});
  }
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size / 2);
  Manifest m(path_, "fp");
  EXPECT_FALSE(m.load());
  EXPECT_TRUE(fs::exists(path_ + ".corrupt"));
}

TEST_F(ManifestTest, MemoryOnlyManifestTouchesNoDisk) {
  Manifest m("", "fp");
  EXPECT_FALSE(m.load());
  m.record({"job", JobState::kDone, 1, "", {}});
  EXPECT_NE(m.find("job"), nullptr);
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(ManifestTest, RoundTripsSpoolerAccountingFields) {
  {
    Manifest m(path_, "fp");
    JobRecord rec("train:a", JobState::kDegraded, 3,
                  "timeout: SIGKILLed past the watchdog deadline",
                  {"a.model"});
    rec.kind = FailureKind::kTimeout;
    rec.exit_code = -1;
    rec.exit_signal = 9;
    rec.pid = 4242;
    rec.start_id = "123456789";
    rec.cores = {2, 3};
    rec.usage.wall_seconds = 12.5;
    rec.usage.user_seconds = 11.25;
    rec.usage.sys_seconds = 0.75;
    rec.usage.peak_rss_kb = 81920;
    m.record(rec);
  }
  Manifest m2(path_, "fp");
  ASSERT_TRUE(m2.load());
  const JobRecord* rec = m2.find("train:a");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->kind, FailureKind::kTimeout);
  EXPECT_EQ(rec->exit_code, -1);
  EXPECT_EQ(rec->exit_signal, 9);
  EXPECT_EQ(rec->pid, 4242);
  EXPECT_EQ(rec->start_id, "123456789");
  EXPECT_EQ(rec->cores, (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(rec->usage.wall_seconds, 12.5);
  EXPECT_DOUBLE_EQ(rec->usage.user_seconds, 11.25);
  EXPECT_DOUBLE_EQ(rec->usage.sys_seconds, 0.75);
  EXPECT_EQ(rec->usage.peak_rss_kb, 81920);
}

TEST_F(ManifestTest, LoadsV1JournalsWithDefaultedAccounting) {
  // Hand-craft a SATDMAN1 payload: journals written before the spooler
  // landed must keep resuming (their extras default).
  durable::write_file_checksummed(path_, [](std::ostream& os) {
    os.write("SATDMAN1", 8);
    write_string(os, "fp");
    write_u64(os, 1);
    write_string(os, "train:old");
    write_u64(os, static_cast<std::uint64_t>(JobState::kDone));
    write_u64(os, 2);  // attempts
    write_string(os, "");
    write_u64(os, 1);  // outputs
    write_string(os, "old.model");
  });
  Manifest m(path_, "fp");
  ASSERT_TRUE(m.load());
  const JobRecord* rec = m.find("train:old");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_EQ(rec->attempts, 2u);
  ASSERT_EQ(rec->outputs.size(), 1u);
  EXPECT_EQ(rec->kind, FailureKind::kNone);
  EXPECT_EQ(rec->pid, 0);
  EXPECT_TRUE(rec->start_id.empty());
  EXPECT_TRUE(rec->cores.empty());
  EXPECT_EQ(rec->usage.peak_rss_kb, 0);
  // The next flush upgrades the journal to v2 in place.
  m.record({"train:new", JobState::kRunning, 1, "", {}});
  Manifest upgraded(path_, "fp");
  ASSERT_TRUE(upgraded.load());
  EXPECT_EQ(upgraded.records().size(), 2u);
}

TEST_F(ManifestTest, CreatesMissingParentDirectories) {
  const std::string nested = (dir_ / "cache" / "deep" / "manifest.bin").string();
  Manifest m(nested, "fp");
  m.record({"job", JobState::kRunning, 1, "", {}});
  EXPECT_TRUE(fs::exists(nested));
}

}  // namespace
}  // namespace satd::runtime
