// Kill-9 mid-gauntlet chaos drill: crash a row job, resume from the
// durable manifest, and require the merged matrix CSV to be
// byte-identical to an uninterrupted run's. This is the in-process twin
// of the CI drill that SIGKILLs the real bench_all --gauntlet binary.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "experiments.h"
#include "runtime/supervisor.h"
#include "temp_path.h"

namespace satd::bench {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GauntletChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_cwd_ = fs::current_path();
    root_ = unique_temp_path("satd_gauntlet_chaos");
    fs::remove_all(root_);
    fs::create_directories(root_ / "clean");
    fs::create_directories(root_ / "crashed");
    runtime::fault::disarm();
  }

  void TearDown() override {
    fs::current_path(original_cwd_);
    runtime::fault::disarm();
    fs::remove_all(root_);
  }

  /// The shared scale: small enough to keep three episodes fast, and one
  /// model cache across all of them so resumed training jobs are hits.
  metrics::ExperimentEnv env() const {
    metrics::ExperimentEnv env;
    env.train_size = 60;
    env.test_size = 30;
    env.epochs = 2;
    env.batch_size = 32;
    env.seed = 42;
    env.model_spec = "mlp_small";
    env.cache_dir = (root_ / "cache").string();
    return env;
  }

  /// Builds the gauntlet graph and runs it under a Supervisor in `cwd`
  /// (row/matrix CSVs land in the working directory, mirroring
  /// bench_all). An empty manifest path = memory-only.
  runtime::MatrixReport run_matrix(const fs::path& cwd,
                                   const std::string& manifest) {
    fs::current_path(cwd);
    const metrics::ExperimentEnv e = env();
    runtime::Supervisor::Options options;
    options.manifest_path = manifest;
    options.fingerprint = "gauntlet-chaos-test:" + e.describe();
    runtime::Supervisor supervisor(options);
    for (const ExperimentJob& entry :
         build_gauntlet_jobs(e, "digits", runtime::kNoDeadline, 3)) {
      runtime::Job job = entry.job;
      job.run = [&e, body = entry.body](runtime::JobContext& jc) {
        ExperimentContext ctx{e, jc.stop_check(), false};
        try {
          body(ctx);
        } catch (const ExperimentInterrupted& ex) {
          return runtime::JobResult::overrun(ex.what());
        }
        return runtime::JobResult::ok();
      };
      supervisor.add(std::move(job));
    }
    return supervisor.run();
  }

  fs::path original_cwd_;
  fs::path root_;
};

TEST_F(GauntletChaosTest, CrashedRowResumesToBitIdenticalMatrix) {
  // Episode A: uninterrupted reference run (memory-only manifest).
  const runtime::MatrixReport clean = run_matrix(root_ / "clean", "");
  ASSERT_TRUE(clean.all_done()) << clean.to_string();
  const std::string reference = slurp(root_ / "clean" / "gauntlet_matrix.csv");
  ASSERT_FALSE(reference.empty());

  // Episode B: same config in a fresh directory, journaling to a durable
  // manifest; a row job dies mid-matrix as if SIGKILLed. Training jobs
  // re-resolve through the shared model cache, so the crash lands after
  // real progress exists to preserve.
  const std::string manifest = (root_ / "gauntlet_manifest.bin").string();
  runtime::fault::arm_job_crash("gauntlet:row:proposed");
  EXPECT_THROW(run_matrix(root_ / "crashed", manifest),
               runtime::SimulatedCrashError);
  EXPECT_FALSE(fs::exists(root_ / "crashed" / "gauntlet_matrix.csv"))
      << "merge job must not have run before the crash";

  // Episode C: rerun adopts the manifest, skips adopted DONE jobs,
  // finishes the victim and the merge.
  const runtime::MatrixReport resumed = run_matrix(root_ / "crashed", manifest);
  ASSERT_TRUE(resumed.all_done()) << resumed.to_string();
  bool any_adopted = false;
  for (const runtime::JobOutcome& outcome : resumed.jobs) {
    any_adopted = any_adopted || outcome.resumed;
  }
  EXPECT_TRUE(any_adopted) << "resume must adopt pre-crash DONE jobs";

  EXPECT_EQ(slurp(root_ / "crashed" / "gauntlet_matrix.csv"), reference)
      << "resumed matrix must be bit-identical to the uninterrupted run";
}

}  // namespace
}  // namespace satd::bench
