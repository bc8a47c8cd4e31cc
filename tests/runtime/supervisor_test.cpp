// Chaos suite for the job supervisor: dependency scheduling, retry with
// deterministic backoff, watchdog overruns, graceful degradation, and —
// the headline property — crash-only resume that reproduces bit-identical
// artifacts after a simulated `kill -9`.
//
// All time is a FakeClock and all faults are injected at exact
// (job, attempt) coordinates, so every scenario is deterministic.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "runtime/supervisor.h"
#include "temp_path.h"

namespace satd::runtime {
namespace {

namespace fs = std::filesystem;

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm();
    dir_ = unique_temp_path("satd_supervisor_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_path_ = (dir_ / "manifest.bin").string();
  }
  void TearDown() override {
    fault::disarm();
    fs::remove_all(dir_);
  }

  Supervisor::Options options(FakeClock& clock, double jitter = 0.0) {
    Supervisor::Options o;
    o.manifest_path = manifest_path_;
    o.fingerprint = "test";
    o.clock = &clock;
    o.backoff.base_delay = 1.0;
    o.backoff.multiplier = 2.0;
    o.backoff.max_delay = 8.0;
    o.backoff.jitter_fraction = jitter;
    return o;
  }

  /// A job that logs its execution and succeeds.
  Job ok_job(const std::string& name, std::vector<std::string>& log,
             std::vector<std::string> deps = {}) {
    Job job;
    job.name = name;
    job.deps = std::move(deps);
    job.run = [name, &log](JobContext&) {
      log.push_back(name);
      return JobResult::ok();
    };
    return job;
  }

  const JobOutcome& outcome_of(const MatrixReport& report,
                               const std::string& name) {
    for (const auto& job : report.jobs) {
      if (job.name == name) return job;
    }
    ADD_FAILURE() << "no outcome for " << name;
    static JobOutcome missing;
    return missing;
  }

  fs::path dir_;
  std::string manifest_path_;
};

TEST_F(SupervisorTest, RunsJobsInDependencyOrder) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  supervisor.add(ok_job("c", log, {"b"}));
  supervisor.add(ok_job("b", log, {"a"}));
  supervisor.add(ok_job("a", log));
  const MatrixReport report = supervisor.run();
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(SupervisorTest, UnknownDependencyThrows) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  supervisor.add(ok_job("a", log, {"ghost"}));
  EXPECT_THROW(supervisor.run(), std::invalid_argument);
}

TEST_F(SupervisorTest, DependencyCycleThrows) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  supervisor.add(ok_job("a", log, {"b"}));
  supervisor.add(ok_job("b", log, {"a"}));
  EXPECT_THROW(supervisor.run(), std::invalid_argument);
}

TEST_F(SupervisorTest, DuplicateJobNameIsRejected) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  supervisor.add(ok_job("a", log));
  EXPECT_ANY_THROW(supervisor.add(ok_job("a", log)));
}

TEST_F(SupervisorTest, RetriesWithExponentialBackoffThenSucceeds) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::size_t calls = 0;
  Job job;
  job.name = "flaky";
  job.max_attempts = 5;
  job.run = [&calls](JobContext&) {
    return ++calls < 3 ? JobResult::failed("transient")
                       : JobResult::ok();
  };
  supervisor.add(std::move(job));
  const MatrixReport report = supervisor.run();
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(outcome_of(report, "flaky").attempts, 3u);
  // Two retries at the jitter-free geometric schedule: 1s then 2s.
  EXPECT_EQ(clock.sleeps(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(SupervisorTest, BackoffScheduleIsReproducibleFromSeed) {
  auto run_schedule = [this] {
    FakeClock clock;
    Supervisor::Options o = options(clock, /*jitter=*/0.2);
    o.manifest_path.clear();  // memory-only; isolate schedules
    Supervisor supervisor(o);
    Job job;
    job.name = "doomed";
    job.max_attempts = 4;
    job.run = [](JobContext&) { return JobResult::failed("always"); };
    supervisor.add(std::move(job));
    supervisor.run();
    return clock.sleeps();
  };
  const auto first = run_schedule();
  ASSERT_EQ(first.size(), 3u);  // 4 attempts -> 3 backoff sleeps
  EXPECT_EQ(first, run_schedule());
}

TEST_F(SupervisorTest, ExhaustedRetriesDegradeWithoutStoppingOthers) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  Job bad;
  bad.name = "bad";
  bad.max_attempts = 2;
  bad.run = [](JobContext&) -> JobResult { throw std::runtime_error("boom"); };
  supervisor.add(std::move(bad));
  supervisor.add(ok_job("child", log, {"bad"}));
  supervisor.add(ok_job("independent", log));

  const MatrixReport report = supervisor.run();
  EXPECT_FALSE(report.all_done());
  EXPECT_EQ(report.done(), 1u);
  EXPECT_EQ(report.degraded(), 2u);

  const JobOutcome& bad_out = outcome_of(report, "bad");
  EXPECT_EQ(bad_out.state, JobState::kDegraded);
  EXPECT_EQ(bad_out.attempts, 2u);
  EXPECT_EQ(bad_out.reason, "failed: boom");
  EXPECT_EQ(bad_out.kind, FailureKind::kFailed);

  const JobOutcome& child = outcome_of(report, "child");
  EXPECT_EQ(child.state, JobState::kDegraded);
  EXPECT_EQ(child.reason, "dependency not satisfied: bad");

  EXPECT_EQ(outcome_of(report, "independent").state, JobState::kDone);
  EXPECT_EQ(log, (std::vector<std::string>{"independent"}));
}

TEST_F(SupervisorTest, InjectedHangOverrunsDeadlineAndRetries) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  fault::arm_job_hang("slow", /*attempt=*/1);
  std::size_t calls = 0;
  Job job;
  job.name = "slow";
  job.deadline_seconds = 10.0;
  job.max_attempts = 3;
  job.run = [&calls](JobContext&) {
    ++calls;
    return JobResult::ok();
  };
  supervisor.add(std::move(job));
  const MatrixReport report = supervisor.run();
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(outcome_of(report, "slow").attempts, 2u);
  EXPECT_EQ(calls, 1u);  // the hung attempt never reached the body
  // The hang burned 125% of the deadline, then one backoff sleep.
  EXPECT_EQ(clock.sleeps(), (std::vector<double>{12.5, 1.0}));
}

TEST_F(SupervisorTest, PersistentHangDegradesAsOverrun) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  fault::arm_job_hang("slow", 1);
  fault::arm_job_hang("slow", 2);
  Job job;
  job.name = "slow";
  job.deadline_seconds = 10.0;
  job.max_attempts = 2;
  job.run = [](JobContext&) { return JobResult::ok(); };
  supervisor.add(std::move(job));
  const MatrixReport report = supervisor.run();
  const JobOutcome& out = outcome_of(report, "slow");
  EXPECT_EQ(out.state, JobState::kDegraded);
  EXPECT_EQ(out.reason, "deadline_overrun: injected hang");
  EXPECT_EQ(out.kind, FailureKind::kTimeout);
}

TEST_F(SupervisorTest, FailureAfterDeadlineCountsAsOverrun) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  Job job;
  job.name = "cooperative";
  job.deadline_seconds = 5.0;
  job.max_attempts = 1;
  // Models a trainer whose stop check fired: the body burned its budget,
  // bailed out mid-work and surfaced an error.
  job.run = [&clock](JobContext& ctx) -> JobResult {
    clock.advance(6.0);
    EXPECT_TRUE(ctx.expired());
    throw std::runtime_error("stopped at epoch boundary");
  };
  supervisor.add(std::move(job));
  const MatrixReport report = supervisor.run();
  const JobOutcome& out = outcome_of(report, "cooperative");
  EXPECT_EQ(out.state, JobState::kDegraded);
  EXPECT_EQ(out.reason, "deadline_overrun: stopped at epoch boundary");
  EXPECT_EQ(out.kind, FailureKind::kTimeout);
}

TEST_F(SupervisorTest, CrashLeavesRunningRecordInJournal) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  std::vector<std::string> log;
  supervisor.add(ok_job("a", log));
  supervisor.add(ok_job("b", log, {"a"}));
  fault::arm_job_crash("b", /*attempt=*/1);
  EXPECT_THROW(supervisor.run(), SimulatedCrashError);

  // The journal reads exactly as a SIGKILLed process would leave it.
  Manifest journal(manifest_path_, "test");
  ASSERT_TRUE(journal.load());
  EXPECT_EQ(journal.find("a")->state, JobState::kDone);
  const JobRecord* b = journal.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->state, JobState::kRunning);
  EXPECT_EQ(b->attempts, 1u);
}

TEST_F(SupervisorTest, ResumeAfterCrashReproducesIdenticalArtifacts) {
  const std::string out_a = (dir_ / "a.csv").string();
  const std::string out_b = (dir_ / "b.csv").string();
  std::size_t runs_a = 0, runs_b = 0;

  auto writer_job = [](const std::string& name, const std::string& path,
                       const std::string& payload, std::size_t& runs,
                       std::vector<std::string> deps) {
    Job job;
    job.name = name;
    job.deps = std::move(deps);
    job.outputs = {path};
    job.run = [path, payload, &runs](JobContext&) {
      ++runs;
      durable::atomic_write_file(path, payload);
      return JobResult::ok();
    };
    return job;
  };

  // Episode 1: crashes (simulated kill -9) during b's first attempt.
  {
    FakeClock clock;
    Supervisor supervisor(options(clock));
    supervisor.add(writer_job("a", out_a, "artifact-a\n", runs_a, {}));
    supervisor.add(writer_job("b", out_b, "artifact-b\n", runs_b, {"a"}));
    fault::arm_job_crash("b", 1);
    EXPECT_THROW(supervisor.run(), SimulatedCrashError);
    EXPECT_EQ(runs_a, 1u);
    EXPECT_EQ(runs_b, 0u);
  }

  // Episode 2: a fresh supervisor (new process) adopts the journal.
  {
    FakeClock clock;
    Supervisor supervisor(options(clock));
    supervisor.add(writer_job("a", out_a, "artifact-a\n", runs_a, {}));
    supervisor.add(writer_job("b", out_b, "artifact-b\n", runs_b, {"a"}));
    const MatrixReport report = supervisor.run();
    EXPECT_TRUE(report.all_done());

    const JobOutcome& a = outcome_of(report, "a");
    EXPECT_TRUE(a.resumed);          // completed work was not repeated
    EXPECT_EQ(runs_a, 1u);
    const JobOutcome& b = outcome_of(report, "b");
    EXPECT_FALSE(b.resumed);
    EXPECT_EQ(b.attempts, 2u);       // the crashed attempt spent budget
    EXPECT_EQ(runs_b, 1u);
  }

  EXPECT_EQ(durable::read_file_verified(out_a), "artifact-a\n");
  EXPECT_EQ(durable::read_file_verified(out_b), "artifact-b\n");
}

TEST_F(SupervisorTest, DoneRecordWithMissingOutputsReruns) {
  const std::string out = (dir_ / "artifact.bin").string();
  std::size_t runs = 0;
  auto make_job = [&] {
    Job job;
    job.name = "producer";
    job.outputs = {out};
    job.run = [out, &runs](JobContext&) {
      ++runs;
      durable::atomic_write_file(out, "payload");
      return JobResult::ok();
    };
    return job;
  };
  {
    FakeClock clock;
    Supervisor supervisor(options(clock));
    supervisor.add(make_job());
    EXPECT_TRUE(supervisor.run().all_done());
  }
  fs::remove(out);  // cache eviction / operator cleanup
  {
    FakeClock clock;
    Supervisor supervisor(options(clock));
    supervisor.add(make_job());
    const MatrixReport report = supervisor.run();
    EXPECT_TRUE(report.all_done());
    EXPECT_FALSE(outcome_of(report, "producer").resumed);
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_TRUE(fs::exists(out));
}

TEST_F(SupervisorTest, FingerprintChangeInvalidatesResume) {
  std::vector<std::string> log;
  {
    FakeClock clock;
    Supervisor supervisor(options(clock));
    supervisor.add(ok_job("a", log));
    EXPECT_TRUE(supervisor.run().all_done());
  }
  {
    FakeClock clock;
    Supervisor::Options o = options(clock);
    o.fingerprint = "different-scale";
    Supervisor supervisor(o);
    supervisor.add(ok_job("a", log));
    const MatrixReport report = supervisor.run();
    EXPECT_TRUE(report.all_done());
    EXPECT_FALSE(outcome_of(report, "a").resumed);
  }
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(SupervisorTest, ReportListsDegradedReasons) {
  FakeClock clock;
  Supervisor supervisor(options(clock));
  Job bad;
  bad.name = "bad";
  bad.max_attempts = 1;
  bad.run = [](JobContext&) { return JobResult::failed("no such dataset"); };
  supervisor.add(std::move(bad));
  const MatrixReport report = supervisor.run();
  const std::string text = report.to_string();
  EXPECT_NE(text.find("DEGRADED"), std::string::npos);
  EXPECT_NE(text.find("failed: no such dataset"), std::string::npos);
  EXPECT_NE(text.find("0/1 done"), std::string::npos);
}

}  // namespace
}  // namespace satd::runtime
