// Multi-process campaign execution (the claim protocol of exp/runner.h):
// fold byte-identity at any worker count, second-joiner no-op, stale-claim
// stealing, waiting on live peers, the observability flags under
// --workers, and THE acceptance gate — a 2-worker run of
// campaigns/fig09_toy.json through the real clover_campaign binary is
// byte-identical to the 1-worker run, including after a worker is
// SIGKILLed mid-campaign and a replacement joins.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fs.h"
#include "common/json.h"
#include "exp/campaign.h"
#include "exp/journal.h"
#include "exp/runner.h"

namespace clover::exp {
namespace {

namespace fs = std::filesystem;

std::string FigToyPath() {
  return std::string(CLOVER_SOURCE_DIR) + "/campaigns/fig09_toy.json";
}

std::string CampaignBinary() {
  return std::string(CLOVER_BINARY_DIR) + "/examples/clover_campaign";
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

CampaignSpec TinySpec() {
  return ParseCampaignSpec(ParseJson(R"({
    "schema": "clover-campaign-v1",
    "name": "worker_tiny",
    "grid": {
      "scheme": ["base", "clover"],
      "app": "classification",
      "trace": ["flat", "step"],
      "gpus": 2,
      "hours": 0.25
    }
  })"));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// The reference bytes every test compares against: one fresh in-process
// run over a fresh directory. Computed once per spec.
const std::string& TinyReferenceBytes() {
  static const std::string* bytes = [] {
    CampaignOptions options;
    options.out_dir = FreshDir("worker_tiny_ref");
    const CampaignResult result = RunCampaign(TinySpec(), options);
    return new std::string(Slurp(result.consolidated_path));
  }();
  return *bytes;
}

const std::string& FigToyReferenceBytes() {
  static const std::string* bytes = [] {
    CampaignOptions options;
    options.out_dir = FreshDir("worker_figtoy_ref");
    const CampaignResult result =
        RunCampaign(LoadCampaignSpec(FigToyPath()), options);
    return new std::string(Slurp(result.consolidated_path));
  }();
  return *bytes;
}

// What `clover_campaign worker` runs: adopt whatever peers have committed.
CampaignOptions JoinerOptions(const std::string& out_dir) {
  CampaignOptions options;
  options.out_dir = out_dir;
  options.resume = true;
  return options;
}

// fork + exec the real binary with stdout/stderr discarded. Returns the
// child pid; Reap() waits and returns the exit status (-1 on abnormal
// termination, e.g. SIGKILL).
pid_t Spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  EXPECT_GT(pid, 0);
  return pid;
}

int Reap(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CampaignWorkerTest, SoloWorkerFoldsAndAJoinerIsAByteIdenticalNoOp) {
  const CampaignSpec spec = TinySpec();
  const CampaignOptions options = JoinerOptions(FreshDir("worker_solo"));

  const CampaignResult first = RunCampaign(spec, options);
  EXPECT_EQ(first.executed_cells, 4);
  EXPECT_EQ(first.executed_cells + first.resumed_cells, 4);
  EXPECT_EQ(Slurp(first.consolidated_path), TinyReferenceBytes());

  // A worker joining after completion executes nothing and re-publishes
  // the identical bytes.
  const CampaignResult second = RunCampaign(spec, options);
  EXPECT_EQ(second.executed_cells, 0);
  EXPECT_EQ(second.executed_cells + second.resumed_cells, 4);
  EXPECT_EQ(Slurp(second.consolidated_path), TinyReferenceBytes());

  // No leftover claims or uncommitted temp files.
  for (const auto& entry :
       fs::directory_iterator(options.out_dir + "/runs")) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.rfind(".claim-", 0), std::string::npos) << name;
    EXPECT_EQ(name.rfind(".tmp-", 0), std::string::npos) << name;
  }
}

TEST(CampaignWorkerTest, StaleClaimIsStolenAndTheCellStillCompletes) {
  const CampaignSpec spec = TinySpec();
  const CampaignOptions options = JoinerOptions(FreshDir("worker_steal"));
  fs::create_directories(options.out_dir + "/runs");

  // A claim from a long-dead worker: valid content, ancient heartbeat.
  const std::string claim_path = ClaimPath(options.out_dir, spec.cells[0]);
  ASSERT_TRUE(CreateFileExclusive(
      claim_path,
      "{\"schema\":\"clover-campaign-claim-v1\",\"owner\":\"ghost#1\","
      "\"heartbeat_unix_s\":1.0}\n"));

  const CampaignResult result = RunCampaign(spec, options);
  EXPECT_EQ(result.executed_cells, 4);
  EXPECT_EQ(Slurp(result.consolidated_path), TinyReferenceBytes());
  EXPECT_FALSE(fs::exists(claim_path));
}

TEST(CampaignWorkerTest, WaitsOnALiveClaimAndAdoptsThePeersJournal) {
  const CampaignSpec spec = TinySpec();
  TinyReferenceBytes();  // materialize the reference journals first
  const std::string ref_dir = ::testing::TempDir() + "/worker_tiny_ref";

  const CampaignOptions options = JoinerOptions(FreshDir("worker_wait"));
  fs::create_directories(options.out_dir + "/runs");

  // A live peer holds cells[0]: fresh heartbeat, so the worker must not
  // steal it — it executes the other three cells and waits.
  const std::string claim_path = ClaimPath(options.out_dir, spec.cells[0]);
  const double now_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  ASSERT_TRUE(CreateFileExclusive(
      claim_path,
      "{\"schema\":\"clover-campaign-claim-v1\",\"owner\":\"peer#2\","
      "\"heartbeat_unix_s\":" + std::to_string(now_s) + "}\n"));

  // The "peer" publishes its journal (atomically: tmp + rename, like the
  // real COMMIT step) a beat later and releases its claim.
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const std::string src = JournalPath(ref_dir, spec.cells[0]);
    const std::string dst = JournalPath(options.out_dir, spec.cells[0]);
    const std::string tmp = options.out_dir + "/runs/.tmp-peer-copy";
    fs::copy_file(src, tmp);
    fs::rename(tmp, dst);
    fs::remove(claim_path);
  });
  const CampaignResult result = RunCampaign(spec, options);
  peer.join();

  EXPECT_EQ(result.executed_cells, 3);
  EXPECT_EQ(Slurp(result.consolidated_path), TinyReferenceBytes());
}

TEST(CampaignWorkerTest, TwoWorkerBinaryRunIsByteIdenticalToOneWorker) {
  const std::string out_1 = FreshDir("figtoy_w1");
  const std::string out_2 = FreshDir("figtoy_w2");
  ASSERT_EQ(Reap(Spawn({CampaignBinary(), "run", FigToyPath(), "--workers",
                        "1", "--out", out_1})),
            0);
  ASSERT_EQ(Reap(Spawn({CampaignBinary(), "run", FigToyPath(), "--workers",
                        "2", "--out", out_2})),
            0);
  const std::string bytes_1 = Slurp(out_1 + "/CAMPAIGN_fig09_toy.json");
  EXPECT_EQ(bytes_1, Slurp(out_2 + "/CAMPAIGN_fig09_toy.json"));
  EXPECT_EQ(bytes_1, FigToyReferenceBytes());
}

TEST(CampaignWorkerTest, SigkilledWorkerIsReplacedWithIdenticalOutput) {
  // THE kill-resume acceptance property: SIGKILL a worker mid-campaign
  // (claims held, journals possibly half-published as .tmp files), let a
  // replacement join with a short TTL, and the folded output must still be
  // byte-identical to an undisturbed 1-worker run.
  const std::string out_dir = FreshDir("figtoy_kill");
  const CampaignSpec spec = LoadCampaignSpec(FigToyPath());
  fs::create_directories(out_dir + "/runs");

  // Pin one cell under a fresh foreign claim (and give the victim a huge
  // TTL so it never steals it): the victim can make progress but can
  // never finish, so the SIGKILL below is guaranteed to land mid-run —
  // without this, a fast victim could complete before the kill and the
  // test would degenerate into a plain resume.
  const std::string pin_path = ClaimPath(out_dir, spec.cells[0]);
  const double now_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  ASSERT_TRUE(CreateFileExclusive(
      pin_path,
      "{\"schema\":\"clover-campaign-claim-v1\",\"owner\":\"pin#3\","
      "\"heartbeat_unix_s\":" + std::to_string(now_s) + "}\n"));

  const pid_t victim = Spawn({CampaignBinary(), "worker", FigToyPath(),
                              "--out", out_dir, "--claim-ttl", "600"});
  // Kill only once the victim has demonstrably journaled a cell.
  bool progressed = false;
  for (int i = 0; i < 1000 && !progressed; ++i) {
    for (std::size_t c = 1; c < spec.cells.size() && !progressed; ++c)
      progressed = fs::exists(JournalPath(out_dir, spec.cells[c]));
    if (!progressed)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(progressed) << "victim made no progress before the kill";
  ::kill(victim, SIGKILL);
  EXPECT_EQ(Reap(victim), -1);  // died by signal, not a clean exit
  fs::remove(pin_path);  // hand the pinned cell to the replacement

  CampaignOptions options = JoinerOptions(out_dir);
  options.claim_ttl_s = 1.0;  // the victim's claims go stale in ~1 s
  const CampaignResult result =
      RunCampaign(LoadCampaignSpec(FigToyPath()), options);
  EXPECT_EQ(Slurp(result.consolidated_path), FigToyReferenceBytes());
  EXPECT_GE(result.executed_cells, 1);  // at least the pinned cell
  EXPECT_EQ(result.executed_cells + result.resumed_cells, 6);
}

TEST(CampaignWorkerTest, TraceAndMetricsFlagsApplyUnderWorkers) {
  // Every run flag applies in every mode: under --workers the parent
  // process still dumps its own trace and metrics.
  const std::string out_dir = FreshDir("figtoy_obs");
  const std::string trace = ::testing::TempDir() + "/figtoy_obs_trace.json";
  const std::string metrics =
      ::testing::TempDir() + "/figtoy_obs_metrics.json";
  fs::remove(trace);
  fs::remove(metrics);
  ASSERT_EQ(Reap(Spawn({CampaignBinary(), "run", FigToyPath(), "--workers",
                        "1", "--out", out_dir, "--trace-out", trace,
                        "--metrics-out", metrics})),
            0);
  for (const std::string& path : {trace, metrics}) {
    ASSERT_TRUE(fs::exists(path)) << path;
    EXPECT_NO_THROW(ParseJsonFile(path)) << path;
  }
}

}  // namespace
}  // namespace clover::exp
