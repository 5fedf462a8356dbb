// uhscm_ledger — one run of one performance-ledger workload.
//
//   uhscm_ledger --workload=NAME --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// Prints one JSON object on the last line of stdout: the end-to-end
// metrics (untraced) or the per-layer metrics (traced), the operations
// attempted and failed, and diagnostics. Exits non-zero when any
// operation failed or any response differed from its exact reference.
// run.py builds this binary and is the interface to use.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace uhscm::ledger {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  Fatal(problem +
        "\nusage: uhscm_ledger --workload=build|serve-scan|serve-hot|"
        "serve-churn|dedup --seed=N --seconds=S --trace=0|1 --work-dir=DIR");
}

RunConfig ParseFlags(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed: " + value);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds >= 1.0 && config.seconds <= 600.0)) {
        Usage("--seconds must be in [1, 600]: " + value);
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage("unknown flag: " + arg);
    }
  }
  if (config.work_dir.empty()) Usage("--work-dir is required");
  return config;
}

}  // namespace

int Main(int argc, char** argv) {
  const RunConfig config = ParseFlags(argc, argv);
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) Fatal("cannot create " + config.work_dir + ": " + error.message());
  // Sleep with 1ns timer slack so the open-loop sender wakes on schedule
  // instead of up to 50us late (the Linux default slack).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Report report;
  if (config.workload == "build") {
    RunBuildWorkload(config, &report);
  } else if (config.workload == "serve-scan" || config.workload == "serve-hot" ||
             config.workload == "serve-churn") {
    RunServeWorkload(config, &report);
  } else if (config.workload == "dedup") {
    RunDedupWorkload(config, &report);
  } else {
    Usage("unknown workload: " + config.workload);
  }
  report.Diag("load.peak_threads", LoadThread::PeakThreads());
  std::printf("%s\n", report.ToJson(config).c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace uhscm::ledger

int main(int argc, char** argv) { return uhscm::ledger::Main(argc, argv); }
