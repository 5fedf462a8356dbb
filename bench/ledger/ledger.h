// Shared plumbing of the performance ledger: run configuration, the
// result report, timing and the host-speed probe, order statistics, and
// the benchmark's own thread budget.
#ifndef UHSCM_BENCH_LEDGER_LEDGER_H_
#define UHSCM_BENCH_LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace uhscm::ledger {

using Clock = std::chrono::steady_clock;

/// One invocation: which workload, which seed, how long to measure, and
/// whether this is the traced (per-layer) run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time: the rounds of an untraced run add up to this.
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the run's snapshot files.
  std::string work_dir;
};

/// \brief Everything one run reports. End-to-end metrics are measured
/// untraced; per-layer metrics come from the traced run. Diagnostics
/// are extra context that no gate reads.
class Report {
 public:
  void E2e(const std::string& name, double value) { e2e_[name] = value; }
  void Layer(const std::string& name, double value) { layers_[name] = value; }
  void Diag(const std::string& name, double value) { diag_[name] = value; }

  /// Counts operations. A failed operation is a non-OK response, an
  /// aborted fixed-rate request, or a correctness mismatch; the first
  /// few reasons are kept for stderr.
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n, const std::string& why);

  int64_t failed() const { return failed_; }

  /// One JSON object on one line.
  std::string ToJson(const RunConfig& config) const;

 private:
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layers_;
  std::map<std::string, double> diag_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Where a run keeps its workload's snapshot file.
inline std::string SnapshotPath(const RunConfig& config) {
  return config.work_dir + "/" + config.workload + "-codes.uhsc";
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call.
inline double TimeSeconds(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// Wall and CPU time of one call. The CPU time is the whole process's,
/// summed over its threads. The kernel leaves out of it the time the
/// hypervisor gave to other guests ("steal"), so unlike wall time it does
/// not grow when other guests load a shared host.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Timing TimeCall(const std::function<void()>& fn);

/// \brief Calls `fn` once on each CPU the calling thread may run on,
/// pinned there, and returns the mean timing; the thread's affinity is
/// restored afterwards. On a shared host each vCPU's speed switches
/// between two levels every few seconds (about 1.35x apart for
/// single-threaded code, as other guests come and go on its core), so one
/// call times whichever level its vCPU happens to be in, while the mean
/// over every vCPU moves far less. Only for single-threaded `fn`: threads
/// it starts would inherit the pin.
Timing TimeOnEachCpu(const std::function<void()>& fn);

/// \brief The host's current speed: the CPU time of a fixed integer loop
/// on the calling thread. A shared host's speed drifts by up to ±15% over
/// minutes as other guests load it (clock and shared-core effects, with
/// no steal), and the loop slows with it. Code under test never runs the
/// loop, so a change to it does not move the reading.
double ProbeSeconds();
/// ProbeSeconds on the reference host: a 4-vCPU KVM guest on a 2.0 GHz
/// Xeon (Sapphire Rapids) with its neighbours quiet. A run scales its CPU
/// times by this over the median of its probes, so they read as CPU time
/// on the reference host.
constexpr double kReferenceProbeSeconds = 0.005;

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Calls `fn` `reps` times and returns the median wall time in seconds.
double MedianSeconds(int reps, const std::function<void()>& fn);

/// \brief The share of the VM's CPU time the hypervisor gave to other
/// guests ("steal", from /proc/stat) since construction: a diagnostic of
/// how much a run's wall-clock readings owe to the host. A vCPU is stolen
/// from only while it has work, so the share is meaningful over a
/// stretch in which the benchmark keeps the vCPUs busy. Reads 0 where
/// /proc/stat is unavailable.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  struct Ticks {
    int64_t steal = 0;
    int64_t total = 0;
  };
  static Ticks Read();
  Ticks start_;
};

/// A seed for one named input stream of a run, so adding a stream never
/// shifts the draws of another.
uint64_t StreamSeed(uint64_t seed, const std::string& stream);

/// \brief A thread the benchmark itself starts (completion collector,
/// writer). The load generator runs in one process with at most three
/// benchmark threads — the main thread (which sends) plus two of these —
/// and the constructor aborts the run if that budget would be exceeded,
/// so load capacity never comes from extra client threads.
class LoadThread {
 public:
  static constexpr int kMaxLoadThreads = 3;

  explicit LoadThread(std::function<void()> body);
  ~LoadThread();
  LoadThread(const LoadThread&) = delete;
  LoadThread& operator=(const LoadThread&) = delete;

  void Join();
  /// Most benchmark threads alive at once in this process, main included.
  static int PeakThreads();

 private:
  std::thread thread_;
};

/// Prints `message` to stderr and exits non-zero: the run produces no
/// result.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace uhscm::ledger

#endif  // UHSCM_BENCH_LEDGER_LEDGER_H_
