#include "ledger.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace uhscm::ledger {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) Fatal("metric " + name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + buf;
  }
  return out + "}";
}

std::atomic<int> live_threads{1};  // the main thread
std::atomic<int> peak_threads{1};

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Report::Fail(int64_t n, const std::string& why) {
  if (n <= 0) return;
  failed_ += n;
  if (failures_.size() < 8) failures_.push_back(why);
}

std::string Report::ToJson(const RunConfig& config) const {
  std::string out = "{\"workload\": " + JsonString(config.workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"trace\": " + std::to_string(config.trace ? 1 : 0);
  out += ", \"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"e2e\": " + JsonObject(e2e_);
  out += ", \"layers\": " + JsonObject(layers_);
  out += ", \"diag\": " + JsonObject(diag_);
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(failures_[i]);
  }
  return out + "]}";
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) times.push_back(TimeSeconds(fn));
  return Median(times);
}

StealMeter::StealMeter() : start_(Read()) {}

double StealMeter::Share() const {
  const Ticks now = Read();
  const int64_t total = now.total - start_.total;
  return total > 0 ? static_cast<double>(now.steal - start_.steal) / static_cast<double>(total)
                   : 0.0;
}

StealMeter::Ticks StealMeter::Read() {
  // The first line sums every vCPU: "cpu user nice system idle iowait
  // irq softirq steal ...", in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return {};
  for (int64_t& field : fields) {
    if (!(stat >> field)) return {};
  }
  Ticks ticks;
  ticks.steal = fields[7];
  for (const int64_t field : fields) ticks.total += field;
  return ticks;
}

Timing TimeCall(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  const double cpu_start = ClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
  fn();
  return {SecondsSince(start), ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start};
}

Timing TimeOnEachCpu(const std::function<void()>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return TimeCall(fn);
  Timing sum;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const Timing t = TimeCall(fn);
    sum.wall_s += t.wall_s;
    sum.cpu_s += t.cpu_s;
    ++cpus;
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  if (cpus == 0) return TimeCall(fn);
  return {sum.wall_s / cpus, sum.cpu_s / cpus};
}

double ProbeSeconds() {
  // A short pause first, so that the core has left any wide-vector clock
  // state the code under test put it in.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double start = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  uint64_t x = 88172645463325252ULL;
  uint64_t sum = 0;
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x;
  }
  const double seconds = ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - start;
  // Keeps the loop from being optimized away.
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(sum, std::memory_order_relaxed);
  return seconds;
}

uint64_t StreamSeed(uint64_t seed, const std::string& stream) {
  uint64_t h = 1469598103934665603ULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

LoadThread::LoadThread(std::function<void()> body) {
  const int live = live_threads.fetch_add(1) + 1;
  if (live > kMaxLoadThreads) {
    Fatal("load-generator thread budget exceeded: " + std::to_string(live) +
          " benchmark threads > " + std::to_string(kMaxLoadThreads));
  }
  int peak = peak_threads.load();
  while (live > peak && !peak_threads.compare_exchange_weak(peak, live)) {
  }
  thread_ = std::thread(std::move(body));
}

LoadThread::~LoadThread() { Join(); }

void LoadThread::Join() {
  if (!thread_.joinable()) return;
  thread_.join();
  live_threads.fetch_sub(1);
}

int LoadThread::PeakThreads() { return peak_threads.load(); }

void Fatal(const std::string& message) {
  std::fprintf(stderr, "uhscm_ledger: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

}  // namespace uhscm::ledger
