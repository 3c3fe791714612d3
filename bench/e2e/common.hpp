#pragma once
// Shared pieces of lbbench, the end-to-end benchmark's runner: run options,
// the per-run report, result digests, seeded scenario generation, and small
// statistics helpers.  See bench/e2e/README.md for the workloads and the
// metric definitions.

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "service/json.hpp"
#include "service/scenario.hpp"

namespace lb::e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of one run
  bool trace = false;     ///< report per-layer metrics instead of end-to-end
  bool smoke = false;     ///< tiny inputs: the ctest-sized run
  std::string work_dir;   ///< where lbd logs and cache directories go
};

/// Order-independent digest of a result set: the wrapping sum of 64-bit
/// FNV-1a over each result's toJson(result).dump() bytes.
struct Digest {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;

  void add(const std::string& result_bytes);
  std::string hex() const;
};

/// What one workload run produced: the metrics it reports (end-to-end or
/// per-layer, depending on RunConfig::trace), operation counts, the result
/// digest, and free-form detail for the result document.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed operation with a reason (the first few are kept).
  void fail(const std::string& reason);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  Digest digest;
  service::Json detail = service::Json::object();

  service::Json toJson(const RunConfig& config) const;

private:
  service::Json metrics_ = service::Json::object();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Exact percentile (q in [0,1]) of raw samples; 0 for an empty vector.
double percentile(std::vector<double> values, double q);

/// `values` as a JSON array, for the result document.
service::Json numbers(const std::vector<double>& values);

/// {"n", "q1", "median", "q3"} of `values`, for the result document.
service::Json quartiles(const std::vector<double>& values);

/// Spins every hardware thread for `seconds`.  On an idle virtual machine
/// the first second or so of load runs at a fraction of the later speed
/// (measured on a 4-vCPU VM: lbd-hot set-up 3x slower, capacity halved),
/// so every run starts warm.
void warmCpus(double seconds);

/// Peak resident set (VmHWM) of `pid` in MiB, or 0 when unreadable.
double peakRssMb(pid_t pid);

/// A bus scenario with tickets 1..masters.
service::Scenario busScenario(const std::string& arbiter,
                              const std::string& traffic_class,
                              std::size_t masters, sim::Cycle cycles,
                              std::uint64_t seed);

/// The canonical result bytes a scenario answers with.
std::string encodeResult(const service::ScenarioResult& result);

}  // namespace lb::e2e
