#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "fault/fault.hpp"
#include "obs/quantile.hpp"

namespace lb::e2e {

void Digest::add(const std::string& result_bytes) {
  sum += fault::fnv1a64(result_bytes);  // unsigned: wraps, order-free
  ++count;
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(sum));
  return buffer;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  service::Json entry = service::Json::object();
  entry.set("value", service::Json(value)).set("unit", service::Json(unit));
  metrics_.set(name, std::move(entry));
}

void Report::fail(const std::string& reason) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(reason);
}

service::Json Report::toJson(const RunConfig& config) const {
  using service::Json;
  Json errors = Json::array();
  for (const std::string& e : errors_) errors.push(Json(e));
  Json doc = Json::object();
  doc.set("workload", Json(config.workload))
      .set("seed", Json(config.seed))
      .set("trace", Json(config.trace))
      .set("smoke", Json(config.smoke))
      .set("attempted", Json(attempted_))
      .set("failed", Json(failed_))
      .set("errors", std::move(errors))
      .set("digest", Json(digest.hex()))
      .set("digest_results", Json(digest.count))
      .set("metrics", metrics_)
      .set("detail", detail);
  return doc;
}

double percentile(std::vector<double> values, double q) {
  return obs::samplePercentile(std::move(values), q);
}

service::Json numbers(const std::vector<double>& values) {
  service::Json array = service::Json::array();
  for (const double v : values) array.push(service::Json(v));
  return array;
}

service::Json quartiles(const std::vector<double>& values) {
  using service::Json;
  Json json = Json::object();
  json.set("n", Json(static_cast<std::uint64_t>(values.size())))
      .set("q1", Json(percentile(values, 0.25)))
      .set("median", Json(percentile(values, 0.5)))
      .set("q3", Json(percentile(values, 0.75)));
  return json;
}

void warmCpus(double seconds) {
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t)
    threads.emplace_back([until] {
      while (Clock::now() < until) {
      }
    });
  for (std::thread& thread : threads) thread.join();
}

double peakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0.0;
}

service::Scenario busScenario(const std::string& arbiter,
                              const std::string& traffic_class,
                              std::size_t masters, sim::Cycle cycles,
                              std::uint64_t seed) {
  service::Scenario scenario;
  scenario.arbiter = arbiter;
  scenario.traffic_class = traffic_class;
  scenario.masters = masters;
  scenario.weights.clear();
  for (std::size_t m = 1; m <= masters; ++m)
    scenario.weights.push_back(static_cast<std::uint32_t>(m));
  scenario.cycles = cycles;
  scenario.seed = seed;
  return scenario;
}

std::string encodeResult(const service::ScenarioResult& result) {
  return service::toJson(result).dump();
}

}  // namespace lb::e2e
