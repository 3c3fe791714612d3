// lbbench — runs one workload of the end-to-end benchmark for a measured
// window (bench/e2e/run.py builds it and calls it once per workload) and
// prints one JSON document on stdout: the end-to-end metrics (or, with
// --trace 1, the per-layer ones), the operation counts, and the digest of
// the results the run produced.
// Inputs are generated from --seed; the simulator and the daemon only see
// the generated scenarios and arrival times.
//
//   lbbench --workload bus-saturated --seed 1 --seconds 10 --trace 0
//
// Workloads and metrics are described in bench/e2e/README.md.

#include <iostream>
#include <stdexcept>
#include <string>

#include "daemon.hpp"
#include "inproc.hpp"
#include "service/parse.hpp"

int main(int argc, char** argv) {
  using namespace lb;
  e2e::RunConfig config;
  config.work_dir = ".";
  service::OptionSet options("lbbench", "one end-to-end benchmark workload");
  options
      .value({"--workload"}, "NAME",
             "bus-saturated | bus-idle | mesh | lbd-hot | lbd-cold",
             [&](const std::string& opt, const std::string& v) {
               if (!e2e::isInProcessWorkload(v) && !e2e::isDaemonWorkload(v))
                 throw std::invalid_argument(opt + ": unknown workload \"" + v +
                                             "\"");
               config.workload = v;
             })
      .value({"--seed"}, "N", "input seed (default 1)",
             [&](const std::string& opt, const std::string& v) {
               config.seed = service::parseU64(opt, v);
             })
      .value({"--seconds"}, "S", "measured window (default 10)",
             [&](const std::string& opt, const std::string& v) {
               std::size_t used = 0;
               config.seconds = std::stod(v, &used);
               if (used != v.size() || !(config.seconds > 0))
                 throw std::invalid_argument(opt +
                                             " expects a positive number");
             })
      .value({"--trace"}, "0|1", "report per-layer metrics (default 0)",
             [&](const std::string& opt, const std::string& v) {
               config.trace = service::parseU64InRange(opt, v, 0, 1) == 1;
             })
      .flag({"--smoke"}, "tiny inputs, for the ctest smoke run",
            &config.smoke)
      .value({"--work-dir"}, "DIR",
             "directory for lbd logs and caches (default .)",
             [&](const std::string&, const std::string& v) {
               config.work_dir = v;
             });
  if (const int rc = options.parse(argc, argv); rc >= 0) return rc;
  if (config.workload.empty()) {
    std::cerr << "error: --workload is required\n";
    return 2;
  }
  try {
    e2e::warmCpus(config.smoke ? 0.1 : 1.5);
    const e2e::Report report = e2e::isInProcessWorkload(config.workload)
                                   ? e2e::runInProcess(config)
                                   : e2e::runDaemon(config);
    std::cout << report.toJson(config).dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "lbbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
