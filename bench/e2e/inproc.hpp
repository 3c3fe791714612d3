#pragma once
// In-process workloads (bus-saturated, bus-idle, mesh): scenarios answered
// through service::runScenario, the path lbsim takes.

#include "common.hpp"

namespace lb::e2e {

bool isInProcessWorkload(const std::string& workload);

/// Runs one in-process workload and fills its report.
Report runInProcess(const RunConfig& config);

}  // namespace lb::e2e
