#pragma once
// Daemon workloads (lbd-hot, lbd-cold): a spawned lbd driven over loopback
// by one client process with at most four connections.

#include "common.hpp"

namespace lb::e2e {

bool isDaemonWorkload(const std::string& workload);

/// Runs one daemon workload and fills its report.
Report runDaemon(const RunConfig& config);

}  // namespace lb::e2e
