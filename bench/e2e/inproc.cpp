#include "inproc.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unistd.h>

#include "noc/mesh.hpp"
#include "service/metrics.hpp"
#include "sim/rng.hpp"
#include "traffic/classes.hpp"
#include "traffic/generator.hpp"
#include "traffic/testbed.hpp"

namespace lb::e2e {
namespace {

using service::Scenario;
using service::ScenarioResult;

constexpr int kSetupRepeats = 7;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
/// One scenario in this many is re-run on the naive stepper after the timed
/// window; any difference from the fast kernel's answer is a failure.
constexpr std::size_t kNaiveOracleStride = 8;
/// One arbiter decision in this many is timed in a traced pass.
constexpr std::uint64_t kDecideSampleMask = 63;

// -- Workload inputs --------------------------------------------------------

/// The paper's regime: saturated 4- and 8-master buses under every arbiter
/// family, so kernel stepping and arbitration do all the work.
std::vector<Scenario> busSaturated(sim::Cycle cycles, sim::SplitMix64& seeds) {
  struct Arbiter {
    const char* kind;
    bool lfsr;
  };
  const Arbiter arbiters[] = {{"lottery", false},        {"lottery", true},
                              {"lottery-dynamic", false}, {"priority", false},
                              {"tdma", false},            {"rr", false}};
  const std::pair<const char*, std::size_t> traffic[] = {
      {"T1", 4}, {"T2", 4}, {"T4", 4}, {"T7", 8}, {"T8", 8}};
  std::vector<Scenario> scenarios;
  for (const Arbiter& arbiter : arbiters)
    for (const auto& [cls, masters] : traffic) {
      Scenario s =
          busScenario(arbiter.kind, cls, masters, cycles, seeds.next());
      s.lfsr = arbiter.lfsr;
      scenarios.push_back(s);
    }
  return scenarios;
}

/// Sparse and phase-locked traffic on 1-4 masters: mostly idle cycles, so
/// quiescence fast-forward does most of the work.
std::vector<Scenario> busIdle(sim::Cycle cycles, sim::SplitMix64& seeds) {
  std::vector<Scenario> scenarios;
  for (const char* cls : {"T3", "T6"})
    for (const std::size_t masters : {1, 2, 4})
      for (const char* arbiter : {"lottery", "tdma", "rr"})
        scenarios.push_back(
            busScenario(arbiter, cls, masters, cycles, seeds.next()));
  return scenarios;
}

/// Both mesh presets under every destination pattern that suits a square
/// mesh: routers and NIs do the work, the bus is unused.
std::vector<Scenario> meshes(sim::Cycle cycles, sim::SplitMix64& seeds) {
  std::vector<Scenario> scenarios;
  for (const std::string& preset : service::meshPresetNames())
    for (const char* pattern :
         {"uniform", "transpose", "hotspot", "neighbor"}) {
      Scenario s = service::meshPreset(preset);
      s.mesh.pattern = pattern;
      s.cycles = cycles;
      s.seed = seeds.next();
      scenarios.push_back(s);
    }
  return scenarios;
}

std::vector<Scenario> makeScenarios(const RunConfig& config) {
  sim::SplitMix64 seeds(config.seed);
  if (config.workload == "bus-saturated")
    return busSaturated(config.smoke ? 20000 : 500000, seeds);
  if (config.workload == "bus-idle")
    return busIdle(config.smoke ? 200000 : 5000000, seeds);
  return meshes(config.smoke ? 2000 : 25000, seeds);
}

// -- Traced execution --------------------------------------------------------

struct DecideStats {
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  double sampled_ns = 0.0;
};

/// Forwarding arbiter that counts decisions and times one in 64 of them.
/// Results are unchanged: every call reaches the wrapped policy unaltered.
class SampledArbiter final : public bus::IArbiter {
public:
  SampledArbiter(std::unique_ptr<bus::IArbiter> inner, DecideStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  sim::Cycle nextGrantOpportunity(const bus::RequestView& requests,
                                  sim::Cycle now) const override {
    return inner_->nextGrantOpportunity(requests, now);
  }
  std::string name() const override { return inner_->name(); }
  bool shouldPreempt(bus::MasterId current, const bus::RequestView& requests,
                     sim::Cycle now) override {
    return inner_->shouldPreempt(current, requests, now);
  }
  void reset() override { inner_->reset(); }

protected:
  bus::Grant decide(const bus::RequestView& requests, sim::Cycle now) override {
    if ((stats_.calls++ & kDecideSampleMask) != 0)
      return inner_->arbitrate(requests, now);
    const auto start = Clock::now();
    const bus::Grant grant = inner_->arbitrate(requests, now);
    stats_.sampled_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    ++stats_.samples;
    return grant;
  }

private:
  std::unique_ptr<bus::IArbiter> inner_;
  DecideStats& stats_;
};

/// Host time per layer and exact counts, summed over traced passes.
struct LayerTotals {
  double normalize_s = 0, encode_s = 0, step_s = 0;
  double bus_build_s = 0, bus_reduce_s = 0, noc_build_s = 0, noc_reduce_s = 0;
  std::uint64_t cycles = 0, skipped = 0;
  std::uint64_t bus_grants = 0, bus_scenarios = 0;
  double bus_idle_sum = 0;
  std::uint64_t noc_flits = 0, noc_packets = 0, noc_grants = 0;
  DecideStats decide;
};

/// Host time spent inside the layers, which must add up to a pass.
double layerSeconds(const LayerTotals& t) {
  return t.normalize_s + t.bus_build_s + t.noc_build_s + t.step_s +
         t.bus_reduce_s + t.noc_reduce_s + t.encode_s;
}

sim::KernelMode kernelMode(const Scenario& s) {
  return s.kernel_mode == "naive" ? sim::KernelMode::kNaive
                                  : sim::KernelMode::kFast;
}

/// runScenario's bus leg, with a timer around each layer call.
ScenarioResult tracedBus(const Scenario& s, LayerTotals& t) {
  auto mark = Clock::now();
  auto lap = [&mark](double& into) {
    const auto now = Clock::now();
    into += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };

  bus::BusConfig config = traffic::defaultBusConfig(s.masters);
  config.max_burst_words = s.burst;
  service::GrantTally tally(s.masters);
  traffic::TestbedOptions options;
  options.kernel_mode = kernelMode(s);
  options.setup = [&tally, &s](bus::Bus& bus, sim::CycleKernel&) {
    bus.setMetricsSinks(
        service::makeBusSinks(obs::registry(), bus.arbiter().name(),
                              s.masters));
    bus.arbiter().setObserver(&tally);
  };
  traffic::TestbedInstance testbed(
      std::move(config),
      std::make_unique<SampledArbiter>(service::makeArbiter(s), t.decide),
      traffic::paramsFor(traffic::trafficClass(s.traffic_class), s.masters,
                         s.seed),
      std::move(options));
  lap(t.bus_build_s);

  testbed.runWarmup();
  testbed.kernel().run(s.cycles);
  lap(t.step_s);

  const traffic::TestbedResult run = testbed.finish(s.cycles);
  bus::Bus& bus = testbed.bus();
  bus.arbiter().setObserver(nullptr);
  tally.publish(obs::registry(), bus.arbiter().name());
  ScenarioResult result;
  result.bandwidth_fraction = run.bandwidth_fraction;
  result.traffic_share = run.traffic_share;
  result.cycles_per_word = run.cycles_per_word;
  result.mean_message_latency = run.mean_message_latency;
  result.messages_completed = run.messages_completed;
  result.unutilized_fraction = run.unutilized_fraction;
  result.grants = run.grants;
  result.preemptions = run.preemptions;
  result.cycles = run.cycles;
  lap(t.bus_reduce_s);

  t.cycles += s.cycles;
  t.skipped += testbed.kernel().cyclesSkipped();
  t.bus_grants += run.grants;
  t.bus_idle_sum += run.unutilized_fraction;
  ++t.bus_scenarios;
  return result;
}

/// runScenario's mesh leg, with a timer around each layer call.
ScenarioResult tracedMesh(const Scenario& s, LayerTotals& t) {
  auto mark = Clock::now();
  auto lap = [&mark](double& into) {
    const auto now = Clock::now();
    into += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };

  noc::MeshConfig config;
  config.width = s.mesh.width;
  config.height = s.mesh.height;
  config.vc_count = s.mesh.vc_count;
  config.vc_depth = s.mesh.vc_depth;
  config.router_delay = s.mesh.router_delay;
  config.pattern = noc::patternFromString(s.mesh.pattern);
  config.pattern_seed = s.seed;
  config.port_weights = s.weights;
  DecideStats& decide = t.decide;
  config.arbiter_factory = [inner = service::makeRouterArbiterFactory(s),
                            &decide](noc::NodeId router, int port) {
    return std::make_unique<SampledArbiter>(inner(router, port), decide);
  };
  noc::MeshNetwork mesh(config);
  sim::CycleKernel kernel;
  kernel.setMode(kernelMode(s));
  const std::vector<traffic::TrafficParams> params = traffic::paramsFor(
      traffic::trafficClass(s.traffic_class), s.masters, s.seed);
  std::vector<std::unique_ptr<traffic::TrafficSource>> sources;
  for (std::size_t n = 0; n < s.masters; ++n) {
    sources.push_back(std::make_unique<traffic::TrafficSource>(
        mesh.ni(static_cast<noc::NodeId>(n)), static_cast<bus::MasterId>(n),
        params[n]));
    kernel.attach(*sources.back());
  }
  mesh.attachTo(kernel);
  const auto sinks =
      service::makeNocSinks(obs::registry(), s.arbiter, s.masters);
  mesh.setMetricsSinks(sinks.get());
  lap(t.noc_build_s);

  kernel.run(s.cycles);
  lap(t.step_s);

  const noc::NocStats& stats = mesh.stats();
  std::uint64_t flits = 0, packets = 0;
  for (const noc::NocStats::PerSource& src : stats.sources) {
    flits += src.flits_delivered;
    packets += src.packets_delivered;
  }
  ScenarioResult result;
  result.cycles = s.cycles;
  result.grants = stats.grants;
  const auto cycles = static_cast<double>(s.cycles);
  result.unutilized_fraction =
      1.0 - static_cast<double>(flits) /
                (cycles * static_cast<double>(s.masters));
  for (const noc::NocStats::PerSource& src : stats.sources) {
    const auto f = static_cast<double>(src.flits_delivered);
    const auto p = static_cast<double>(src.packets_delivered);
    result.bandwidth_fraction.push_back(f / cycles);
    result.traffic_share.push_back(
        flits > 0 ? f / static_cast<double>(flits) : 0.0);
    result.cycles_per_word.push_back(
        src.flits_delivered > 0 ? src.latency_sum / f : 0.0);
    result.mean_message_latency.push_back(
        src.packets_delivered > 0 ? src.latency_sum / p : 0.0);
    result.messages_completed.push_back(src.packets_delivered);
  }
  lap(t.noc_reduce_s);

  t.cycles += s.cycles;
  t.skipped += kernel.cyclesSkipped();
  t.noc_flits += flits;
  t.noc_packets += packets;
  t.noc_grants += stats.grants;
  return result;
}

/// The traced twin of `encodeResult(runScenario(raw))`.
std::string tracedAnswer(const Scenario& raw, LayerTotals& t) {
  auto start = Clock::now();
  const Scenario s = service::normalized(raw);
  (void)service::scenarioHash(s);
  t.normalize_s += secondsSince(start);
  const ScenarioResult result =
      s.mesh.enabled() ? tracedMesh(s, t) : tracedBus(s, t);
  start = Clock::now();
  std::string bytes = encodeResult(result);
  t.encode_s += secondsSince(start);
  return bytes;
}

/// Median cost of one steady_clock read pair, subtracted from sampled
/// decision times.
double clockOverheadNs() {
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    samples.push_back(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return percentile(samples, 0.5);
}

}  // namespace

bool isInProcessWorkload(const std::string& workload) {
  return workload == "bus-saturated" || workload == "bus-idle" ||
         workload == "mesh";
}

Report runInProcess(const RunConfig& config) {
  Report report;

  // Set-up, repeated: build the scenario list, then answer every scenario
  // once at a tenth of its length, which fills caches and runs the lazy
  // registry and pool initialization.
  std::vector<double> setup_s;
  std::vector<Scenario> scenarios;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto start = Clock::now();
    scenarios = makeScenarios(config);
    for (Scenario warm : scenarios) {
      warm.cycles = std::max<sim::Cycle>(1, warm.cycles / 10);
      (void)encodeResult(service::runScenario(warm));
    }
    setup_s.push_back(secondsSince(start));
  }

  const std::size_t n = scenarios.size();
  double cycles_per_pass = 0;
  for (const Scenario& s : scenarios)
    cycles_per_pass += static_cast<double>(s.cycles) * s.replicas;

  // Timed passes.  A traced run alternates untraced and traced passes so
  // both see the same machine state; the untraced ones give the baseline
  // for the overhead and reconciliation figures.
  std::vector<std::string> expected(n);
  std::vector<std::vector<double>> latency_s(n);
  std::vector<double> pass_s, traced_pass_s, traced_layer_s;
  LayerTotals layers;
  const auto window = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    const double layer_s_before = layerSeconds(layers);
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto start = Clock::now();
      const std::string bytes =
          traced ? tracedAnswer(scenarios[i], layers)
                 : encodeResult(service::runScenario(scenarios[i]));
      if (!traced) latency_s[i].push_back(secondsSince(start));
      report.attempt();
      if (pass == 0) {
        expected[i] = bytes;
        report.digest.add(bytes);
      } else if (bytes != expected[i]) {
        report.fail("scenario " + std::to_string(i) +
                    " changed its answer in " +
                    (traced ? "a traced" : "an untraced") + " pass");
      }
    }
    (traced ? traced_pass_s : pass_s).push_back(secondsSince(pass_start));
    if (traced) traced_layer_s.push_back(layerSeconds(layers) - layer_s_before);
    const std::size_t min_passes = config.trace ? kMinTracedPasses : kMinPasses;
    const bool enough = pass_s.size() >= min_passes &&
                        (!config.trace || traced_pass_s.size() >= min_passes);
    if (enough && secondsSince(window) >= config.seconds) break;
  }

  // Oracle, outside the timed window: the naive stepper must reproduce the
  // fast kernel's answer exactly.
  for (std::size_t i = config.seed % kNaiveOracleStride; i < n;
       i += kNaiveOracleStride) {
    Scenario naive = scenarios[i];
    naive.kernel_mode = "naive";
    report.attempt();
    if (encodeResult(service::runScenario(naive)) != expected[i])
      report.fail("scenario " + std::to_string(i) +
                  " differs between the fast and naive kernels");
  }

  // The simulator is deterministic, so a scenario's host time varies only
  // with interference from the rest of the machine, which only ever slows
  // it down.  Each scenario's fastest pass is therefore its cost, and an
  // undisturbed pass is the sum of those costs.
  std::vector<double> cost_ms;
  double best_pass_s = 0;
  for (const std::vector<double>& samples : latency_s) {
    const double best = *std::min_element(samples.begin(), samples.end());
    cost_ms.push_back(best * 1e3);
    best_pass_s += best;
  }
  report.detail.set("scenarios", service::Json(static_cast<std::uint64_t>(n)))
      .set("setup_s", quartiles(setup_s))
      .set("pass_s", quartiles(pass_s))
      .set("best_pass_s", service::Json(best_pass_s));

  if (!config.trace) {
    report.metric("setup_s", percentile(setup_s, 0.5), "s");
    report.metric("sim_cycles_per_s", cycles_per_pass / best_pass_s,
                  "cycles/s");
    report.metric("scenarios_per_s", static_cast<double>(n) / best_pass_s,
                  "1/s");
    report.metric("req_ms_p50", percentile(cost_ms, 0.5), "ms");
    report.metric("req_ms_p90", percentile(cost_ms, 0.9), "ms");
    report.metric("peak_rss_mb", peakRssMb(getpid()), "MiB");
    return report;
  }

  const auto passes = static_cast<double>(traced_pass_s.size());
  const double answers = passes * static_cast<double>(n);
  // Fastest passes on both sides, for the same reason as above.
  const double untraced = *std::min_element(pass_s.begin(), pass_s.end());
  const double overhead_ns = clockOverheadNs();
  const double decide_ns =
      layers.decide.samples > 0
          ? std::max(0.0, layers.decide.sampled_ns /
                              static_cast<double>(layers.decide.samples) -
                              overhead_ns)
          : 0.0;
  report.metric("service.scenario.normalize_us",
                layers.normalize_s / answers * 1e6, "us");
  report.metric("service.scenario.encode_us", layers.encode_s / answers * 1e6,
                "us");
  report.metric("traffic.build_us", layers.bus_build_s / answers * 1e6, "us");
  report.metric("traffic.reduce_us", layers.bus_reduce_s / answers * 1e6, "us");
  report.metric("noc.build_us", layers.noc_build_s / answers * 1e6, "us");
  report.metric("noc.reduce_us", layers.noc_reduce_s / answers * 1e6, "us");
  report.metric("sim.step_us", layers.step_s / answers * 1e6, "us");
  report.metric("sim.step_ns_per_cycle",
                layers.step_s * 1e9 / static_cast<double>(layers.cycles), "ns");
  report.metric("sim.cycles_skipped",
                static_cast<double>(layers.skipped) / passes, "count");
  report.metric("sim.skip_frac",
                static_cast<double>(layers.skipped) /
                    static_cast<double>(layers.cycles),
                "ratio");
  report.metric("arbiters.decisions",
                static_cast<double>(layers.decide.calls) / passes, "count");
  report.metric("arbiters.decide_ns", decide_ns, "ns");
  report.metric("arbiters.step_share",
                static_cast<double>(layers.decide.calls) * decide_ns /
                    (layers.step_s * 1e9),
                "ratio");
  report.metric("bus.grants", static_cast<double>(layers.bus_grants) / passes,
                "count");
  report.metric("bus.idle_frac",
                layers.bus_scenarios > 0
                    ? layers.bus_idle_sum /
                          static_cast<double>(layers.bus_scenarios)
                    : 0.0,
                "ratio");
  report.metric("noc.flits", static_cast<double>(layers.noc_flits) / passes,
                "count");
  report.metric("noc.packets", static_cast<double>(layers.noc_packets) / passes,
                "count");
  report.metric("noc.grants", static_cast<double>(layers.noc_grants) / passes,
                "count");
  report.metric("bench.trace_overhead_frac",
                *std::min_element(traced_pass_s.begin(), traced_pass_s.end()) /
                        untraced -
                    1.0,
                "ratio");
  report.metric(
      "bench.reconcile_gap_frac",
      std::abs(*std::min_element(traced_layer_s.begin(), traced_layer_s.end()) -
               untraced) /
          untraced,
      "ratio");
  report.detail.set("traced_pass_s", quartiles(traced_pass_s))
      .set("clock_overhead_ns", service::Json(overhead_ns));
  return report;
}

}  // namespace lb::e2e
