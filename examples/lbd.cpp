// lbd — the lbserve daemon.
//
// Turns the simulator into a long-running service: a poll-based event
// loop listens on loopback, accepts newline-delimited JSON requests
// (run / sweep / batch / stats / metrics / health / history / shutdown)
// — pipelined freely
// on any connection — executes scenarios on a persistent worker pool
// behind a bounded job queue, and serves repeated scenarios from a
// content-addressed result cache.  Every response carries the wire
// protocol version ("v": 1); the `metrics` verb exposes the process
// metrics registry as Prometheus text.  See docs/service.md for the
// event-loop architecture and the streaming `batch` verb.
//
//   ./build/examples/lbd --port 4817
//   ./build/examples/lbd --port 0 --cache-dir build/lbd-cache  # ephemeral
//   ./build/examples/lbd --port 0 --fault-plan seed=42,torn_read=0.1 # chaos
//
// Prints "lbd listening on 127.0.0.1:<port>" once ready (scripts parse
// this line to discover ephemeral ports).  `lbcli shutdown` stops it.
//
// Degraded-mode behavior (docs/robustness.md): when the job queue is full
// the daemon answers {"ok":false,"overloaded":true,"retry_after_ms":N}
// instead of blocking the connection (disable with --block-when-full), and
// connections idle past --read-deadline-ms are closed.  --fault-plan
// installs a seeded fault injector across the socket, job, and cache
// layers for chaos testing.
//
// Observability (docs/observability.md): every request is traced into a
// bounded flight recorder (--flight-recorder N spans; 0 disables) and
// dumpable live via `lbcli trace` or at shutdown via --trace-out FILE
// (Chrome trace_event JSON).  Structured stderr logging is controlled by
// --log-level (debug|info|warn|error|off) and --log-json.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "obs/log.hpp"
#include "service/parse.hpp"
#include "service/server.hpp"

int main(int argc, char** argv) {
  using namespace lb;

  service::ServerOptions server_options;
  server_options.port = 4817;
  // A daemon must not wedge its connection handlers: shed explicitly when
  // the queue is full, and drop connections idle for five minutes.
  server_options.engine.shed_when_full = true;
  server_options.read_deadline = std::chrono::milliseconds(300000);
  bool block_when_full = false;
  std::string fault_spec;
  std::size_t recorder_spans = 4096;
  std::string trace_out;
  bool log_json = false;

  service::OptionSet options("lbd", "LOTTERYBUS simulation daemon");
  options
      .value({"--port"}, "N",
             "TCP port on 127.0.0.1; 0 = ephemeral (default 4817)",
             [&](const std::string& opt, const std::string& v) {
               server_options.port = static_cast<std::uint16_t>(
                   service::parseU64InRange(opt, v, 0, 65535));
             })
      .value({"--threads"}, "N", "simulation workers (default: hardware)",
             [&](const std::string& opt, const std::string& v) {
               server_options.engine.workers =
                   service::parseU64InRange(opt, v, 1, 4096);
             })
      .value({"--queue-depth"}, "N", "bounded job-queue length (default 64)",
             [&](const std::string& opt, const std::string& v) {
               server_options.engine.queue_depth =
                   service::parseU64InRange(opt, v, 1, 1 << 20);
             })
      .value({"--timeout-ms"}, "N", "per-job wait budget (default 60000)",
             [&](const std::string& opt, const std::string& v) {
               server_options.engine.timeout = std::chrono::milliseconds(
                   service::parseU64InRange(opt, v, 1, 86400000));
             })
      .value({"--cache-capacity"}, "N",
             "in-memory result entries (default 1024)",
             [&](const std::string& opt, const std::string& v) {
               server_options.engine.cache_capacity =
                   service::parseU64InRange(opt, v, 1, 1 << 24);
             })
      .value({"--cache-dir"}, "DIR",
             "persist results as <hash>.json under DIR",
             [&](const std::string&, const std::string& v) {
               server_options.engine.cache_dir = v;
             })
      .value({"--retry-after-ms"}, "N",
             "retry hint attached to overloaded responses (default 50)",
             [&](const std::string& opt, const std::string& v) {
               server_options.engine.retry_after_ms = static_cast<std::uint32_t>(
                   service::parseU64InRange(opt, v, 1, 600000));
             })
      .value({"--read-deadline-ms"}, "N",
             "close connections idle for N ms; 0 = never (default 300000)",
             [&](const std::string& opt, const std::string& v) {
               server_options.read_deadline = std::chrono::milliseconds(
                   service::parseU64InRange(opt, v, 0, 86400000));
             })
      .flag({"--block-when-full"},
            "block submitters when the job queue is full instead of\n"
            "answering overloaded + retry_after_ms",
            &block_when_full)
      .value({"--dispatch-threads"}, "N",
             "event-loop dispatch pool size (default: auto)",
             [&](const std::string& opt, const std::string& v) {
               server_options.dispatch_threads =
                   service::parseU64InRange(opt, v, 1, 4096);
             })
      .value({"--batch-window"}, "N",
             "fair-share cap on in-flight jobs per batch request\n"
             "(default: the worker count)",
             [&](const std::string& opt, const std::string& v) {
               server_options.batch_window =
                   service::parseU64InRange(opt, v, 1, 1 << 20);
             })
      .value({"--max-batch"}, "N",
             "largest accepted batch request (default 4096 scenarios)",
             [&](const std::string& opt, const std::string& v) {
               server_options.max_batch =
                   service::parseU64InRange(opt, v, 1, 1 << 20);
             })
      .value({"--fault-plan"}, "SPEC",
             "seeded fault injection, e.g.\n"
             "seed=42,torn_read=0.1,read_reset=0.05,job_delay=0.1\n"
             "(see docs/robustness.md for the schema)",
             [&](const std::string& opt, const std::string& v) {
               try {
                 (void)fault::parseFaultPlan(v);
               } catch (const std::exception& e) {
                 throw std::invalid_argument(opt + ": " + e.what());
               }
               fault_spec = v;
             })
      .value({"--flight-recorder"}, "N",
             "flight-recorder span capacity; 0 disables request tracing\n"
             "(default 4096)",
             [&](const std::string& opt, const std::string& v) {
               recorder_spans = service::parseU64InRange(opt, v, 0, 1 << 24);
             })
      .value({"--trace-out"}, "FILE",
             "write the flight recorder as Chrome trace_event JSON to\n"
             "FILE at shutdown (open in chrome://tracing or Perfetto)",
             [&](const std::string&, const std::string& v) { trace_out = v; })
      .value({"--history-interval-ms"}, "N",
             "metrics time-series sampling interval behind the `history`\n"
             "verb; 0 disables the ring (default 1000)",
             [&](const std::string& opt, const std::string& v) {
               server_options.history_interval = std::chrono::milliseconds(
                   service::parseU64InRange(opt, v, 0, 3600000));
             })
      .value({"--history-capacity"}, "N",
             "retained time-series samples (default 120)",
             [&](const std::string& opt, const std::string& v) {
               server_options.history_capacity =
                   service::parseU64InRange(opt, v, 1, 1 << 20);
             })
      .value({"--slow-request-us"}, "SPEC",
             "slow-request exemplar threshold in microseconds: either a\n"
             "single default (\"100000\") or per-verb overrides\n"
             "(\"run=100000,batch=1000000\"); 0 disables (default 0)",
             [&](const std::string& opt, const std::string& v) {
               std::size_t start = 0;
               while (start <= v.size()) {
                 std::size_t end = v.find(',', start);
                 if (end == std::string::npos) end = v.size();
                 const std::string item = v.substr(start, end - start);
                 const std::size_t eq = item.find('=');
                 if (eq == std::string::npos) {
                   server_options.slow_request_default_us =
                       service::parseU64InRange(opt, item, 0, 1ull << 40);
                 } else {
                   server_options.slow_request_us[item.substr(0, eq)] =
                       service::parseU64InRange(opt, item.substr(eq + 1), 0,
                                                1ull << 40);
                 }
                 start = end + 1;
               }
             })
      .value({"--stall-threshold-ms"}, "N",
             "event-loop stall detector threshold; 0 disables (default 100)",
             [&](const std::string& opt, const std::string& v) {
               server_options.stall_threshold = std::chrono::milliseconds(
                   service::parseU64InRange(opt, v, 0, 3600000));
             })
      .value({"--log-level"}, "L", "debug | info | warn | error | off\n"
             "(default info)",
             [&](const std::string& opt, const std::string& v) {
               try {
                 lb::obs::log().setLevel(lb::obs::parseLogLevel(v));
               } catch (const std::exception& e) {
                 throw std::invalid_argument(opt + ": " + e.what());
               }
             })
      .flag({"--log-json"}, "emit log lines as JSON instead of key=value",
            &log_json);
  if (const int rc = options.parse(argc, argv); rc >= 0) return rc;
  server_options.engine.shed_when_full = !block_when_full;
  obs::log().setJson(log_json);

  std::unique_ptr<fault::FaultInjector> injector;
  if (!fault_spec.empty()) {
    const fault::FaultPlan plan = fault::parseFaultPlan(fault_spec);
    injector = std::make_unique<fault::FaultInjector>(plan);
    server_options.fault = injector.get();         // socket layer
    server_options.engine.fault = injector.get();  // job engine + cache
    std::cout << "lbd fault plan: " << fault::formatFaultPlan(plan)
              << std::endl;
  }

  // 0 = no recorder at all: the `trace` verb reports it disabled and every
  // response stays byte-identical to a tracing-free build.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (recorder_spans > 0) {
    recorder = std::make_unique<obs::FlightRecorder>(recorder_spans);
    server_options.recorder = recorder.get();
  }

  try {
    service::Server server(server_options);
    // Scripts parse this stdout line to discover ephemeral ports; the
    // structured log line carries the rest of the effective config.
    std::cout << "lbd listening on 127.0.0.1:" << server.port() << std::endl;
    obs::log().info(
        "lbd.start",
        {{"port", std::uint64_t{server.port()}},
         {"workers", std::uint64_t{server_options.engine.workers}},
         {"queue_depth", std::uint64_t{server_options.engine.queue_depth}},
         {"flight_recorder", std::uint64_t{recorder_spans}},
         {"fault_plan", fault_spec.empty() ? "none" : fault_spec}});
    server.serve();
    if (recorder != nullptr && !trace_out.empty()) {
      std::ofstream out(trace_out);
      if (out) {
        recorder->writeChromeTrace(out);
        obs::log().info("lbd.trace_written",
                        {{"file", trace_out},
                         {"spans", std::uint64_t{recorder->spanCount()}},
                         {"dropped", recorder->droppedSpans() +
                                         recorder->droppedEvents()}});
      } else {
        obs::log().error("lbd.trace_write_failed", {{"file", trace_out}});
      }
    }
    obs::log().info("lbd.stop", {{"port", std::uint64_t{server.port()}}});
    std::cout << "lbd stopped\n";
  } catch (const std::exception& e) {
    obs::log().error("lbd.fatal", {{"error", e.what()}});
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
