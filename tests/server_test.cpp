// Loopback tests for the lbd wire protocol: an in-process Server on an
// ephemeral port exercised through the real Client socket path, plus
// protocol-level tests against Server::handleRequest directly (no socket).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace {

using namespace lb;
using service::Json;
using service::Scenario;

service::ServerOptions testOptions() {
  service::ServerOptions options;
  options.port = 0;  // ephemeral
  options.engine.workers = 2;
  options.engine.queue_depth = 8;
  options.engine.cache_capacity = 64;
  return options;
}

Json smallScenarioJson(std::uint64_t seed) {
  Scenario scenario;
  scenario.cycles = 15000;
  scenario.seed = seed;
  return service::toJson(scenario);
}

TEST(ServerProtocolTest, RunVerbMatchesLocalExecution) {
  service::Server server(testOptions());
  Json request = Json::object();
  request.set("verb", Json("run")).set("scenario", smallScenarioJson(7));
  const Json response = Json::parse(server.handleRequest(request.dump()));
  ASSERT_TRUE(response.at("ok").asBool());
  EXPECT_FALSE(response.at("cached").asBool());

  Scenario scenario;
  scenario.cycles = 15000;
  scenario.seed = 7;
  EXPECT_EQ(service::resultFromJson(response.at("result")),
            service::runScenario(scenario));
  EXPECT_EQ(response.at("hash").asString(),
            service::scenarioHashHex(scenario));

  // Identical request again: served from the cache, same payload.
  const Json again = Json::parse(server.handleRequest(request.dump()));
  ASSERT_TRUE(again.at("ok").asBool());
  EXPECT_TRUE(again.at("cached").asBool());
  EXPECT_EQ(again.at("result").dump(), response.at("result").dump());
}

TEST(ServerProtocolTest, MalformedRequestsReportErrors) {
  service::Server server(testOptions());
  const char* bad[] = {
      "not json at all",
      R"({"noverb":1})",
      R"({"verb":"frobnicate"})",
      R"({"verb":"run"})",                                  // missing scenario
      R"({"verb":"run","scenario":{"arbiter":"quantum"}})",  // bad scenario
      R"({"verb":"sweep","scenarios":{}})",                  // wrong type
  };
  for (const char* line : bad) {
    const Json response = Json::parse(server.handleRequest(line));
    EXPECT_FALSE(response.at("ok").asBool()) << line;
    EXPECT_FALSE(response.at("error").asString().empty()) << line;
  }
  // Protocol failures never kill the server; stats still work.
  const Json stats = Json::parse(server.handleRequest(R"({"verb":"stats"})"));
  EXPECT_TRUE(stats.at("ok").asBool());
  EXPECT_GE(stats.at("stats").at("protocol_errors").asUint64(), 6u);
}

TEST(ServerLoopbackTest, EndToEndRunSweepStatsShutdown) {
  service::Server server(testOptions());
  server.start();

  {
    service::Client client(server.port());

    // Cold run, then warm run of the same scenario.
    const Json cold = client.run(smallScenarioJson(3));
    ASSERT_TRUE(cold.at("ok").asBool());
    EXPECT_FALSE(cold.at("cached").asBool());
    const Json warm = client.run(smallScenarioJson(3));
    ASSERT_TRUE(warm.at("ok").asBool());
    EXPECT_TRUE(warm.at("cached").asBool());
    EXPECT_EQ(warm.at("result").dump(), cold.at("result").dump());

    // Sweep over four seeds, twice: second pass is all cache hits.
    Json scenarios = Json::array();
    for (std::uint64_t seed = 10; seed < 14; ++seed)
      scenarios.push(smallScenarioJson(seed));
    const Json sweep_cold = client.sweep(scenarios);
    ASSERT_TRUE(sweep_cold.at("ok").asBool());
    ASSERT_EQ(sweep_cold.at("results").size(), 4u);
    const Json sweep_warm = client.sweep(scenarios);
    for (const Json& entry : sweep_warm.at("results").asArray()) {
      ASSERT_TRUE(entry.at("ok").asBool());
      EXPECT_TRUE(entry.at("cached").asBool());
    }

    // Stats reflect the traffic: hits present, latency percentiles nonzero.
    const Json stats = client.stats().at("stats");
    EXPECT_GE(stats.at("hits").asUint64(), 5u);  // 1 warm run + 4 warm sweep
    EXPECT_GE(stats.at("misses").asUint64(), 5u);
    EXPECT_GT(stats.at("p50_us").asDouble(), 0.0);
    EXPECT_GT(stats.at("p95_us").asDouble(), 0.0);
    EXPECT_GE(stats.at("requests").asUint64(), 5u);

    const Json bye = client.shutdown();
    EXPECT_TRUE(bye.at("ok").asBool());
  }

  server.stop();  // joins the serve thread; must not hang
}

TEST(ServerLoopbackTest, ManyClientsShareTheCache) {
  service::Server server(testOptions());
  server.start();

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&server, &ok] {
      service::Client client(server.port());
      const Json response = client.run(smallScenarioJson(42));
      if (response.at("ok").asBool()) ++ok;
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(ok.load(), 6);

  // Six identical scenarios: exactly one simulation ran; everyone else hit
  // the cache or coalesced onto the in-flight job.
  const auto stats = server.engine().stats();
  EXPECT_EQ(stats.completed, 1u);
  server.stop();
}

// Every response — success or error — is stamped with the wire protocol
// version, and requireProtocolVersion (the client-side check) rejects
// anything else.
TEST(ServerProtocolTest, ResponsesCarryProtocolVersion) {
  service::Server server(testOptions());
  const char* lines[] = {
      R"({"verb":"stats"})",       // success path
      R"({"verb":"frobnicate"})",  // error path
      "not json at all",           // parse-failure path
  };
  for (const char* line : lines) {
    const Json response = Json::parse(server.handleRequest(line));
    ASSERT_NE(response.find("v"), nullptr) << line;
    EXPECT_EQ(response.at("v").asUint64(), service::kProtocolVersion) << line;
    EXPECT_NO_THROW(service::requireProtocolVersion(response)) << line;
  }

  Json wrong = Json::parse(server.handleRequest(R"({"verb":"stats"})"));
  wrong.set("v", Json(std::uint64_t{99}));
  EXPECT_THROW(service::requireProtocolVersion(wrong), std::runtime_error);
  Json missing = Json::object();
  missing.set("ok", Json(true));
  EXPECT_THROW(service::requireProtocolVersion(missing), std::runtime_error);
}

TEST(ServerProtocolTest, UnknownVerbListsSupportedVerbs) {
  service::Server server(testOptions());
  const Json response =
      Json::parse(server.handleRequest(R"({"verb":"frobnicate"})"));
  EXPECT_FALSE(response.at("ok").asBool());
  ASSERT_NE(response.find("supported_verbs"), nullptr);
  std::vector<std::string> verbs;
  for (const Json& verb : response.at("supported_verbs").asArray())
    verbs.push_back(verb.asString());
  EXPECT_EQ(verbs, service::protocolVerbs());
  for (const std::string& verb : verbs)
    EXPECT_TRUE(service::isProtocolVerb(verb)) << verb;
  EXPECT_FALSE(service::isProtocolVerb("frobnicate"));
}

// Reads the value of one exposition line ("name{labels} 42") from
// Prometheus text; -1 if the series is absent.
long long promValue(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind(prefix, 0) == 0) return std::stoll(line.substr(prefix.size()));
  return -1;
}

// The `metrics` verb returns Prometheus text whose counters reconcile with
// the `stats` document: same requests, same completed-job count.  A fresh
// registry is injected so counts start at zero (the default process-global
// registry accumulates across tests).
TEST(ServerProtocolTest, MetricsScrapeReconcilesWithStats) {
  obs::MetricsRegistry fresh;
  service::ServerOptions options = testOptions();
  options.engine.registry = &fresh;
  service::Server server(options);

  Json run = Json::object();
  run.set("verb", Json("run")).set("scenario", smallScenarioJson(5));
  ASSERT_TRUE(Json::parse(server.handleRequest(run.dump())).at("ok").asBool());
  ASSERT_TRUE(Json::parse(server.handleRequest(run.dump())).at("ok").asBool());
  server.handleRequest(R"({"verb":"frobnicate"})");
  const Json stats =
      Json::parse(server.handleRequest(R"({"verb":"stats"})")).at("stats");

  const Json response =
      Json::parse(server.handleRequest(R"({"verb":"metrics"})"));
  ASSERT_TRUE(response.at("ok").asBool());
  const std::string text = response.at("metrics").asString();

  EXPECT_EQ(promValue(text, "lb_server_requests_total{verb=\"run\"}"), 2);
  EXPECT_EQ(promValue(text, "lb_server_requests_total{verb=\"unknown\"}"), 1);
  EXPECT_EQ(promValue(text, "lb_server_requests_total{verb=\"stats\"}"), 1);
  EXPECT_EQ(promValue(text, "lb_server_protocol_errors_total"),
            static_cast<long long>(stats.at("protocol_errors").asUint64()));
  EXPECT_EQ(promValue(text, "lb_jobs_completed_total"),
            static_cast<long long>(stats.at("jobs_completed").asUint64()));
  EXPECT_EQ(promValue(text, "lb_cache_hits_total{tier=\"memory\"}"),
            static_cast<long long>(stats.at("hits").asUint64()));
  // The run executed a simulation with bus instruments attached: the bus
  // layer's counters must be present and nonzero in the same scrape.
  EXPECT_GT(promValue(text, "lb_bus_grants_total{arbiter=\"lottery\"}"), 0);
}

// A client that vanishes mid-frame — after reading only part of a `run`
// response, or after sending only part of a request — must not leak the
// job or wedge the worker slot: the handler thread exits, in-flight work
// drains, and the server keeps serving other clients at full capacity.
TEST(ServerLoopbackTest, MidFrameDisconnectDoesNotLeakJobsOrWedgeWorkers) {
  service::Server server(testOptions());
  server.start();

  const auto rawConnect = [&server] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
  };

  // 1. Read a few bytes of a run response, then slam the connection shut.
  {
    Json request = Json::object();
    request.set("verb", Json("run")).set("scenario", smallScenarioJson(901));
    const std::string line = request.dump() + "\n";
    const int fd = rawConnect();
    ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    char head[8];
    ASSERT_GT(::recv(fd, head, sizeof head, 0), 0);  // response started
    ::close(fd);  // ... and we leave mid-frame
  }

  // 2. Send half a request, then disconnect without ever finishing it.
  {
    const int fd = rawConnect();
    const std::string torn = R"({"verb":"run","scena)";
    ASSERT_EQ(::send(fd, torn.data(), torn.size(), 0),
              static_cast<ssize_t>(torn.size()));
    ::close(fd);
  }

  // The engine must drain: no job stays in flight, no queue entry leaks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto stats = server.engine().stats();
    if (stats.in_flight == 0 && stats.queue_depth == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "in_flight=" << stats.in_flight
        << " queue_depth=" << stats.queue_depth;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Both workers still serve: two fresh scenarios complete concurrently.
  {
    service::Client client(server.port());
    const Json a = client.run(smallScenarioJson(902));
    ASSERT_TRUE(a.at("ok").asBool());
    // The half-read run of seed 901 completed server-side; re-requesting
    // it is a cache hit, proving the abandoned job finished cleanly
    // rather than leaking.
    const Json b = client.run(smallScenarioJson(901));
    ASSERT_TRUE(b.at("ok").asBool());
    EXPECT_TRUE(b.at("cached").asBool());
    client.shutdown();
  }
  server.stop();
}

// Reads the value of one exposition line as a double; NaN-free -1 when the
// series is absent (histogram sums are not integers).
double promDouble(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  return -1;
}

// ---------------------------------------------------------------------------
// request tracing (trace verb, span trees, metrics reconciliation)
// ---------------------------------------------------------------------------

Json tracedRequest(Json request, std::uint64_t trace_id,
                   std::uint64_t span_id) {
  Json trace = Json::object();
  trace.set("id", Json(trace_id)).set("span", Json(span_id));
  request.set("trace", std::move(trace));
  return request;
}

// Without a flight recorder, responses stay byte-compatible with the pinned
// goldens: no "trace" member unless the client sent one, in which case the
// trace id is echoed verbatim.
TEST(ServerTraceTest, TraceEchoOnlyWhenClientSendsOne) {
  service::Server server(testOptions());
  const Json bare = Json::parse(server.handleRequest(R"({"verb":"stats"})"));
  EXPECT_EQ(bare.find("trace"), nullptr);

  Json request = Json::object();
  request.set("verb", Json("stats"));
  const Json echoed = Json::parse(
      server.handleRequest(tracedRequest(request, 0xBEEF, 0x12).dump()));
  ASSERT_NE(echoed.find("trace"), nullptr);
  EXPECT_EQ(echoed.at("trace").at("id").asUint64(), 0xBEEFu);
  const obs::TraceContext ctx = service::traceContextFromResponse(echoed);
  EXPECT_EQ(ctx.trace_id, 0xBEEFu);
}

TEST(ServerTraceTest, TraceVerbReportsDisabledRecorder) {
  service::Server server(testOptions());
  const Json response =
      Json::parse(server.handleRequest(R"({"verb":"trace"})"));
  EXPECT_FALSE(response.at("ok").asBool());
  EXPECT_NE(response.at("error").asString().find("flight recorder"),
            std::string::npos);
}

// The golden round-trip: a traced run yields a span tree rooted at
// server.request (parented under the client's span), and the `trace` verb
// dumps it as parseable Chrome trace JSON.
TEST(ServerTraceTest, TraceVerbRoundTrip) {
  obs::MetricsRegistry fresh;
  obs::FlightRecorder recorder(256, 64);
  service::ServerOptions options = testOptions();
  options.engine.registry = &fresh;
  options.recorder = &recorder;
  service::Server server(options);

  Json run = Json::object();
  run.set("verb", Json("run")).set("scenario", smallScenarioJson(31));
  const std::uint64_t client_trace = obs::mintTraceId();
  const std::uint64_t client_span = obs::mintTraceId();
  const Json response = Json::parse(server.handleRequest(
      tracedRequest(run, client_trace, client_span).dump()));
  ASSERT_TRUE(response.at("ok").asBool());
  ASSERT_NE(response.find("trace"), nullptr);
  EXPECT_EQ(response.at("trace").at("id").asUint64(), client_trace);
  const std::uint64_t root_span = response.at("trace").at("span").asUint64();
  EXPECT_NE(root_span, 0u);
  EXPECT_NE(root_span, client_span);

  // The span tree: one server.request root under the client's span, with
  // parse / cache.lookup / queue_wait / execute children under the root.
  const auto spans = recorder.spans();
  const obs::FlightRecorder::Span* root = nullptr;
  for (const auto& span : spans)
    if (span.name == "server.request") root = &span;
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->trace_id, client_trace);
  EXPECT_EQ(root->span_id, root_span);
  EXPECT_EQ(root->parent_id, client_span);
  EXPECT_EQ(root->note, "run");
  for (const char* child :
       {"server.parse", "cache.lookup", "job.queue_wait", "job.execute"}) {
    bool found = false;
    for (const auto& span : spans)
      if (span.name == child && span.trace_id == client_trace &&
          span.parent_id == root_span)
        found = true;
    EXPECT_TRUE(found) << "missing child span " << child;
  }

  const Json dump = Json::parse(server.handleRequest(R"({"verb":"trace"})"));
  ASSERT_TRUE(dump.at("ok").asBool());
  EXPECT_GE(dump.at("spans").asUint64(), 5u);
  const Json chrome = Json::parse(dump.at("chrome_trace").asString());
  bool saw_root = false;
  for (const Json& event : chrome.at("traceEvents").asArray()) {
    if (event.find("name") == nullptr) continue;
    if (event.at("name").asString() == "server.request" &&
        event.at("args").at("trace").asString() ==
            obs::traceIdHex(client_trace))
      saw_root = true;
  }
  EXPECT_TRUE(saw_root);
}

// Reconciliation invariant: with tracing on, every lb_server_request_micros
// observation has exactly one server.request root span — across success,
// unknown-verb, and parse-failure paths.
TEST(ServerTraceTest, MetricsReconcileWithRootSpans) {
  obs::MetricsRegistry fresh;
  obs::FlightRecorder recorder(1024, 256);
  service::ServerOptions options = testOptions();
  options.engine.registry = &fresh;
  options.recorder = &recorder;
  service::Server server(options);

  Json run = Json::object();
  run.set("verb", Json("run")).set("scenario", smallScenarioJson(41));
  server.handleRequest(run.dump());
  server.handleRequest(run.dump());             // cache hit
  server.handleRequest(R"({"verb":"stats"})");
  server.handleRequest(R"({"verb":"frobnicate"})");
  server.handleRequest("not json at all");      // parse failure
  Json sweep = Json::object();
  Json scenarios = Json::array();
  scenarios.push(smallScenarioJson(42)).push(smallScenarioJson(43));
  sweep.set("verb", Json("sweep")).set("scenarios", std::move(scenarios));
  server.handleRequest(sweep.dump());

  const std::string text = fresh.renderPrometheus();
  long long observations = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind("lb_server_request_micros_count{", 0) == 0)
      observations += std::stoll(line.substr(line.find("} ") + 2));

  std::size_t roots = 0;
  for (const auto& span : recorder.spans())
    if (span.name == "server.request") ++roots;
  EXPECT_EQ(observations, 6);
  EXPECT_EQ(static_cast<long long>(roots), observations);
  // The parse failure still yielded a root (with a minted trace id) and a
  // protocol-error annotation.
  bool annotated = false;
  for (const auto& event : recorder.events())
    if (event.name == "server.protocol_error") annotated = true;
  EXPECT_TRUE(annotated);
}

// Acceptance gate: for a single run, the stage spans of its tree sum
// (within slack) to the root span, and the root span matches the
// lb_server_request_micros observation for verb="run".
TEST(ServerTraceTest, EndToEndStageSumMatchesRequestMicros) {
  obs::MetricsRegistry fresh;
  obs::FlightRecorder recorder(256, 64);
  service::ServerOptions options = testOptions();
  options.engine.registry = &fresh;
  options.recorder = &recorder;
  service::Server server(options);

  Scenario scenario;
  scenario.cycles = 60000;  // long enough that execute dominates overhead
  scenario.seed = 77;
  Json run = Json::object();
  run.set("verb", Json("run")).set("scenario", service::toJson(scenario));
  obs::TraceContext root_ctx;
  const Json response =
      Json::parse(server.handleRequest(run.dump(), &root_ctx));
  ASSERT_TRUE(response.at("ok").asBool());
  ASSERT_TRUE(root_ctx.valid());

  const auto spans = recorder.spans();  // `root` points into this copy
  const obs::FlightRecorder::Span* root = nullptr;
  double stage_sum = 0;
  for (const auto& span : spans) {
    if (span.name == "server.request") root = &span;
    if (span.trace_id != root_ctx.trace_id) continue;
    if (span.name == "server.parse" || span.name == "cache.lookup" ||
        span.name == "job.queue_wait" || span.name == "job.execute")
      stage_sum += span.dur_us;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_GT(root->dur_us, 0.0);
  ASSERT_GT(stage_sum, 0.0);
  // The stages tile the root window: they can never exceed it (modulo
  // float rounding) and must account for at least half of it — the rest is
  // response serialization and scheduling gaps.
  EXPECT_LE(stage_sum, root->dur_us * 1.01 + 50.0);
  EXPECT_GE(stage_sum, root->dur_us * 0.5 - 50.0);

  // The histogram observed the same request window as the root span.
  const std::string text = fresh.renderPrometheus();
  const double hist_sum =
      promDouble(text, "lb_server_request_micros_sum{verb=\"run\"}");
  EXPECT_EQ(promValue(text, "lb_server_request_micros_count{verb=\"run\"}"),
            1);
  EXPECT_NEAR(hist_sum, root->dur_us, 1.0);
}

// Over the socket: the Client mints and attaches a trace automatically, the
// daemon echoes it, and `lbcli trace`'s wrapper works end to end.
TEST(ServerLoopbackTest, ClientAttachesTraceAutomatically) {
  obs::FlightRecorder recorder(256, 64);
  service::ServerOptions options = testOptions();
  options.recorder = &recorder;
  service::Server server(options);
  server.start();
  {
    service::Client client(server.port());
    const Json response = client.run(smallScenarioJson(8));
    ASSERT_TRUE(response.at("ok").asBool());
    ASSERT_TRUE(client.lastTrace().valid());
    ASSERT_NE(response.find("trace"), nullptr);
    EXPECT_EQ(response.at("trace").at("id").asUint64(),
              client.lastTrace().trace_id);

    const Json dump = client.trace();
    ASSERT_TRUE(dump.at("ok").asBool());
    const Json chrome = Json::parse(dump.at("chrome_trace").asString());
    bool saw_client_trace = false;
    for (const Json& event : chrome.at("traceEvents").asArray()) {
      const Json* args = event.find("args");
      if (args != nullptr && args->find("trace") != nullptr &&
          args->at("trace").asString() ==
              obs::traceIdHex(client.lastTrace().trace_id))
        saw_client_trace = true;
    }
    EXPECT_TRUE(saw_client_trace);
    client.shutdown();
  }
  server.stop();
}

TEST(ServerLoopbackTest, PipelinedRequestsOnOneConnection) {
  service::Server server(testOptions());
  server.start();
  {
    service::Client client(server.port());
    for (int i = 0; i < 3; ++i) {
      const Json stats = client.stats();
      ASSERT_TRUE(stats.at("ok").asBool());
    }
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// event loop: pipelining, the streaming batch verb, the envelope API
// ---------------------------------------------------------------------------

int rawConnectTo(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

// Reads exactly `count` newline-framed lines from a raw socket.
std::vector<std::string> readLines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < count) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      lines.push_back(buffer.substr(0, newline));
      buffer.erase(0, newline + 1);
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return lines;
}

// The pipelining contract: many requests written back-to-back in a single
// send() come back as exactly one response per request, *in request order*,
// even though slow `run` jobs and instant `stats` answers complete on the
// engine in a different order.  Each request carries a distinct trace id;
// the echoed ids prove the ordering.
TEST(ServerLoopbackTest, PipelinedFramesAnswerInRequestOrder) {
  service::Server server(testOptions());
  server.start();

  std::string wire;
  constexpr std::uint64_t kBase = 0x51000;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Json request = Json::object();
    if (i % 2 == 0) {  // slow path: a fresh simulation
      request.set("verb", Json("run"))
          .set("scenario", smallScenarioJson(700 + i));
    } else {  // fast path: answered without touching the engine
      request.set("verb", Json("stats"));
    }
    wire += tracedRequest(request, kBase + i, 1).dump() + "\n";
  }

  const int fd = rawConnectTo(server.port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<std::string> lines = readLines(fd, 8);
  ::close(fd);
  ASSERT_EQ(lines.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Json response = Json::parse(lines[i]);
    EXPECT_TRUE(response.at("ok").asBool()) << lines[i];
    ASSERT_NE(response.find("trace"), nullptr) << lines[i];
    EXPECT_EQ(response.at("trace").at("id").asUint64(), kBase + i)
        << "response " << i << " out of order";
  }
  server.stop();
}

// Drops the volatile members (timing, stream header, trace echo, version
// stamp) so a batch stream frame can be compared bit-for-bit against a
// standalone run response.
Json stripVolatile(const Json& doc) {
  Json out = Json::object();
  for (const auto& [key, value] : doc.asObject())
    if (key != "execute_micros" && key != "batch" && key != "trace" &&
        key != "v")
      out.set(key, value);
  return out;
}

// The reference for batch and sweep: the same scenarios run one at a time
// on a fresh server, volatile members stripped.
std::vector<std::string> sequentialRuns(const Json& scenarios) {
  service::Server server(testOptions());
  server.start();
  service::Client client(server.port());
  std::vector<std::string> results;
  for (const Json& scenario : scenarios.asArray())
    results.push_back(stripVolatile(client.run(scenario)).dump());
  client.shutdown();
  server.stop();
  return results;
}

// The same list as one `sweep` on a fresh server, over loopback or through
// handleRequest: results[i], volatile members stripped.
std::vector<std::string> sweepResults(const Json& scenarios, bool loopback) {
  service::Server server(testOptions());
  Json response;
  if (loopback) {
    server.start();
    service::Client client(server.port());
    response = client.sweep(scenarios);
    client.shutdown();
    server.stop();
  } else {
    Json request = Json::object();
    request.set("verb", Json("sweep")).set("scenarios", scenarios);
    response = Json::parse(server.handleRequest(request.dump()));
  }
  EXPECT_TRUE(response.at("ok").asBool()) << response.dump();
  std::vector<std::string> results;
  for (const Json& result : response.at("results").asArray())
    results.push_back(stripVolatile(result).dump());
  return results;
}

// Acceptance gate: batch(N) and sweep(N) are bit-identical to N sequential
// runs — same ok / hash / cached / coalesced flags and the same result
// payloads, including cache-hit behavior for a duplicate scenario inside
// the request.
TEST(ServerBatchTest, BatchMatchesSequentialRunsBitIdentical) {
  Json scenarios = Json::array();
  for (std::uint64_t seed : {21u, 22u, 23u, 21u})  // note the duplicate
    scenarios.push(smallScenarioJson(seed));

  const std::vector<std::string> expected = sequentialRuns(scenarios);
  ASSERT_NE(Json::parse(expected[3]).find("cached"), nullptr);
  EXPECT_TRUE(Json::parse(expected[3]).at("cached").asBool());

  // One batch on another fresh server, frames keyed by scenario index.
  {
    service::Server server(testOptions());
    server.start();
    service::Client client(server.port());
    std::vector<std::string> got(expected.size());
    std::vector<std::uint64_t> seqs;
    const Json summary =
        client.batch(scenarios, [&](const Json& frame) {
          const std::uint64_t index = service::batchFrameIndex(frame);
          ASSERT_LT(index, got.size());
          seqs.push_back(frame.at("batch").at("seq").asUint64());
          got[index] = stripVolatile(frame).dump();
        });
    ASSERT_TRUE(summary.at("ok").asBool());
    EXPECT_TRUE(service::isBatchSummaryFrame(summary));
    EXPECT_EQ(summary.at("batch").at("of").asUint64(), expected.size());
    EXPECT_EQ(summary.at("batch").at("completed").asUint64(),
              expected.size());
    EXPECT_EQ(summary.at("batch").at("errors").asUint64(), 0u);
    // Frames stream in completion order but seq is monotonically 0..N-1.
    ASSERT_EQ(seqs.size(), expected.size());
    for (std::uint64_t s = 0; s < seqs.size(); ++s) EXPECT_EQ(seqs[s], s);
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "scenario " << i;
    client.shutdown();
    server.stop();
  }

  EXPECT_EQ(sweepResults(scenarios, /*loopback=*/true), expected);
  EXPECT_EQ(sweepResults(scenarios, /*loopback=*/false), expected);
}

// Property check over randomized scenario mixes: for seeded random batches
// (varying arbiter, master count, seeds, with deliberate duplicates) the
// streamed batch results and the collected sweep results equal a fresh
// server's sequential runs.
TEST(ServerBatchTest, RandomizedBatchesMatchSequentialRuns) {
  std::mt19937_64 rng(20260808);
  const char* arbiters[] = {"lottery", "priority", "rr", "fcfs"};
  for (int round = 0; round < 3; ++round) {
    Json scenarios = Json::array();
    const std::size_t count = 3 + rng() % 4;
    for (std::size_t i = 0; i < count; ++i) {
      Scenario scenario;
      scenario.arbiter = arbiters[rng() % 4];
      scenario.masters = 2 + rng() % 3;
      scenario.weights.clear();
      scenario.cycles = 5000 + (rng() % 3) * 2000;
      scenario.seed = rng() % 5;  // small space forces duplicates
      scenarios.push(service::toJson(service::normalized(scenario)));
    }

    const std::vector<std::string> expected = sequentialRuns(scenarios);
    {
      service::Server server(testOptions());
      server.start();
      service::Client client(server.port());
      std::vector<std::string> got(expected.size());
      const Json summary =
          client.batch(scenarios, [&](const Json& frame) {
            got[service::batchFrameIndex(frame)] =
                stripVolatile(frame).dump();
          });
      ASSERT_TRUE(summary.at("ok").asBool()) << "round " << round;
      // Some random mixes legitimately error (e.g. priority arbiter with
      // non-unique weights); those error frames must match sequential runs
      // bit-for-bit too, and every scenario must be accounted for.
      EXPECT_EQ(summary.at("batch").at("completed").asUint64() +
                    summary.at("batch").at("errors").asUint64(),
                expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(got[i], expected[i])
            << "round " << round << " scenario " << i;
      client.shutdown();
      server.stop();
    }
    EXPECT_EQ(sweepResults(scenarios, /*loopback=*/true), expected)
        << "round " << round;
    EXPECT_EQ(sweepResults(scenarios, /*loopback=*/false), expected)
        << "round " << round;
  }
}

// Fair-share dispatch: a large batch or sweep keeps at most `batch_window`
// jobs in the engine, so an interactive run submitted mid-request
// completes long before it drains instead of queueing behind all of it.
TEST(ServerBatchTest, FairShareKeepsInteractiveRunsResponsive) {
  for (const std::string verb : {"batch", "sweep"}) {
    SCOPED_TRACE(verb);
    service::ServerOptions options = testOptions();
    options.engine.workers = 2;
    options.engine.queue_depth = 64;
    options.batch_window = 1;
    service::Server server(options);
    server.start();

    Json scenarios = Json::array();
    for (std::uint64_t seed = 300; seed < 308; ++seed) {
      Scenario scenario;
      // Long enough that the serialized batch (batch_window=1) outlasts
      // the interactive run's head-start sleep even on a fast machine.
      scenario.cycles = 400000;
      scenario.seed = seed;
      scenarios.push(service::toJson(scenario));
    }

    std::atomic<bool> batch_ok{false};
    std::atomic<std::int64_t> batch_micros{0};
    const auto start = std::chrono::steady_clock::now();
    std::thread batcher([&] {
      service::Client client(server.port());
      if (verb == "batch") {
        const Json summary = client.batch(scenarios, {});
        batch_ok = summary.at("ok").asBool() &&
                   summary.at("batch").at("errors").asUint64() == 0;
      } else {
        const Json response = client.sweep(scenarios);
        bool ok = response.at("ok").asBool();
        for (const Json& result : response.at("results").asArray())
          ok = ok && result.at("ok").asBool();
        batch_ok = ok;
      }
      batch_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    });

    // Give the batch a head start, then race an interactive run against it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service::Client interactive(server.port());
    const auto sent = std::chrono::steady_clock::now();
    const Json response = interactive.run(smallScenarioJson(999));
    const auto finished = std::chrono::steady_clock::now();
    const auto interactive_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(finished - start)
            .count();
    const auto wait_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(finished - sent)
            .count();
    ASSERT_TRUE(response.at("ok").asBool());

    batcher.join();
    EXPECT_TRUE(batch_ok.load());
    // The interactive run finished while the batch was still running, and
    // well inside the batch's total wall clock.
    EXPECT_LT(interactive_micros, batch_micros.load());
    EXPECT_LT(interactive_micros, batch_micros.load() / 2 + 100000);
    // It never queued behind the request's backlog: the window leaves the
    // second worker free, so it waited less than one of the 8 long jobs
    // (which the window runs one at a time) takes on average.
    EXPECT_LT(wait_micros, batch_micros.load() / 8);
    interactive.shutdown();
    server.stop();
  }
}

// The typed envelope: exchange() is the single request path, traces are
// minted (or passed through verbatim), and the payload's reserved members
// never override the envelope's verb.
TEST(ServerLoopbackTest, ExchangeEnvelopeApi) {
  service::Server server(testOptions());
  server.start();
  {
    service::Client client(server.port());

    service::Client::Request request;
    request.verb = "run";
    request.payload.set("scenario", smallScenarioJson(55));
    const service::Client::Response response = client.exchange(request);
    ASSERT_TRUE(response.ok);
    EXPECT_TRUE(response.trace.valid());
    EXPECT_EQ(response.body.at("trace").at("id").asUint64(),
              response.trace.trace_id);

    // The per-verb wrapper is a thin shim over the same path: re-running
    // through run() is a cache hit on the identical payload.
    const Json direct = client.run(smallScenarioJson(55));
    ASSERT_TRUE(direct.at("ok").asBool());
    EXPECT_TRUE(direct.at("cached").asBool());
    EXPECT_EQ(direct.at("result").dump(), response.body.at("result").dump());

    // A pre-minted trace identity rides the wire verbatim.
    service::Client::Request traced;
    traced.verb = "stats";
    traced.trace = obs::TraceContext{0xABCDu, 0x11u};
    const service::Client::Response echoed = client.exchange(traced);
    ASSERT_TRUE(echoed.ok);
    EXPECT_EQ(echoed.trace.trace_id, 0xABCDu);
    EXPECT_EQ(echoed.body.at("trace").at("id").asUint64(), 0xABCDu);

    // Reserved members inside the payload lose to the envelope fields.
    service::Client::Request sneaky;
    sneaky.verb = "stats";
    sneaky.payload.set("verb", Json("shutdown"));
    const service::Client::Response still_stats = client.exchange(sneaky);
    ASSERT_TRUE(still_stats.ok);
    EXPECT_NE(still_stats.body.find("stats"), nullptr);

    client.shutdown();
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// live introspection: health / history verbs, slow-request exemplars
// ---------------------------------------------------------------------------

// The health verb over the event loop: loop instrumentation is live, the
// request quantiles reconcile with the raw histogram shipped alongside
// them, and the connection table includes the scraping connection itself.
TEST(ServerHealthTest, HealthVerbReportsLoopAndConnections) {
  service::ServerOptions options = testOptions();
  options.history_interval = std::chrono::milliseconds(0);  // not under test
  service::Server server(options);
  server.start();
  {
    service::Client client(server.port());
    ASSERT_TRUE(client.run(smallScenarioJson(501)).at("ok").asBool());

    const Json response = client.health();
    ASSERT_TRUE(response.at("ok").asBool());
    const Json& health = response.at("health");
    EXPECT_EQ(health.at("mode").asString(), "event-loop");

    const Json& loop = health.at("loop");
    // The loop has served at least the accept + run + health iterations.
    EXPECT_GE(loop.at("iterations").asUint64(), 2u);
    EXPECT_GE(loop.at("dispatch_queue_depth_max").asUint64(), 1u);
    EXPECT_GE(loop.at("completion_queue_depth_max").asUint64(), 1u);
    EXPECT_GT(loop.at("iteration_p99_us").asDouble(), 0.0);

    const Json& requests = health.at("requests");
    EXPECT_GE(requests.at("total").asUint64(), 1u);
    EXPECT_GT(requests.at("p50_us").asDouble(), 0.0);

    // The shipped buckets recompute to exactly the shipped quantiles: the
    // daemon and any client (lbtop) share one estimator.
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    const Json& histogram = health.at("latency_histogram");
    for (const Json& b : histogram.at("bounds").asArray())
      bounds.push_back(b.asDouble());
    for (const Json& c : histogram.at("counts").asArray())
      counts.push_back(c.asUint64());
    ASSERT_EQ(counts.size(), bounds.size() + 1);
    EXPECT_DOUBLE_EQ(requests.at("p50_us").asDouble(),
                     obs::histogramQuantile(bounds, counts, 0.50));
    EXPECT_DOUBLE_EQ(requests.at("p99_us").asDouble(),
                     obs::histogramQuantile(bounds, counts, 0.99));

    const Json& engine = health.at("engine");
    EXPECT_GE(engine.at("jobs_completed").asUint64(), 1u);
    EXPECT_GE(engine.at("cache_misses").asUint64(), 1u);

    // The scraping connection shows up in its own snapshot (the table is
    // republished every loop iteration before reads dispatch).
    const auto& connections = health.at("connections").asArray();
    ASSERT_GE(connections.size(), 1u);
    bool saw_self = false;
    for (const Json& conn : connections) {
      EXPECT_GT(conn.at("id").asUint64(), 0u);
      const Json* verb = conn.find("last_verb");
      if (verb != nullptr &&
          (verb->asString() == "run" || verb->asString() == "health"))
        saw_self = true;
    }
    EXPECT_TRUE(saw_self);
    client.shutdown();
  }
  server.stop();
}

TEST(ServerHistoryTest, HistoryVerbRoundTrip) {
  service::ServerOptions options = testOptions();
  options.history_interval = std::chrono::milliseconds(5);
  options.history_capacity = 8;
  service::Server server(options);
  server.start();
  {
    service::Client client(server.port());
    ASSERT_TRUE(client.run(smallScenarioJson(503)).at("ok").asBool());

    // The 5ms sampler needs a beat to take >= 2 samples; poll generously.
    Json response;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      response = client.history();
      ASSERT_TRUE(response.at("ok").asBool());
      if (response.at("history").at("samples").size() >= 2) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const Json& history = response.at("history");
    EXPECT_EQ(history.at("interval_ms").asUint64(), 5u);
    EXPECT_EQ(history.at("capacity").asUint64(), 8u);
    const auto& samples = history.at("samples").asArray();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_EQ(samples[i].at("seq").asUint64(),
                samples[i - 1].at("seq").asUint64() + 1);
      EXPECT_GE(samples[i].at("at_ms").asUint64(),
                samples[i - 1].at("at_ms").asUint64());
    }
    // The newest sample carries the run request's counter with its value;
    // points expose name / value, and monotone series a delta.
    bool saw_requests = false;
    for (const Json& point : samples.back().at("points").asArray()) {
      if (point.at("name").asString() != "lb_server_requests_total") continue;
      saw_requests = true;
      EXPECT_GE(point.at("value").asDouble(), 1.0);
      ASSERT_NE(point.find("delta"), nullptr);  // counters carry deltas
    }
    EXPECT_TRUE(saw_requests);

    // `last` truncates to the newest N samples; `metrics` filters points
    // by exact series name.
    const Json filtered =
        client.history(1, {"lb_server_requests_total"});
    ASSERT_TRUE(filtered.at("ok").asBool());
    const auto& kept = filtered.at("history").at("samples").asArray();
    ASSERT_EQ(kept.size(), 1u);
    const auto& points = kept[0].at("points").asArray();
    ASSERT_GE(points.size(), 1u);
    for (const Json& point : points)
      EXPECT_EQ(point.at("name").asString(), "lb_server_requests_total");
    client.shutdown();
  }
  server.stop();
}

TEST(ServerHistoryTest, HistoryDisabledReportsTypedError) {
  service::ServerOptions options = testOptions();
  options.history_interval = std::chrono::milliseconds(0);
  service::Server server(options);
  const Json response =
      Json::parse(server.handleRequest(R"({"verb":"history"})"));
  EXPECT_FALSE(response.at("ok").asBool());
  EXPECT_NE(response.at("error").asString().find("history is disabled"),
            std::string::npos);
}

// Chaos leg: health and history stay reliable under an injected fault plan
// — both verbs are idempotent, so the client's retry loop absorbs torn
// reads and connection resets.
TEST(ServerHistoryTest, HealthAndHistorySurviveChaosFaultPlan) {
  const fault::FaultPlan plan =
      fault::parseFaultPlan("seed=42,torn_read=0.1,read_reset=0.05");
  fault::FaultInjector injector(plan);
  service::ServerOptions options = testOptions();
  options.history_interval = std::chrono::milliseconds(5);
  options.fault = &injector;
  options.engine.fault = &injector;
  service::Server server(options);
  server.start();
  {
    service::ClientOptions client_options;
    client_options.port = server.port();
    client_options.max_retries = 10;
    client_options.backoff_base = std::chrono::milliseconds(1);
    client_options.backoff_cap = std::chrono::milliseconds(20);
    service::Client client(std::move(client_options));
    ASSERT_TRUE(client.run(smallScenarioJson(505)).at("ok").asBool());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(client.health().at("ok").asBool()) << "health #" << i;
      EXPECT_TRUE(client.history(2).at("ok").asBool()) << "history #" << i;
    }
    // `shutdown` is never resent mid-exchange, so an injected reset during
    // its response read legitimately surfaces as a transport error.
    try {
      client.shutdown();
    } catch (const service::TransportError&) {
    }
  }
  server.stop();
}

// Slow-request exemplars are a pure function of the request stream and the
// thresholds: a 1us default threshold marks every request slow, per-verb
// overrides win over the default, and a disabled (0) threshold marks none.
TEST(ServerSlowRequestTest, ExemplarsAreDeterministic) {
  const auto slowTotals = [](service::ServerOptions options,
                             obs::FlightRecorder* recorder) {
    obs::MetricsRegistry fresh;
    options.engine.registry = &fresh;
    options.recorder = recorder;
    options.history_interval = std::chrono::milliseconds(0);
    service::Server server(options);
    Json run = Json::object();
    run.set("verb", Json("run")).set("scenario", smallScenarioJson(507));
    server.handleRequest(run.dump());  // cold
    server.handleRequest(run.dump());  // cache hit — still a request
    server.handleRequest(R"({"verb":"stats"})");
    const std::string text = fresh.renderPrometheus();
    return std::pair{
        promValue(text, "lb_server_slow_requests_total{verb=\"run\"}"),
        promValue(text, "lb_server_slow_requests_total{verb=\"stats\"}")};
  };

  // Default threshold 0: the feature is off, the family has no children.
  EXPECT_EQ(slowTotals(testOptions(), nullptr),
            (std::pair<long long, long long>{-1, -1}));

  // 1us default: every request (including the cache hit) exceeds it.
  service::ServerOptions all_slow = testOptions();
  all_slow.slow_request_default_us = 1;
  obs::FlightRecorder recorder(64, 64);
  EXPECT_EQ(slowTotals(all_slow, &recorder),
            (std::pair<long long, long long>{2, 1}));

  // ... and each slow request annotated the flight recorder with its verb
  // and threshold for trace correlation.
  std::size_t annotations = 0;
  for (const auto& event : recorder.events())
    if (event.name == "server.slow_request") ++annotations;
  EXPECT_EQ(annotations, 3u);
  bool noted = false;
  for (const auto& span : recorder.spans())
    if (span.note.find("server.slow_request") != std::string::npos &&
        span.note.find("threshold 1us") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted);

  // Per-verb override: stats gets an unreachable threshold, runs stay slow.
  service::ServerOptions overridden = testOptions();
  overridden.slow_request_default_us = 1;
  overridden.slow_request_us["stats"] = 1ull << 40;
  EXPECT_EQ(slowTotals(overridden, nullptr),
            (std::pair<long long, long long>{2, -1}));
}

// The introspection analogue of InstrumentationIsInert: a server with every
// telemetry feature enabled (flight recorder, history ring, slow-request
// exemplars, stall detector) produces bit-identical simulation results to a
// bare server — even with health/history scrapes interleaved between runs.
TEST(ServerHealthTest, FullTelemetryLeavesResultsBitIdentical) {
  service::ServerOptions bare_options = testOptions();
  bare_options.history_interval = std::chrono::milliseconds(0);
  service::Server bare(bare_options);

  obs::MetricsRegistry fresh;
  obs::FlightRecorder recorder(256, 64);
  service::ServerOptions full_options = testOptions();
  full_options.engine.registry = &fresh;
  full_options.recorder = &recorder;
  full_options.history_interval = std::chrono::milliseconds(5);
  full_options.history_capacity = 16;
  full_options.slow_request_default_us = 1;
  full_options.stall_threshold = std::chrono::milliseconds(1);
  service::Server full(full_options);

  for (const std::uint64_t seed : {601u, 602u, 603u}) {
    Json run = Json::object();
    run.set("verb", Json("run")).set("scenario", smallScenarioJson(seed));
    const Json bare_response =
        Json::parse(bare.handleRequest(run.dump()));
    // Interleave scrapes on the telemetry server before its run: observers
    // must not perturb what the next simulation computes.
    ASSERT_TRUE(Json::parse(full.handleRequest(R"({"verb":"health"})"))
                    .at("ok")
                    .asBool());
    ASSERT_TRUE(Json::parse(full.handleRequest(R"({"verb":"history"})"))
                    .at("ok")
                    .asBool());
    const Json full_response = Json::parse(full.handleRequest(run.dump()));
    ASSERT_TRUE(bare_response.at("ok").asBool());
    ASSERT_TRUE(full_response.at("ok").asBool());
    EXPECT_EQ(full_response.at("result").dump(),
              bare_response.at("result").dump())
        << "seed " << seed;
    EXPECT_EQ(full_response.at("hash").asString(),
              bare_response.at("hash").asString());
  }
}

// Thread-safety soak (TSan coverage): scrapers hammer health / history /
// metrics while runners saturate the engine; every response stays well-
// formed and the final health snapshot accounts for all the traffic.
TEST(ServerHealthTest, ConcurrentScrapeDuringSaturation) {
  service::ServerOptions options = testOptions();
  options.history_interval = std::chrono::milliseconds(5);
  service::Server server(options);
  server.start();

  constexpr int kRunners = 4;
  constexpr int kRunsEach = 5;
  std::atomic<int> runs_ok{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRunners; ++t)
    threads.emplace_back([&server, &runs_ok, t] {
      service::Client client(server.port());
      for (int i = 0; i < kRunsEach; ++i) {
        const Json response =
            client.run(smallScenarioJson(
                static_cast<std::uint64_t>(700 + t * kRunsEach + i)));
        if (response.at("ok").asBool()) ++runs_ok;
      }
    });
  for (int s = 0; s < 2; ++s)
    threads.emplace_back([&server, &done] {
      service::Client client(server.port());
      while (!done.load()) {
        ASSERT_TRUE(client.health().at("ok").asBool());
        ASSERT_TRUE(client.history(2).at("ok").asBool());
        ASSERT_TRUE(client.metrics().at("ok").asBool());
      }
    });
  for (int t = 0; t < kRunners; ++t) threads[t].join();
  done = true;
  for (std::size_t t = kRunners; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(runs_ok.load(), kRunners * kRunsEach);

  service::Client client(server.port());
  const Json health = client.health().at("health");
  EXPECT_GE(health.at("requests").at("total").asUint64(),
            static_cast<std::uint64_t>(kRunners * kRunsEach));
  EXPECT_EQ(health.at("engine").at("queue_depth").asUint64(), 0u);
  client.shutdown();
  server.stop();
}

// An oversized batch or sweep is refused with a typed error before any job
// runs.
TEST(ServerBatchTest, OversizedBatchIsRefused) {
  service::ServerOptions options = testOptions();
  options.max_batch = 2;
  service::Server server(options);
  server.start();
  {
    service::Client client(server.port());
    Json scenarios = Json::array();
    for (std::uint64_t seed = 0; seed < 3; ++seed)
      scenarios.push(smallScenarioJson(seed));
    for (const Json& response :
         {client.batch(scenarios, {}), client.sweep(scenarios)}) {
      EXPECT_FALSE(response.at("ok").asBool()) << response.dump();
      EXPECT_NE(response.at("error").asString().find("exceeds"),
                std::string::npos);
    }
    EXPECT_EQ(server.engine().stats().completed, 0u);
    client.shutdown();
  }
  server.stop();
}

// The job-deadline path: with a 1 ms per-job budget, every job verb answers
// its timeout shape, both over the loop and through handleRequest, and each
// request is accounted exactly once although its jobs complete afterwards.
TEST(ServerDeadlineTest, JobDeadlineAnswersEveryJobVerbOnce) {
  // Every job also sleeps 50 ms before simulating, so the 1 ms deadline
  // wins the race by a wide margin even on a loaded machine.
  const fault::FaultPlan plan =
      fault::parseFaultPlan("seed=1,job_delay=1,job_delay_ms=50");
  constexpr std::size_t kN = 3;
  // Distinct seeds per request: a late job must not make a later request
  // a cache hit.
  const auto scenarioList = [](std::uint64_t first_seed) {
    Json list = Json::array();
    for (std::uint64_t seed = first_seed; seed < first_seed + kN; ++seed) {
      Scenario scenario;
      scenario.cycles = 400000;
      scenario.seed = seed;
      list.push(service::toJson(scenario));
    }
    return list;
  };
  for (const bool loopback : {true, false}) {
    SCOPED_TRACE(loopback ? "loopback" : "handleRequest");
    fault::FaultInjector slow(plan);
    obs::MetricsRegistry fresh;
    service::ServerOptions options = testOptions();
    options.engine.registry = &fresh;
    options.engine.timeout = std::chrono::milliseconds(1);
    options.engine.fault = &slow;
    options.history_interval = std::chrono::milliseconds(0);
    service::Server server(options);
    int fd = -1;
    if (loopback) {
      server.start();
      fd = rawConnectTo(server.port());
    }
    // Sends one request and returns all `frames` of its response.
    const auto send = [&](const Json& request, std::size_t frames) {
      std::vector<std::string> lines;
      if (loopback) {
        const std::string wire = request.dump() + "\n";
        EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        lines = readLines(fd, frames);
      } else {
        std::istringstream in(server.handleRequest(request.dump()));
        for (std::string line; std::getline(in, line);) lines.push_back(line);
      }
      EXPECT_EQ(lines.size(), frames);
      std::vector<Json> responses;
      for (const std::string& line : lines)
        responses.push_back(Json::parse(line));
      return responses;
    };

    Json run = Json::object();
    run.set("verb", Json("run"))
        .set("scenario", scenarioList(900).asArray().front());
    for (const Json& response : send(run, 1)) {
      EXPECT_FALSE(response.at("ok").asBool()) << response.dump();
      EXPECT_TRUE(response.at("timeout").asBool()) << response.dump();
    }

    Json batch = Json::object();
    batch.set("verb", Json("batch")).set("scenarios", scenarioList(910));
    const std::vector<Json> frames = send(batch, kN + 1);
    ASSERT_EQ(frames.size(), kN + 1);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_FALSE(frames[i].at("ok").asBool()) << frames[i].dump();
      EXPECT_TRUE(frames[i].at("timeout").asBool()) << frames[i].dump();
    }
    ASSERT_TRUE(service::isBatchSummaryFrame(frames.back()));
    EXPECT_EQ(frames.back().at("batch").at("errors").asUint64(), kN);
    EXPECT_EQ(frames.back().at("batch").at("completed").asUint64(), 0u);

    Json sweep = Json::object();
    sweep.set("verb", Json("sweep")).set("scenarios", scenarioList(920));
    for (const Json& response : send(sweep, 1)) {
      ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
      const auto& results = response.at("results").asArray();
      ASSERT_EQ(results.size(), kN);
      for (const Json& result : results)
        EXPECT_TRUE(result.at("timeout").asBool()) << result.dump();
    }

    // The real completions arrive after the deadlines answered: let them
    // land (and be dropped) before counting.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.engine().stats().in_flight != 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    Json stats_request = Json::object();
    stats_request.set("verb", Json("stats"));
    const Json stats = send(stats_request, 1).at(0).at("stats");
    EXPECT_EQ(stats.at("jobs_timed_out").asUint64(), 1 + 2 * kN);
    // One lb_server_request_micros observation per request (run, batch,
    // sweep, stats): each Finish was applied exactly once.
    long long observations = 0;
    std::istringstream lines(fresh.renderPrometheus());
    for (std::string line; std::getline(lines, line);)
      if (line.rfind("lb_server_request_micros_count{", 0) == 0)
        observations += std::stoll(line.substr(line.find("} ") + 2));
    EXPECT_EQ(observations, 4);
    if (loopback) {
      ::close(fd);
      server.stop();
    }
  }
}

}  // namespace
