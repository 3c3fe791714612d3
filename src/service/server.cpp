#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/quantile.hpp"
#include "service/protocol.hpp"
#include "service/socket_io.hpp"

namespace lb::service {

namespace {

constexpr std::size_t kLatencyReservoir = 4096;
constexpr std::size_t kMaxLineBytes = 4 << 20;  // 4 MiB guards the parser
/// Requests one connection may have in flight before the loop stops
/// reading from it (pipelining backpressure; responses drain the window).
constexpr std::size_t kMaxPipeline = 1024;
/// Unflushed response bytes that pause reads from a connection (a slow
/// reader cannot make the server buffer an unbounded batch stream).
constexpr std::size_t kMaxWriteBuffer = 16 << 20;
/// Bytes one connection may receive per loop visit (fairness: a firehose
/// peer cannot starve the other connections; poll() re-arms it).
constexpr std::size_t kReadBudget = 256 << 10;

Json errorResponse(const std::string& message) {
  Json response = Json::object();
  response.set("ok", Json(false)).set("error", Json(message));
  return response;
}

/// The engine inherits the server's recorder unless one was set explicitly.
JobEngineOptions engineOptions(const ServerOptions& options) {
  JobEngineOptions engine = options.engine;
  if (engine.recorder == nullptr) engine.recorder = options.recorder;
  return engine;
}

double elapsedMicros(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Raises `watermark` to at least `value` and mirrors it into `gauge`.
void bumpWatermark(std::atomic<std::int64_t>& watermark, obs::Gauge& gauge,
                   std::int64_t value) {
  std::int64_t seen = watermark.load(std::memory_order_relaxed);
  while (value > seen && !watermark.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  gauge.set(watermark.load(std::memory_order_relaxed));
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch/sweep bookkeeping and the in-process collector
// ---------------------------------------------------------------------------

/// Shared between the dispatch thread that admits a `batch` or `sweep`
/// request, the engine workers finishing its jobs, and the timeout handler.
/// `mutex` orders them; completions are posted while holding it so frame
/// `seq` numbers hit the wire monotonically.
struct Server::BatchState {
  std::mutex mutex;
  RequestCtx ctx;
  std::vector<Scenario> scenarios;
  /// `sweep`: each outcome is stored at its input index and the request is
  /// answered with one collected frame instead of a stream.
  bool collect = false;
  std::vector<Json> results;
  /// Content hashes for the dedup hold (has_hash false when normalization
  /// failed — those items are submitted anyway and fail in-engine, exactly
  /// like a sequential run of the same scenario).
  std::vector<std::uint64_t> hashes;
  std::vector<char> has_hash;
  std::vector<char> item_done;
  /// Indices not yet handed to the engine, in request order.  Items whose
  /// hash twin is in flight are skipped (held) until the twin finishes, so
  /// an intra-batch duplicate becomes a cache hit — bit-identical to N
  /// sequential runs — instead of a coalesced wait.
  std::deque<std::size_t> pending;
  std::unordered_set<std::uint64_t> inflight;  ///< this batch's hashes in engine
  std::size_t in_window = 0;  ///< jobs currently submitted to the engine
  std::size_t window = 1;     ///< fair-share cap on in_window
  std::size_t remaining = 0;  ///< items without a stream frame yet
  std::uint64_t seq = 0;      ///< next stream-frame sequence number
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  bool finished = false;  ///< terminal frame posted (or the deadline fired)
  // pumpBatch re-entrancy: submitAsync may invoke its callback inline
  // (cache hit), which calls back into pumpBatch; the nested call just
  // marks `dirty` and the outer iteration picks the work up — bounded
  // stack depth even for an all-cached batch of thousands.
  bool pumping = false;
  bool dirty = false;

  /// The request's terminal frame: the batch summary, or the sweep's
  /// collected results (moved out, so build it once).
  Json tail() {
    Json response = Json::object();
    response.set("ok", Json(true));
    if (!collect) {
      response.set("batch", makeBatchSummaryHeader(scenarios.size(),
                                                   completed, errors));
      return response;
    }
    Json array = Json::array();
    for (Json& result : results) array.push(std::move(result));
    response.set("results", std::move(array));
    return response;
  }
};

/// handleRequest's stand-in for the loop's slot: gathers the request's
/// frames and deadline registration for the waiting caller.
struct Server::Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::string frames;
  bool complete = false;  ///< the `last` completion arrived
  Finish finish;
  std::chrono::steady_clock::time_point deadline{};
  std::function<void()> on_timeout;
};

void Server::recordSpan(const obs::TraceContext& trace, std::uint64_t span_id,
                        std::uint64_t parent_id, const char* name,
                        const std::string& note,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  obs::FlightRecorder* recorder = options_.recorder;
  if (recorder == nullptr || !recorder->enabled() || !trace.valid()) return;
  obs::FlightRecorder::Span span;
  span.trace_id = trace.trace_id;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.name = name;
  span.note = note;
  span.ts_us = recorder->toMicros(start);
  span.dur_us = elapsedMicros(start, end);
  span.tid = obs::FlightRecorder::currentTid();
  recorder->record(std::move(span));
}

Json Server::outcomeResponse(const JobOutcome& outcome,
                             const obs::TraceContext& ctx) {
  if (outcome.status == JobStatus::kShed) {
    shed_counter_.inc();
    if (options_.recorder != nullptr)
      options_.recorder->annotateTrace(ctx.trace_id, "server.shed",
                                       outcome.error);
    log_.warn("server.shed",
              {{"error", outcome.error},
               {"retry_after_ms", std::uint64_t{outcome.retry_after_ms}},
               {"trace", ctx}});
    return makeOverloadedResponse(outcome.error, outcome.retry_after_ms);
  }
  if (outcome.status != JobStatus::kOk) {
    if (options_.recorder != nullptr)
      options_.recorder->annotateTrace(ctx.trace_id, "server.job_error",
                                       outcome.error);
    log_.warn("server.job_error",
              {{"error", outcome.error},
               {"timeout", outcome.status == JobStatus::kTimeout},
               {"trace", ctx}});
    Json response = errorResponse(outcome.error);
    response.set("timeout", Json(outcome.status == JobStatus::kTimeout));
    return response;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(outcome.hash));
  Json response = Json::object();
  response.set("ok", Json(true))
      .set("hash", Json(std::string(hex)))
      .set("cached", Json(outcome.cache_hit))
      .set("coalesced", Json(outcome.coalesced))
      .set("execute_micros", Json(outcome.execute_micros))
      .set("result", toJson(outcome.result));
  return response;
}

Server::Server(ServerOptions options)
    : options_(options),
      log_(options.log != nullptr ? *options.log : obs::log()),
      engine_(engineOptions(options)),
      requests_family_(engine_.metricsRegistry().counter(
          "lb_server_requests_total", "Requests handled per verb")),
      protocol_errors_counter_(
          engine_.metricsRegistry()
              .counter("lb_server_protocol_errors_total",
                       "Malformed or unknown requests")
              .get()),
      shed_counter_(engine_.metricsRegistry()
                        .counter("lb_server_shed_total",
                                 "Requests answered with an explicit "
                                 "overloaded response")
                        .get()),
      request_micros_family_(engine_.metricsRegistry().histogram(
          "lb_server_request_micros",
          "Wall-clock service time per request, by verb",
          obs::microsBuckets())),
      stage_read_(engine_.metricsRegistry()
                      .histogram("lb_request_stage_micros",
                                 "Per-stage request latency",
                                 obs::microsBuckets())
                      .withLabels({{"stage", "read"}})),
      stage_parse_(engine_.metricsRegistry()
                       .histogram("lb_request_stage_micros",
                                  "Per-stage request latency",
                                  obs::microsBuckets())
                       .withLabels({{"stage", "parse"}})),
      stage_write_(engine_.metricsRegistry()
                       .histogram("lb_request_stage_micros",
                                  "Per-stage request latency",
                                  obs::microsBuckets())
                       .withLabels({{"stage", "write"}})),
      loop_iteration_micros_(
          engine_.metricsRegistry()
              .histogram("lb_loop_iteration_micros",
                         "Event-loop time spent outside poll() per "
                         "iteration",
                         obs::microsBuckets())
              .get()),
      wakeup_to_dispatch_micros_(
          engine_.metricsRegistry()
              .histogram("lb_loop_wakeup_to_dispatch_micros",
                         "Delay between the loop posting a parsed line and "
                         "a dispatch thread picking it up",
                         obs::microsBuckets())
              .get()),
      dispatch_depth_gauge_(engine_.metricsRegistry()
                                .gauge("lb_loop_dispatch_queue_depth",
                                       "Requests posted to the dispatch "
                                       "pool, not yet picked up")
                                .get()),
      dispatch_depth_max_gauge_(
          engine_.metricsRegistry()
              .gauge("lb_loop_dispatch_queue_depth_max",
                     "High watermark of lb_loop_dispatch_queue_depth")
              .get()),
      completion_depth_gauge_(engine_.metricsRegistry()
                                  .gauge("lb_loop_completion_queue_depth",
                                         "Completions awaiting the loop "
                                         "thread")
                                  .get()),
      completion_depth_max_gauge_(
          engine_.metricsRegistry()
              .gauge("lb_loop_completion_queue_depth_max",
                     "High watermark of lb_loop_completion_queue_depth")
              .get()),
      connections_gauge_(engine_.metricsRegistry()
                             .gauge("lb_loop_connections",
                                    "Open event-loop connections")
                             .get()),
      loop_stalls_counter_(
          engine_.metricsRegistry()
              .counter("lb_loop_stalls_total",
                       "Event-loop iterations that exceeded the stall "
                       "threshold outside poll()")
              .get()),
      slow_requests_family_(engine_.metricsRegistry().counter(
          "lb_server_slow_requests_total",
          "Requests slower than their verb's exemplar threshold")) {
  // Every wire verb must have a server binding (and nothing beyond the
  // registry): the registry is the single source of truth, so a missing
  // handler is a programming error caught at the first construction.
  const auto& bindings = verbBindings();
  for (const VerbSpec& spec : verbRegistry())
    if (bindings.find(spec.name) == bindings.end())
      throw std::logic_error("no server handler bound for verb \"" +
                             spec.name + "\"");
  if (bindings.size() != verbRegistry().size())
    throw std::logic_error("server binds a verb the registry does not list");

  latency_reservoir_.reserve(kLatencyReservoir);

  if (options_.history_interval.count() > 0) {
    obs::TimeSeriesRing::Options ring;
    ring.interval = options_.history_interval;
    ring.capacity = options_.history_capacity;
    history_ = std::make_unique<obs::TimeSeriesRing>(engine_.metricsRegistry(),
                                                     ring);
    history_->start();
  }

  int wake[2];
  if (::pipe(wake) != 0) throw std::runtime_error("pipe() failed");
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  net::setNonblocking(wake_read_fd_);
  net::setNonblocking(wake_write_fd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("bind() failed on 127.0.0.1:" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 256) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("listen() failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Server::~Server() {
  stop();
  {
    // Engine workers may still invoke async completions while engine_ is
    // being destroyed; they post under this mutex and skip the wake write
    // once the fds are gone.
    std::lock_guard<std::mutex> lock(completions_mutex_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
    wake_read_fd_ = -1;
    wake_write_fd_ = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  serve_thread_ = std::thread([this] { serve(); });
}

void Server::wakeLoop() {
  std::lock_guard<std::mutex> lock(completions_mutex_);
  if (wake_write_fd_ >= 0) {
    const char byte = 'w';
    // A full pipe means a wakeup is already pending — EAGAIN is success.
    (void)!::write(wake_write_fd_, &byte, 1);
  }
}

void Server::postCompletion(const RequestCtx& ctx, Completion completion) {
  if (ctx.collector != nullptr) {
    Collector& collector = *ctx.collector;
    {
      std::lock_guard<std::mutex> lock(collector.mutex);
      if (completion.set_deadline) {
        collector.deadline = completion.deadline;
        collector.on_timeout = std::move(completion.on_timeout);
      } else {
        collector.frames += completion.frames;
        if (completion.last) {
          collector.complete = true;
          collector.finish = std::move(completion.finish);
        }
      }
    }
    collector.cv.notify_all();
    return;
  }
  completion.conn_id = ctx.conn_id;
  completion.slot_id = ctx.slot_id;
  std::int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
    depth = static_cast<std::int64_t>(completions_.size());
    if (wake_write_fd_ >= 0) {
      const char byte = 'w';
      (void)!::write(wake_write_fd_, &byte, 1);
    }
  }
  completion_depth_gauge_.set(depth);
  bumpWatermark(completion_depth_max_, completion_depth_max_gauge_, depth);
}

void Server::registerDeadline(const RequestCtx& ctx,
                              std::chrono::steady_clock::duration budget,
                              std::function<void()> on_timeout) {
  Completion registration;
  registration.set_deadline = true;
  registration.deadline = std::chrono::steady_clock::now() + budget;
  registration.on_timeout = std::move(on_timeout);
  postCompletion(ctx, std::move(registration));
}

void Server::stop() {
  if (!stopping_.exchange(true)) wakeLoop();
  if (serve_thread_.joinable() &&
      serve_thread_.get_id() != std::this_thread::get_id())
    serve_thread_.join();
}

// ---------------------------------------------------------------------------
// Verb dispatch
// ---------------------------------------------------------------------------

const std::unordered_map<std::string, Server::Verb>& Server::verbBindings() {
  static const std::unordered_map<std::string, Verb> bindings = {
      {"run", &Server::onRun},         {"sweep", &Server::onBatch},
      {"batch", &Server::onBatch},     {"stats", &Server::onStats},
      {"metrics", &Server::onMetrics}, {"trace", &Server::onTrace},
      {"health", &Server::onHealth},   {"history", &Server::onHistory},
      {"shutdown", &Server::onShutdown},
  };
  return bindings;
}

Json Server::protocolError(const std::string& message, RequestCtx& ctx) {
  ++protocol_errors_;
  protocol_errors_counter_.inc();
  // A request that failed before minting ids (parse error) still gets a
  // root span, keeping lb_server_request_micros observations and
  // server.request spans 1:1 whenever tracing is on.
  if (ctx.tracing && !ctx.root_ctx.valid()) {
    ctx.root_ctx.trace_id =
        ctx.client_ctx.valid() ? ctx.client_ctx.trace_id : obs::mintTraceId();
    ctx.root_ctx.span_id = obs::mintTraceId();
  }
  if (options_.recorder != nullptr)
    options_.recorder->annotateTrace(ctx.root_ctx.trace_id,
                                     "server.protocol_error", message);
  log_.warn("server.protocol_error",
            {{"error", message}, {"trace", ctx.root_ctx}});
  return errorResponse(message);
}

void Server::dispatch(const std::string& line, RequestCtx& ctx) {
  ++requests_;
  obs::FlightRecorder* recorder = options_.recorder;
  ctx.tracing = recorder != nullptr && recorder->enabled();
  try {
    const Json request = Json::parse(line);
    ctx.client_ctx = traceContextFromRequest(request);
    ctx.root_ctx.trace_id = ctx.client_ctx.valid() ? ctx.client_ctx.trace_id
                            : ctx.tracing          ? obs::mintTraceId()
                                                   : 0;
    if (ctx.tracing) ctx.root_ctx.span_id = obs::mintTraceId();
    const auto parsed = std::chrono::steady_clock::now();
    stage_parse_.observe(elapsedMicros(ctx.started, parsed));
    recordSpan(ctx.root_ctx, obs::mintTraceId(), ctx.root_ctx.span_id,
               "server.parse", "", ctx.started, parsed);
    const std::string& verb = request.at("verb").asString();
    const auto& bindings = verbBindings();
    const auto binding = bindings.find(verb);
    if (binding != bindings.end()) ctx.verb_label = verb;
    requests_family_.withLabels({{"verb", ctx.verb_label}}).inc();
    if (ctx.collector == nullptr) {
      // Feed the `health` verb's connection table: the verb this
      // connection most recently issued plus the trace id of each
      // in-flight slot (erased by the loop when the slot completes).
      std::lock_guard<std::mutex> lock(introspect_mutex_);
      conn_last_verb_[ctx.conn_id] = ctx.verb_label;
      inflight_traces_[{ctx.conn_id, ctx.slot_id}] = ctx.root_ctx.trace_id;
    }
    if (binding == bindings.end()) {
      Json response = protocolError("unknown verb \"" + verb + "\"", ctx);
      response.set("supported_verbs", protocolVerbsJson());
      respondLast(ctx, std::move(response));
      return;
    }
    (this->*(binding->second))(request, ctx);
  } catch (const std::exception& e) {
    respondLast(ctx, protocolError(e.what(), ctx));
  }
}

void Server::onStats(const Json&, const RequestCtx& ctx) {
  Json response = Json::object();
  response.set("ok", Json(true)).set("stats", statsJson());
  respondLast(ctx, std::move(response));
}

void Server::onMetrics(const Json&, const RequestCtx& ctx) {
  Json response = Json::object();
  response.set("ok", Json(true))
      .set("metrics", Json(engine_.metricsRegistry().renderPrometheus()));
  respondLast(ctx, std::move(response));
}

void Server::onTrace(const Json&, const RequestCtx& ctx) {
  obs::FlightRecorder* recorder = options_.recorder;
  Json response = Json::object();
  if (recorder == nullptr) {
    response.set("ok", Json(false))
        .set("error",
             Json("flight recorder is disabled (start lbd with "
                  "--flight-recorder N)"));
  } else {
    std::ostringstream dump;
    recorder->writeChromeTrace(dump);
    response.set("ok", Json(true))
        .set("spans", Json(static_cast<std::uint64_t>(recorder->spanCount())))
        .set("events",
             Json(static_cast<std::uint64_t>(recorder->eventCount())))
        .set("dropped",
             Json(recorder->droppedSpans() + recorder->droppedEvents()))
        .set("chrome_trace", Json(dump.str()));
  }
  respondLast(ctx, std::move(response));
}

void Server::onHealth(const Json&, const RequestCtx& ctx) {
  const auto now = std::chrono::steady_clock::now();
  Json health = Json::object();
  health.set("mode", Json("event-loop"));
  health.set("uptime_ms",
             Json(static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - started_at_)
                     .count())));

  Json loop = Json::object();
  loop.set("iterations", Json(loop_iteration_micros_.count()))
      .set("stalls", Json(loop_stalls_counter_.value()))
      .set("iteration_p50_us",
           Json(obs::histogramQuantile(loop_iteration_micros_, 0.50)))
      .set("iteration_p99_us",
           Json(obs::histogramQuantile(loop_iteration_micros_, 0.99)))
      .set("wakeup_to_dispatch_p99_us",
           Json(obs::histogramQuantile(wakeup_to_dispatch_micros_, 0.99)))
      .set("dispatch_queue_depth", Json(dispatch_depth_gauge_.value()))
      .set("dispatch_queue_depth_max", Json(dispatch_depth_max_gauge_.value()))
      .set("completion_queue_depth", Json(completion_depth_gauge_.value()))
      .set("completion_queue_depth_max",
           Json(completion_depth_max_gauge_.value()));
  health.set("loop", std::move(loop));

  // Aggregate the per-verb service-time histograms into one distribution:
  // every child shares microsBuckets(), so the bucket vectors add.
  const std::vector<double> bounds = obs::microsBuckets();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  std::uint64_t total_requests = 0;
  for (const auto& [labels, histogram] : request_micros_family_.children()) {
    for (std::size_t i = 0; i <= bounds.size(); ++i)
      counts[i] += histogram->bucketCount(i);
    total_requests += histogram->count();
  }
  std::uint64_t slow = 0;
  for (const auto& [labels, counter] : slow_requests_family_.children())
    slow += counter->value();
  Json requests = Json::object();
  requests.set("total", Json(total_requests))
      .set("protocol_errors", Json(protocol_errors_.load()))
      .set("slow", Json(slow))
      .set("p50_us", Json(obs::histogramQuantile(bounds, counts, 0.50)))
      .set("p95_us", Json(obs::histogramQuantile(bounds, counts, 0.95)))
      .set("p99_us", Json(obs::histogramQuantile(bounds, counts, 0.99)));
  health.set("requests", std::move(requests));

  // The raw aggregated buckets, so clients (lbtop) can compute any
  // quantile with the same shared estimator instead of new wire fields.
  Json histogram_json = Json::object();
  Json bounds_json = Json::array();
  for (const double bound : bounds) bounds_json.push(Json(bound));
  Json counts_json = Json::array();
  for (const std::uint64_t count : counts) counts_json.push(Json(count));
  histogram_json.set("bounds", std::move(bounds_json))
      .set("counts", std::move(counts_json));
  health.set("latency_histogram", std::move(histogram_json));

  const JobEngineStats engine = engine_.stats();
  Json engine_json = Json::object();
  engine_json
      .set("queue_depth", Json(static_cast<std::uint64_t>(engine.queue_depth)))
      .set("in_flight", Json(static_cast<std::uint64_t>(engine.in_flight)))
      .set("jobs_completed", Json(engine.completed))
      .set("jobs_shed", Json(engine.shed))
      .set("cache_hits", Json(engine.cache.hits))
      .set("cache_misses", Json(engine.cache.misses));
  health.set("engine", std::move(engine_json));

  health.set("connections", connectionsJson());

  Json response = Json::object();
  response.set("ok", Json(true)).set("health", std::move(health));
  respondLast(ctx, std::move(response));
}

Json Server::connectionsJson() {
  std::lock_guard<std::mutex> lock(introspect_mutex_);
  Json connections = Json::array();
  for (const ConnSnapshot& conn : conn_table_) {
    Json row = Json::object();
    row.set("id", Json(conn.id))
        .set("in_flight", Json(conn.in_flight))
        .set("read_buffered", Json(conn.read_buffered))
        .set("write_buffered", Json(conn.write_buffered))
        .set("age_ms", Json(conn.age_ms));
    const auto verb_it = conn_last_verb_.find(conn.id);
    if (verb_it != conn_last_verb_.end())
      row.set("last_verb", Json(verb_it->second));
    if (conn.oldest_slot != 0) {
      const auto trace_it =
          inflight_traces_.find({conn.id, conn.oldest_slot});
      if (trace_it != inflight_traces_.end() && trace_it->second != 0)
        row.set("oldest_trace", Json(obs::traceIdHex(trace_it->second)));
    }
    connections.push(std::move(row));
  }
  return connections;
}

void Server::onHistory(const Json& request, const RequestCtx& ctx) {
  Json response = Json::object();
  if (history_ == nullptr) {
    response.set("ok", Json(false))
        .set("error", Json("history is disabled (start lbd with "
                           "--history-interval-ms N)"));
    respondLast(ctx, std::move(response));
    return;
  }
  std::size_t last = 0;
  if (const Json* n = request.find("last"))
    last = static_cast<std::size_t>(n->asUint64());
  std::vector<std::string> filter;
  if (const Json* names = request.find("metrics"))
    for (const Json& name : names->asArray())
      filter.push_back(name.asString());

  const std::vector<obs::TimeSeriesRing::Snapshot> samples =
      history_->history(last);

  Json samples_json = Json::array();
  for (const obs::TimeSeriesRing::Snapshot& sample : samples) {
    Json sample_json = Json::object();
    sample_json.set("seq", Json(sample.seq)).set("at_ms", Json(sample.at_ms));
    Json points = Json::array();
    for (const obs::TimeSeriesRing::Point& point : sample.points) {
      if (!filter.empty() &&
          std::find(filter.begin(), filter.end(), point.name) == filter.end())
        continue;
      Json point_json = Json::object();
      point_json.set("name", Json(point.name));
      if (!point.labels.empty()) point_json.set("labels", Json(point.labels));
      point_json.set("value", Json(point.value));
      if (point.monotone) point_json.set("delta", Json(point.delta));
      points.push(std::move(point_json));
    }
    sample_json.set("points", std::move(points));
    samples_json.push(std::move(sample_json));
  }

  Json history = Json::object();
  history
      .set("interval_ms", Json(static_cast<std::uint64_t>(
                              history_->options().interval.count())))
      .set("capacity",
           Json(static_cast<std::uint64_t>(history_->options().capacity)))
      .set("samples", std::move(samples_json));
  response.set("ok", Json(true)).set("history", std::move(history));
  respondLast(ctx, std::move(response));
}

void Server::onShutdown(const Json&, const RequestCtx& ctx) {
  if (!stopping_.exchange(true)) wakeLoop();
  log_.debug("server.shutdown", {{"trace", ctx.root_ctx}});
  Json response = Json::object();
  response.set("ok", Json(true)).set("stopping", Json(true));
  respondLast(ctx, std::move(response), /*shutdown=*/true);
}

std::string Server::handleRequest(const std::string& line,
                                  obs::TraceContext* root_out) {
  RequestCtx ctx;
  ctx.started = std::chrono::steady_clock::now();
  ctx.collector = std::make_shared<Collector>();
  dispatch(line, ctx);

  Collector& collector = *ctx.collector;
  std::unique_lock<std::mutex> lock(collector.mutex);
  while (!collector.complete) {
    if (!collector.on_timeout) {
      collector.cv.wait(lock);
      continue;
    }
    if (collector.cv.wait_until(lock, collector.deadline) !=
        std::cv_status::timeout)
      continue;
    // The deadline passed: fire it as the loop's fireDeadlines does.  The
    // handler posts back into this collector, so it runs unlocked.
    auto on_timeout = std::exchange(collector.on_timeout, nullptr);
    lock.unlock();
    on_timeout();
    lock.lock();
  }
  // The deadline handler captures the request's state, which in turn holds
  // this collector: drop it to break the cycle.
  collector.on_timeout = nullptr;
  std::string wire = std::move(collector.frames);
  const Finish finish = std::move(collector.finish);
  lock.unlock();
  if (!wire.empty()) wire.pop_back();  // frames joined with '\n'
  applyFinish(finish);
  if (root_out != nullptr) *root_out = ctx.root_ctx;
  return wire;
}

// ---------------------------------------------------------------------------
// Responses and job verbs
// ---------------------------------------------------------------------------

std::string Server::wireFrame(Json response, const RequestCtx& ctx) {
  stampProtocolVersion(response);
  if (ctx.client_ctx.valid() || ctx.tracing)
    stampTraceContext(response, ctx.root_ctx);
  return response.dump() + "\n";
}

Server::Finish Server::makeFinish(const RequestCtx& ctx) const {
  Finish finish;
  finish.valid = true;
  finish.verb_label = ctx.verb_label;
  finish.client_ctx = ctx.client_ctx;
  finish.root_ctx = ctx.root_ctx;
  finish.started = ctx.started;
  return finish;
}

void Server::applyFinish(const Finish& finish) {
  if (!finish.valid) return;
  const auto finished = std::chrono::steady_clock::now();
  const double total_micros = elapsedMicros(finish.started, finished);
  request_micros_family_.withLabels({{"verb", finish.verb_label}})
      .observe(total_micros);
  recordLatency(total_micros);
  // Slow-request exemplar (see ServerOptions::slow_request_us).
  std::uint64_t threshold = options_.slow_request_default_us;
  const auto it = options_.slow_request_us.find(finish.verb_label);
  if (it != options_.slow_request_us.end()) threshold = it->second;
  if (threshold != 0 && total_micros > static_cast<double>(threshold)) {
    slow_requests_family_.withLabels({{"verb", finish.verb_label}}).inc();
    if (options_.recorder != nullptr)
      options_.recorder->annotateTrace(
          finish.root_ctx.trace_id, "server.slow_request",
          finish.verb_label + " took " +
              std::to_string(static_cast<std::uint64_t>(total_micros)) +
              "us (threshold " + std::to_string(threshold) + "us)");
  }
  recordSpan(finish.root_ctx, finish.root_ctx.span_id,
             finish.client_ctx.span_id, "server.request", finish.verb_label,
             finish.started, finished);
}

void Server::respondLast(const RequestCtx& ctx, Json response, bool shutdown) {
  Completion completion;
  completion.frames = wireFrame(std::move(response), ctx);
  completion.last = true;
  completion.shutdown = shutdown;
  completion.finish = makeFinish(ctx);
  postCompletion(ctx, std::move(completion));
}

void Server::dispatchLine(std::uint64_t conn_id, std::uint64_t slot_id,
                          std::string line,
                          std::chrono::steady_clock::time_point read_started,
                          std::chrono::steady_clock::time_point read_finished) {
  RequestCtx ctx;
  ctx.conn_id = conn_id;
  ctx.slot_id = slot_id;
  ctx.started = std::chrono::steady_clock::now();
  // `read_finished` is the loop's post timestamp, so this histogram is the
  // dispatch pool's pickup delay (queueing, not parsing).
  wakeup_to_dispatch_micros_.observe(elapsedMicros(read_finished, ctx.started));
  dispatch_depth_gauge_.set(
      dispatch_depth_.fetch_sub(1, std::memory_order_relaxed) - 1);
  stage_read_.observe(elapsedMicros(read_started, read_finished));
  dispatch(line, ctx);
  recordSpan(ctx.root_ctx, obs::mintTraceId(), ctx.root_ctx.span_id,
             "server.read", "", read_started, read_finished);
}

void Server::onRun(const Json& request, const RequestCtx& ctx) {
  const Scenario scenario = scenarioFromJson(request.at("scenario"));
  // Register the slot deadline first so it is in place before any worker
  // can finish the job.  `answered` settles the completion-vs-deadline
  // race: whichever side claims it first posts the one response.
  auto answered = std::make_shared<std::atomic<bool>>(false);
  registerDeadline(ctx, engine_.options().timeout, [this, ctx, answered] {
    if (answered->exchange(true)) return;
    respondLast(ctx, outcomeResponse(engine_.timeoutOutcome(), ctx.root_ctx));
  });
  engine_.submitAsync(scenario, ctx.root_ctx,
                      [this, ctx, answered](JobOutcome outcome) {
                        if (answered->exchange(true)) return;
                        respondLast(ctx,
                                    outcomeResponse(outcome, ctx.root_ctx));
                      });
}

void Server::onBatch(const Json& request, const RequestCtx& ctx) {
  auto state = std::make_shared<BatchState>();
  state->ctx = ctx;
  state->collect = ctx.verb_label == "sweep";
  for (const Json& item : request.at("scenarios").asArray())
    state->scenarios.push_back(scenarioFromJson(item));
  const std::size_t n = state->scenarios.size();
  if (n > options_.max_batch)
    throw std::runtime_error(
        ctx.verb_label + " of " + std::to_string(n) +
        " scenarios exceeds the server limit of " +
        std::to_string(options_.max_batch));
  if (n == 0) {
    respondLast(ctx, state->tail());
    return;
  }

  if (state->collect) state->results.resize(n);
  state->hashes.assign(n, 0);
  state->has_hash.assign(n, 0);
  state->item_done.assign(n, 0);
  state->remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    state->pending.push_back(i);
    try {
      state->hashes[i] = scenarioHash(normalized(state->scenarios[i]));
      state->has_hash[i] = 1;
    } catch (const std::exception&) {
      // Invalid scenario: no content address.  Submit it anyway; the
      // engine converts the validation failure into a kError outcome,
      // exactly as a sequential run would.
    }
  }
  std::size_t window = options_.batch_window;
  if (window == 0) {
    window = options_.engine.workers != 0
                 ? options_.engine.workers
                 : std::max(1u, std::thread::hardware_concurrency());
  }
  state->window = std::max<std::size_t>(1, window);

  // Each scenario gets a full per-job budget: the deadline is timeout x N.
  registerDeadline(ctx, engine_.options().timeout * static_cast<std::int64_t>(n),
                   [this, state]() { return timeoutBatch(state); });
  pumpBatch(state);
}

void Server::pumpBatch(const std::shared_ptr<BatchState>& state) {
  std::unique_lock<std::mutex> lock(state->mutex);
  if (state->pumping) {
    state->dirty = true;
    return;
  }
  state->pumping = true;
  for (;;) {
    state->dirty = false;
    while (!state->finished && state->in_window < state->window &&
           !state->pending.empty()) {
      // First pending item whose hash twin is not in flight; duplicates
      // stay held so they land as cache hits once the twin finishes.
      std::size_t index = state->scenarios.size();
      for (auto it = state->pending.begin(); it != state->pending.end();
           ++it) {
        if (state->has_hash[*it] &&
            state->inflight.count(state->hashes[*it]) != 0)
          continue;
        index = *it;
        state->pending.erase(it);
        break;
      }
      if (index == state->scenarios.size()) break;  // everything held
      ++state->in_window;
      if (state->has_hash[index]) state->inflight.insert(state->hashes[index]);
      const Scenario scenario = state->scenarios[index];
      const obs::TraceContext trace = state->ctx.root_ctx;
      lock.unlock();
      engine_.submitAsync(scenario, trace,
                          [this, state, index](JobOutcome outcome) {
                            finishBatchItem(state, index, outcome);
                          });
      lock.lock();
    }
    if (!state->dirty) break;
  }
  state->pumping = false;
}

void Server::finishBatchItem(const std::shared_ptr<BatchState>& state,
                             std::size_t index, const JobOutcome& outcome) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->in_window > 0) --state->in_window;
    if (state->has_hash[index]) state->inflight.erase(state->hashes[index]);
    if (!state->finished && !state->item_done[index]) {
      state->item_done[index] = 1;
      --state->remaining;
      outcome.status == JobStatus::kOk ? ++state->completed : ++state->errors;
      Json response = outcomeResponse(outcome, state->ctx.root_ctx);
      Completion completion;
      if (state->collect) {
        state->results[index] = std::move(response);
      } else {
        response.set("batch", makeBatchFrameHeader(index, state->seq++,
                                                   state->scenarios.size()));
        completion.frames = wireFrame(std::move(response), state->ctx);
      }
      if (state->remaining == 0) {
        completion.frames += wireFrame(state->tail(), state->ctx);
        completion.last = true;
        completion.finish = makeFinish(state->ctx);
        state->finished = true;
      }
      // Posted under the state mutex so stream frames enter the loop's
      // completion queue in `seq` order (lock order is always state ->
      // completions, never the reverse).
      if (!completion.frames.empty())
        postCompletion(state->ctx, std::move(completion));
    }
  }
  pumpBatch(state);
}

void Server::timeoutBatch(const std::shared_ptr<BatchState>& state) {
  std::lock_guard<std::mutex> lock(state->mutex);
  if (state->finished) return;
  state->finished = true;
  Completion completion;
  for (std::size_t i = 0; i < state->scenarios.size(); ++i) {
    if (state->item_done[i]) continue;
    ++state->errors;
    Json response = outcomeResponse(engine_.timeoutOutcome(),
                                    state->ctx.root_ctx);
    if (state->collect) {
      state->results[i] = std::move(response);
      continue;
    }
    response.set("batch", makeBatchFrameHeader(i, state->seq++,
                                               state->scenarios.size()));
    completion.frames += wireFrame(std::move(response), state->ctx);
  }
  completion.frames += wireFrame(state->tail(), state->ctx);
  completion.last = true;
  completion.finish = makeFinish(state->ctx);
  postCompletion(state->ctx, std::move(completion));
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

void Server::serve() {
  if (dispatch_pool_ == nullptr) {
    std::size_t threads = options_.dispatch_threads;
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = std::max<std::size_t>(2, std::min<std::size_t>(8, hw / 2));
    }
    dispatch_pool_ = std::make_unique<sim::ThreadPool>(threads);
  }
  net::setNonblocking(listen_fd_);

  using Clock = std::chrono::steady_clock;

  /// Response slot for one pipelined request.  Slots live in request order;
  /// only the front slot's frames reach the wire, so responses (and batch
  /// streams) come back in the order the requests arrived.
  struct Slot {
    std::uint64_t id = 0;
    std::string frames;      ///< wire bytes not yet promoted to the conn
    bool complete = false;   ///< final frames arrived
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::function<void()> on_timeout;
    obs::TraceContext root;  ///< for the server.write span
  };
  /// One queued server.write measurement: fires when flushed_total passes
  /// end_offset (the last byte of that request's response frames).
  struct WriteMark {
    std::uint64_t end_offset = 0;
    obs::TraceContext root;
    Clock::time_point started{};
  };
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string rbuf;
    std::string wbuf;
    std::size_t woff = 0;           ///< send offset into wbuf
    std::uint64_t queued_total = 0;   ///< bytes ever promoted to wbuf
    std::uint64_t flushed_total = 0;  ///< bytes the kernel accepted
    std::deque<Slot> slots;
    std::uint64_t next_slot = 1;
    std::deque<WriteMark> marks;
    Clock::time_point read_started{};
    Clock::time_point opened{};  ///< accept time, for the health verb's age
    bool eof = false;   ///< peer half-closed; finish pending work then close
    bool dead = false;  ///< closed; reaped by the per-iteration sweep
  };
  /// A request whose connection died before its completion arrived.  The
  /// Finish must still be applied exactly once (metrics/span reconcile), so
  /// the entry waits for the request's one `last` completion: the real
  /// answer or the one its deadline posts.
  struct OrphanSlot {
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::function<void()> on_timeout;
  };

  std::unordered_map<std::uint64_t, Conn> conns;
  std::map<std::pair<std::uint64_t, std::uint64_t>, OrphanSlot> orphans;
  std::uint64_t next_conn = 1;

  auto closeConn = [&](Conn& conn, const char* reason) {
    if (conn.dead) return;
    log_.debug("server.conn_close",
               {{"fd", std::int64_t{conn.fd}}, {"reason", reason}});
    {
      std::lock_guard<std::mutex> lock(introspect_mutex_);
      conn_last_verb_.erase(conn.id);
      inflight_traces_.erase(
          inflight_traces_.lower_bound({conn.id, 0}),
          inflight_traces_.lower_bound({conn.id + 1, 0}));
    }
    for (Slot& slot : conn.slots) {
      if (slot.complete) continue;
      OrphanSlot orphan;
      orphan.has_deadline = slot.has_deadline;
      orphan.deadline = slot.deadline;
      orphan.on_timeout = std::move(slot.on_timeout);
      orphans[{conn.id, slot.id}] = std::move(orphan);
    }
    conn.slots.clear();
    ::close(conn.fd);
    conn.dead = true;
  };

  auto flushConn = [&](Conn& conn) {
    if (conn.dead) return;
    if (conn.woff < conn.wbuf.size()) {
      const net::IoStatus status =
          net::sendNonblock(conn.fd, conn.wbuf, conn.woff, options_.fault);
      if (status == net::IoStatus::kError) {
        closeConn(conn, "write failed");
        return;
      }
    }
    conn.flushed_total = conn.queued_total - (conn.wbuf.size() - conn.woff);
    while (!conn.marks.empty() &&
           conn.flushed_total >= conn.marks.front().end_offset) {
      const WriteMark& mark = conn.marks.front();
      const auto now = Clock::now();
      stage_write_.observe(elapsedMicros(mark.started, now));
      recordSpan(mark.root, obs::mintTraceId(), mark.root.span_id,
                 "server.write", "", mark.started, now);
      conn.marks.pop_front();
    }
    if (conn.woff == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.woff = 0;
    }
  };

  /// Moves the ordered frames that may legally hit the wire into wbuf: the
  /// front slot streams as frames arrive; completed front slots retire and
  /// unblock the next one.
  auto promote = [&](Conn& conn) {
    if (conn.dead) return;
    const auto now = Clock::now();
    while (!conn.slots.empty()) {
      Slot& front = conn.slots.front();
      if (!front.frames.empty()) {
        conn.wbuf += front.frames;
        conn.queued_total += front.frames.size();
        front.frames.clear();
      }
      if (!front.complete) break;
      conn.marks.push_back({conn.queued_total, front.root, now});
      conn.slots.pop_front();
      if (conn.slots.empty()) conn.read_started = now;  // idle clock restarts
    }
    flushConn(conn);
  };

  auto handleReadable = [&](Conn& conn) {
    std::size_t budget = kReadBudget;
    for (;;) {
      for (;;) {
        const std::size_t newline = conn.rbuf.find('\n');
        if (newline == std::string::npos) break;
        std::string line = conn.rbuf.substr(0, newline);
        conn.rbuf.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        const auto now = Clock::now();
        if (line.empty()) {
          conn.read_started = now;
          continue;
        }
        // Requests pipelined after a shutdown was answered are dropped,
        // not executed.
        if (stopping_.load()) continue;
        const auto read_started = conn.read_started;
        conn.read_started = now;
        Slot slot;
        slot.id = conn.next_slot++;
        const std::uint64_t conn_id = conn.id;
        const std::uint64_t slot_id = slot.id;
        conn.slots.push_back(std::move(slot));
        const std::int64_t depth =
            dispatch_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
        dispatch_depth_gauge_.set(depth);
        bumpWatermark(dispatch_depth_max_, dispatch_depth_max_gauge_, depth);
        dispatch_pool_->post(
            [this, conn_id, slot_id, line = std::move(line), read_started,
             now]() mutable {
              dispatchLine(conn_id, slot_id, std::move(line), read_started,
                           now);
            });
      }
      if (conn.rbuf.size() > kMaxLineBytes) {
        closeConn(conn, "request line too long");
        return;
      }
      if (budget == 0) return;  // fairness: poll() re-arms this conn
      if (conn.slots.size() >= kMaxPipeline) return;  // backpressure
      const std::size_t before = conn.rbuf.size();
      const net::IoStatus status =
          net::recvNonblock(conn.fd, conn.rbuf, 4096, options_.fault);
      if (status == net::IoStatus::kOk) {
        budget -= std::min(budget, conn.rbuf.size() - before);
        continue;
      }
      if (status == net::IoStatus::kWouldBlock) return;
      if (status == net::IoStatus::kClosed) {
        conn.eof = true;
        return;
      }
      closeConn(conn, "read failed");
      return;
    }
  };

  auto processCompletions = [&]() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      batch.swap(completions_);
    }
    completion_depth_gauge_.set(0);
    for (Completion& completion : batch) {
      if (completion.shutdown) stopping_.store(true);
      const auto conn_it = conns.find(completion.conn_id);
      if (conn_it == conns.end() || conn_it->second.dead) {
        const auto orphan_it =
            orphans.find({completion.conn_id, completion.slot_id});
        if (orphan_it == orphans.end()) continue;  // slot long retired
        OrphanSlot& orphan = orphan_it->second;
        if (completion.set_deadline) {
          orphan.has_deadline = true;
          orphan.deadline = completion.deadline;
          orphan.on_timeout = std::move(completion.on_timeout);
          continue;
        }
        if (completion.last) {
          applyFinish(completion.finish);
          orphans.erase(orphan_it);
        }
        continue;  // stream frames to a dead conn are dropped
      }
      Conn& conn = conn_it->second;
      Slot* slot = nullptr;
      for (Slot& candidate : conn.slots)
        if (candidate.id == completion.slot_id) {
          slot = &candidate;
          break;
        }
      if (slot == nullptr) continue;  // slot long retired
      if (completion.set_deadline) {
        slot->has_deadline = true;
        slot->deadline = completion.deadline;
        slot->on_timeout = std::move(completion.on_timeout);
        continue;
      }
      slot->frames += completion.frames;
      if (completion.last) {
        slot->complete = true;
        slot->has_deadline = false;
        slot->root = completion.finish.root_ctx;
        applyFinish(completion.finish);
        std::lock_guard<std::mutex> lock(introspect_mutex_);
        inflight_traces_.erase({completion.conn_id, completion.slot_id});
      }
      promote(conn);
    }
  };

  auto fireDeadlines = [&](Clock::time_point now) {
    for (auto& entry : conns) {
      Conn& conn = entry.second;
      if (conn.dead) continue;
      // A due handler posts the timeout answer as an ordinary completion
      // (or nothing, when the real answer was posted first).
      for (Slot& slot : conn.slots) {
        if (!slot.has_deadline || slot.complete || now < slot.deadline)
          continue;
        slot.has_deadline = false;
        if (slot.on_timeout) std::exchange(slot.on_timeout, nullptr)();
      }
      if (options_.read_deadline.count() > 0 && conn.slots.empty() &&
          conn.woff == conn.wbuf.size() &&
          now - conn.read_started >= options_.read_deadline)
        closeConn(conn, "idle");
    }
    for (auto& entry : orphans) {
      OrphanSlot& orphan = entry.second;
      if (!orphan.has_deadline || now < orphan.deadline) continue;
      orphan.has_deadline = false;
      if (orphan.on_timeout) std::exchange(orphan.on_timeout, nullptr)();
    }
  };

  auto nextTimeoutMs = [&](Clock::time_point now) -> int {
    std::optional<Clock::time_point> next;
    auto consider = [&](Clock::time_point t) {
      if (!next || t < *next) next = t;
    };
    for (auto& entry : conns) {
      Conn& conn = entry.second;
      if (conn.dead) continue;
      for (Slot& slot : conn.slots)
        if (slot.has_deadline && !slot.complete) consider(slot.deadline);
      if (options_.read_deadline.count() > 0 && conn.slots.empty() &&
          conn.woff == conn.wbuf.size())
        consider(conn.read_started + options_.read_deadline);
    }
    for (auto& entry : orphans)
      if (entry.second.has_deadline) consider(entry.second.deadline);
    if (!next) return -1;
    const auto remaining = *next - now;
    if (remaining.count() <= 0) return 0;
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count() +
        1;
    return static_cast<int>(std::min<long long>(ms, 60000));
  };

  /// Publishes the `health` verb's connection table.  Runs once per
  /// iteration, after accepts and before any request read in the iteration
  /// is dispatched — so a `health` request always sees its own connection.
  auto publishConnTable = [&](Clock::time_point now) {
    connections_gauge_.set(static_cast<std::int64_t>(conns.size()));
    std::lock_guard<std::mutex> lock(introspect_mutex_);
    conn_table_.clear();
    conn_table_.reserve(conns.size());
    for (auto& entry : conns) {
      Conn& conn = entry.second;
      if (conn.dead) continue;
      ConnSnapshot snap;
      snap.id = conn.id;
      snap.in_flight = conn.slots.size();
      snap.read_buffered = conn.rbuf.size();
      snap.write_buffered = conn.wbuf.size() - conn.woff;
      snap.age_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - conn.opened)
              .count());
      snap.oldest_slot = conn.slots.empty() ? 0 : conn.slots.front().id;
      conn_table_.push_back(snap);
    }
    conn_table_at_ = now;
  };

  const double stall_threshold_us =
      std::chrono::duration<double, std::micro>(options_.stall_threshold)
          .count();
  Clock::time_point last_stall_log{};
  Clock::time_point work_started = Clock::now();

  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;
  for (;;) {
    processCompletions();
    const auto now = Clock::now();
    fireDeadlines(now);

    // Reap: normal EOF / shutdown drain closes once a conn has answered
    // everything and flushed it.
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& conn = it->second;
      if (!conn.dead && (conn.eof || stopping_.load()) &&
          conn.slots.empty() && conn.woff == conn.wbuf.size())
        closeConn(conn, conn.eof ? "eof" : "shutdown");
      if (conn.dead)
        it = conns.erase(it);
      else
        ++it;
    }

    if (stopping_.load() && conns.empty() && orphans.empty()) {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      if (completions_.empty()) break;
      continue;  // late completions to apply before exiting
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    const bool accepting = !stopping_.load();
    if (accepting) pfds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t conn_base = pfds.size();
    for (auto& entry : conns) {
      Conn& conn = entry.second;
      short events = 0;
      const bool backpressured =
          conn.slots.size() >= kMaxPipeline ||
          conn.wbuf.size() - conn.woff > kMaxWriteBuffer;
      if (!conn.eof && !stopping_.load() && !backpressured) events |= POLLIN;
      if (conn.woff < conn.wbuf.size()) events |= POLLOUT;
      if (events == 0) continue;  // waits on completions, not the socket
      pfds.push_back({conn.fd, events, 0});
      pfd_conn.push_back(conn.id);
    }

    // One "iteration" for health purposes is the time spent outside
    // poll(): everything between the previous poll() return and this call.
    const auto before_poll = Clock::now();
    const double outside_us = elapsedMicros(work_started, before_poll);
    loop_iteration_micros_.observe(outside_us);
    if (stall_threshold_us > 0 && outside_us > stall_threshold_us) {
      loop_stalls_counter_.inc();
      if (last_stall_log == Clock::time_point{} ||
          before_poll - last_stall_log >= std::chrono::seconds(1)) {
        last_stall_log = before_poll;
        log_.warn("server.loop_stall",
                  {{"busy_us", outside_us},
                   {"threshold_us", stall_threshold_us},
                   {"connections",
                    std::uint64_t{conns.size()}}});
      }
    }

    const int rc =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
               nextTimeoutMs(now));
    work_started = Clock::now();
    if (rc < 0 && errno != EINTR) break;  // poll broken; shut down
    if (rc <= 0) continue;                // timeout (deadlines fire above)

    if (pfds[0].revents != 0) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof drain) > 0) {
      }
    }
    if (accepting && pfds[1].revents != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN: backlog drained
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        net::setNonblocking(fd);
        Conn conn;
        conn.fd = fd;
        conn.id = next_conn++;
        conn.read_started = Clock::now();
        conn.opened = conn.read_started;
        log_.debug("server.conn_open", {{"fd", std::int64_t{fd}}});
        conns.emplace(conn.id, std::move(conn));
      }
    }
    publishConnTable(Clock::now());
    for (std::size_t i = conn_base; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const auto conn_it = conns.find(pfd_conn[i - conn_base]);
      if (conn_it == conns.end() || conn_it->second.dead) continue;
      Conn& conn = conn_it->second;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) handleReadable(conn);
      if (!conn.dead && (pfds[i].revents & POLLOUT)) flushConn(conn);
    }
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void Server::recordLatency(double micros) {
  // Latency resolution is nanoseconds via steady_clock, but clamp away
  // exact zeros so percentile reports are always nonzero for served
  // requests.
  micros = std::max(micros, 1e-3);
  std::lock_guard<std::mutex> lock(latency_mutex_);
  if (latency_reservoir_.size() < kLatencyReservoir) {
    latency_reservoir_.push_back(micros);
  } else {
    latency_reservoir_[latency_next_] = micros;
    latency_next_ = (latency_next_ + 1) % kLatencyReservoir;
  }
  ++latency_count_;
}

Json Server::statsJson() {
  std::vector<double> latencies;
  std::uint64_t observed = 0;
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latencies = latency_reservoir_;
    observed = latency_count_;
  }
  const JobEngineStats engine = engine_.stats();
  Json json = Json::object();
  json.set("requests", Json(requests_.load()))
      .set("protocol_errors", Json(protocol_errors_.load()))
      .set("hits", Json(engine.cache.hits))
      .set("disk_hits", Json(engine.cache.disk_hits))
      .set("misses", Json(engine.cache.misses))
      .set("evictions", Json(engine.cache.evictions))
      .set("cache_size", Json(static_cast<std::uint64_t>(engine.cache.size)))
      .set("cache_capacity",
           Json(static_cast<std::uint64_t>(engine.cache.capacity)))
      .set("jobs_submitted", Json(engine.submitted))
      .set("jobs_completed", Json(engine.completed))
      .set("jobs_failed", Json(engine.failed))
      .set("jobs_timed_out", Json(engine.timeouts))
      .set("jobs_coalesced", Json(engine.coalesced))
      .set("jobs_shed", Json(engine.shed))
      .set("corrupt_evictions", Json(engine.cache.corrupt_evictions))
      .set("queue_depth", Json(static_cast<std::uint64_t>(engine.queue_depth)))
      .set("in_flight", Json(static_cast<std::uint64_t>(engine.in_flight)))
      .set("latency_samples", Json(observed))
      .set("p50_us", Json(obs::samplePercentile(latencies, 0.50)))
      .set("p95_us", Json(obs::samplePercentile(std::move(latencies), 0.95)));
  return json;
}

}  // namespace lb::service
