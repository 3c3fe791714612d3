#pragma once
// lbserve TCP daemon: newline-delimited JSON over a loopback socket.
//
// Wire protocol (one request line -> one or more response lines, UTF-8
// JSON; see docs/service.md):
//
//   {"verb":"run","scenario":{...}}          -> {"ok":true,"hash":"...",
//                                                "cached":bool,
//                                                "coalesced":bool,
//                                                "result":{...}}
//   {"verb":"sweep","scenarios":[{...},...]} -> {"ok":true,"results":[
//                                                {"ok":true,...} |
//                                                {"ok":false,"error":"..."}]}
//                                               (a batch collected into one
//                                               frame, in input order)
//   {"verb":"batch","scenarios":[{...},...]} -> N per-result frames in
//                                               completion order, each with
//                                               "batch":{"index","seq","of"},
//                                               then a terminal
//                                               {"ok":true,"batch":
//                                               {"done":true,...}} frame
//   {"verb":"stats"}                         -> {"ok":true,"stats":{...}}
//   {"verb":"metrics"}                       -> {"ok":true,"metrics":
//                                                "<Prometheus text>"}
//   {"verb":"health"}                        -> {"ok":true,"health":{loop,
//                                               requests, engine,
//                                               connections table}}
//   {"verb":"history"}                       -> {"ok":true,"history":
//                                               {samples:[...]}} from the
//                                               in-memory time-series ring
//   {"verb":"shutdown"}                      -> {"ok":true} then the
//                                               listener stops
//
// Every response additionally carries `"v":1` (see service/protocol.hpp);
// unknown verbs yield {"ok":false,"error":...,"supported_verbs":[...]}.
// The verb table itself lives in protocol.hpp's verbRegistry(); the server
// binds one handler to every registry row (checked at construction).
//
// Any malformed line yields {"ok":false,"error":"..."}; the connection
// stays open and clients may pipeline many requests per connection —
// responses always come back in request order.
//
// Connections are served by a poll()-based event loop: one loop thread
// owns every socket (nonblocking reads/writes, per-connection buffers with
// incremental line framing), a small dispatch pool parses requests and
// serializes responses, and simulation work stays on the job engine's
// ThreadPool.  Job completions re-enter the loop through a wakeup pipe.  A
// fair-share window keeps any one `batch` or `sweep` request from
// occupying the whole engine queue, so interactive run/stats requests stay
// responsive while batches stream.
//
// The server records wall-clock service latency per request (parse ->
// response ready) in a fixed-size reservoir and reports p50/p95 via
// `stats` — the observable difference between a cold simulation and a
// cache hit.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/log.hpp"
#include "obs/timeseries.hpp"
#include "service/job_engine.hpp"

namespace lb::service {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  JobEngineOptions engine;
  /// Per-connection idle read deadline: a connection that sends no bytes
  /// for this long (and has no request in flight) is closed, so half-open
  /// peers cannot pin resources forever.  Zero disables the deadline.
  std::chrono::milliseconds read_deadline{0};
  /// Socket-layer fault injector for this server's connections (torn
  /// reads/writes, resets).  nullptr = inert.
  fault::FaultInjector* fault = nullptr;
  /// Flight recorder for per-request span trees (server.request roots plus
  /// server.read/parse/write and the engine-side stages) and the `trace`
  /// verb.  nullptr (the default) keeps every response byte-identical to a
  /// recorder-less build: no trace block is echoed unless the client sent
  /// one.  Also threaded into the engine unless engine.recorder is set.
  obs::FlightRecorder* recorder = nullptr;
  /// Structured logger (nullptr: the process-wide obs::log()).
  obs::Log* log = nullptr;
  /// Event-loop dispatch pool size (request parse + verb dispatch +
  /// response serialization run here, off the loop thread).  0 = auto.
  std::size_t dispatch_threads = 0;
  /// Fair-share dispatch: the most jobs one `batch` or `sweep` request may
  /// keep in the engine at a time.  0 = auto (the engine's worker count),
  /// so a batch can saturate the workers but an interactive run is never
  /// more than one window behind in the bounded FIFO.
  std::size_t batch_window = 0;
  /// Upper bound on scenarios per batch or sweep request (guards the
  /// per-request bookkeeping the same way kMaxLineBytes guards the parser).
  std::size_t max_batch = 4096;
  /// Metrics time-series ring behind the `history` verb: the registry is
  /// sampled every `history_interval` into a ring of `history_capacity`
  /// delta snapshots (obs::TimeSeriesRing).  Zero interval disables the
  /// sampler; `history` then answers with an explanatory error, exactly
  /// like `trace` without a recorder.
  std::chrono::milliseconds history_interval{1000};
  std::size_t history_capacity = 120;
  /// Slow-request exemplars: a request whose wall-clock service time
  /// exceeds its verb's threshold (or `slow_request_default_us` when the
  /// verb has no entry) bumps lb_server_slow_requests_total{verb} and, when
  /// the flight recorder is on, annotates the request's trace with a
  /// server.slow_request event.  Zero disables the check for that verb.
  std::uint64_t slow_request_default_us = 0;
  std::unordered_map<std::string, std::uint64_t> slow_request_us;
  /// Loop-stall detector: one event-loop iteration spending longer than
  /// this outside poll() bumps lb_loop_stalls_total and emits a
  /// rate-limited (1/s) structured warn.  Zero disables the detector.
  std::chrono::milliseconds stall_threshold{100};
};

class Server {
public:
  /// Binds + listens on 127.0.0.1 immediately (throws std::runtime_error
  /// on socket failure) but does not accept until serve()/start().
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves ephemeral port 0).
  std::uint16_t port() const { return port_; }

  /// Blocking event loop; returns after a `shutdown` verb or
  /// stop(), once in-flight requests have been answered.
  void serve();

  /// serve() on a background thread (for in-process tests).
  void start();

  /// Stops the loop from another thread and joins it.
  void stop();

  /// Handles one request line in-process, without a socket or a running
  /// loop (protocol tests and embedders): the same dispatch path as a
  /// connection, with the response frames collected here instead of on the
  /// loop, waiting up to the verb's job deadline.  Streaming verbs
  /// (`batch`) return all their frames, in completion order, joined with
  /// '\n'.  When the recorder is enabled, `root_out` (optional) receives the
  /// identity of the server.request root span covering this request.
  std::string handleRequest(const std::string& line,
                            obs::TraceContext* root_out = nullptr);

  JobEngine& engine() { return engine_; }

private:
  /// Deferred end-of-request accounting: one request_micros observation +
  /// latency-reservoir sample + server.request root span, applied exactly
  /// once per request (on the loop thread, or by handleRequest for an
  /// in-process request), even when the connection died first.
  struct Finish {
    bool valid = false;
    std::string verb_label;
    obs::TraceContext client_ctx;
    obs::TraceContext root_ctx;
    std::chrono::steady_clock::time_point started;
  };

  /// handleRequest's stand-in for the loop's slot (server.cpp).
  struct Collector;

  /// Identity + trace state of one in-flight request; built by dispatch,
  /// captured by async completions.
  struct RequestCtx {
    std::uint64_t conn_id = 0;
    std::uint64_t slot_id = 0;
    obs::TraceContext client_ctx;
    obs::TraceContext root_ctx;
    bool tracing = false;
    std::string verb_label = "unknown";
    std::chrono::steady_clock::time_point started;
    /// Set for handleRequest only: completions land here instead of the
    /// loop's queue.  Refcounted, so a job that finishes after the request
    /// timed out still posts into live memory.
    std::shared_ptr<Collector> collector;
  };

  /// Message from dispatch/worker threads back to the request's owner.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t slot_id = 0;
    /// Newline-terminated response frame(s) to append to the slot.
    std::string frames;
    bool last = false;      ///< slot is complete once `frames` are queued
    bool shutdown = false;  ///< drain and exit once everything flushed
    Finish finish;          ///< applied when `last`
    /// Slot-deadline registration (job verbs): when the deadline passes
    /// before `last`, the owner invokes on_timeout, which posts the timeout
    /// answer unless the real one was posted first.  The job verbs settle
    /// that race at the source, so a request posts exactly one `last`.
    bool set_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::function<void()> on_timeout;
  };

  struct BatchState;  // batch/sweep bookkeeping (server.cpp)

  /// A verb's server-side handler: every row of protocol verbRegistry()
  /// has exactly one (asserted in the constructor).  Handlers never block
  /// on a job: they post their response (or submit to the engine, whose
  /// completions post it) through respondLast/postCompletion.
  using Verb = void (Server::*)(const Json& request, const RequestCtx& ctx);
  static const std::unordered_map<std::string, Verb>& verbBindings();

  void onRun(const Json& request, const RequestCtx& ctx);
  /// Serves `batch` (streamed frames) and `sweep` (one collected frame).
  void onBatch(const Json& request, const RequestCtx& ctx);
  void onStats(const Json& request, const RequestCtx& ctx);
  void onMetrics(const Json& request, const RequestCtx& ctx);
  void onTrace(const Json& request, const RequestCtx& ctx);
  void onHealth(const Json& request, const RequestCtx& ctx);
  void onHistory(const Json& request, const RequestCtx& ctx);
  void onShutdown(const Json& request, const RequestCtx& ctx);

  /// The one request prologue: parse -> trace ids -> server.parse span ->
  /// verb lookup -> request counter, then the verb's handler.  Any failure
  /// is answered with a protocol-error response.
  void dispatch(const std::string& line, RequestCtx& ctx);
  /// Counts, annotates and logs a protocol error; returns its response.
  Json protocolError(const std::string& message, RequestCtx& ctx);
  /// One batch scenario finished: emit its stream frame or store its
  /// result (plus the terminal frame when it was the last), then refill
  /// the fair-share window.
  void finishBatchItem(const std::shared_ptr<BatchState>& state,
                       std::size_t index, const JobOutcome& outcome);
  /// Slot-deadline handler for `batch`/`sweep`: unless the request already
  /// finished, posts timeout answers for every unfinished scenario plus the
  /// terminal frame.
  void timeoutBatch(const std::shared_ptr<BatchState>& state);

  // Event-loop plumbing.
  /// Parses + dispatches one request line on the dispatch pool.
  void dispatchLine(std::uint64_t conn_id, std::uint64_t slot_id,
                    std::string line,
                    std::chrono::steady_clock::time_point read_started,
                    std::chrono::steady_clock::time_point read_finished);
  /// Stamps version + trace echo and frames one response for the wire.
  std::string wireFrame(Json response, const RequestCtx& ctx);
  /// Posts the final (or only) response frame for a request.
  void respondLast(const RequestCtx& ctx, Json response,
                   bool shutdown = false);
  Finish makeFinish(const RequestCtx& ctx) const;
  void applyFinish(const Finish& finish);
  /// Routes a completion of `ctx`'s request to its collector or, for a
  /// connection's request, to the loop.
  void postCompletion(const RequestCtx& ctx, Completion completion);
  /// Registers the request's job deadline `budget` from now.
  void registerDeadline(const RequestCtx& ctx,
                        std::chrono::steady_clock::duration budget,
                        std::function<void()> on_timeout);
  void wakeLoop();
  /// Submits eligible batch scenarios up to the fair-share window,
  /// holding duplicates of in-flight twins back so they become cache hits
  /// (keeps batch(N) bit-identical to N sequential runs).  Re-entrant-safe.
  void pumpBatch(const std::shared_ptr<BatchState>& state);

  void recordLatency(double micros);
  Json statsJson();
  /// The `health` verb's per-connection table + last-verb/trace join,
  /// published by the loop thread (refreshed once per iteration).
  Json connectionsJson();
  /// Maps a job outcome to its wire response; kShed becomes the explicit
  /// overloaded/retry_after_ms document and bumps lb_server_shed_total.
  /// Shed/error outcomes annotate the request's trace and emit a warn line.
  Json outcomeResponse(const JobOutcome& outcome,
                       const obs::TraceContext& ctx);
  /// Records one completed span (no-op when the recorder is off).
  void recordSpan(const obs::TraceContext& trace, std::uint64_t span_id,
                  std::uint64_t parent_id, const char* name,
                  const std::string& note,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end);

  ServerOptions options_;
  obs::Log& log_;  ///< resolved from options_.log

  // Loop re-entry plumbing is declared before engine_ (and the dispatch
  // pool after it) so that, during destruction, dispatch tasks and engine
  // worker callbacks can always post completions and poke the wakeup pipe:
  // members here outlive both pools.
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  JobEngine engine_;
  /// Per-verb request counters and the protocol-error counter, resolved
  /// against the engine's registry (so a `metrics` scrape includes them).
  obs::Family<obs::Counter>& requests_family_;
  obs::Counter& protocol_errors_counter_;
  obs::Counter& shed_counter_;
  /// Wall-clock per-request service time, labeled by verb; one observation
  /// per request (the count reconciles 1:1 with server.request root spans
  /// whenever the recorder is enabled).
  obs::Family<obs::Histogram>& request_micros_family_;
  /// Server-side lb_request_stage_micros children (the engine owns
  /// cache_lookup/queue_wait/execute).
  obs::Histogram& stage_read_;
  obs::Histogram& stage_parse_;
  obs::Histogram& stage_write_;
  // Event-loop health instruments (docs/observability.md, `health` verb).
  obs::Histogram& loop_iteration_micros_;
  obs::Histogram& wakeup_to_dispatch_micros_;
  obs::Gauge& dispatch_depth_gauge_;
  obs::Gauge& dispatch_depth_max_gauge_;
  obs::Gauge& completion_depth_gauge_;
  obs::Gauge& completion_depth_max_gauge_;
  obs::Gauge& connections_gauge_;
  obs::Counter& loop_stalls_counter_;
  obs::Family<obs::Counter>& slow_requests_family_;
  /// Requests posted to dispatch_pool_ but not yet picked up by
  /// dispatchLine; the gauges above mirror these (a Gauge load is the wire
  /// representation, the atomics are the source of truth for the
  /// compare-exchange watermark).
  std::atomic<std::int64_t> dispatch_depth_{0};
  std::atomic<std::int64_t> dispatch_depth_max_{0};
  std::atomic<std::int64_t> completion_depth_max_{0};
  const std::chrono::steady_clock::time_point started_at_{
      std::chrono::steady_clock::now()};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  std::mutex latency_mutex_;
  std::vector<double> latency_reservoir_;  ///< ring buffer, micros
  std::size_t latency_next_ = 0;
  std::uint64_t latency_count_ = 0;

  /// Registry sampler behind the `history` verb.  Declared after engine_
  /// (destroyed first) because it samples the engine's registry.
  std::unique_ptr<obs::TimeSeriesRing> history_;

  /// Per-connection introspection published by the event loop for the
  /// `health` verb: the loop refreshes `conn_table_` once per iteration
  /// (before dispatching any request read in that iteration, so a `health`
  /// request always sees its own connection); dispatch threads record each
  /// connection's last verb and in-flight trace ids as they parse.
  struct ConnSnapshot {
    std::uint64_t id = 0;
    std::uint64_t in_flight = 0;      ///< pipelined slots awaiting response
    std::uint64_t read_buffered = 0;  ///< bytes past the last parsed line
    std::uint64_t write_buffered = 0; ///< response bytes awaiting the kernel
    std::uint64_t age_ms = 0;
    std::uint64_t oldest_slot = 0;    ///< 0 = no request in flight
  };
  mutable std::mutex introspect_mutex_;
  std::vector<ConnSnapshot> conn_table_;
  std::chrono::steady_clock::time_point conn_table_at_{};
  std::unordered_map<std::uint64_t, std::string> conn_last_verb_;
  /// (conn id, slot id) -> trace id of the in-flight request.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
      inflight_traces_;

  /// Parse/serialize offload for the event loop; after engine_ so its
  /// queued tasks drain (destruction) while the engine is still alive.
  std::unique_ptr<sim::ThreadPool> dispatch_pool_;
  std::thread serve_thread_;
};

}  // namespace lb::service
