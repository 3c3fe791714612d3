#include "daemon.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/quantile.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/socket_io.hpp"
#include "sim/rng.hpp"

extern char** environ;

namespace lb::e2e {
namespace {

using service::Json;
using service::Scenario;

constexpr std::size_t kConnections = 4;
/// Set-ups per run.  Each takes 30-40 ms and varies by a third from one
/// spawn to the next, so the median needs several: lbd-hot times one per
/// segment plus these extra ones before the first, lbd-cold this many.
constexpr int kExtraHotSetups = 2;
constexpr int kColdSetups = 7;
/// One daemon result in this many is recomputed in-process after the timed
/// window; any byte difference is a failure.
constexpr std::size_t kOracleStride = 16;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Requests still unanswered this long after their window are failures.
constexpr auto kDrainBudget = std::chrono::seconds(20);
/// lbd's flight-recorder capacity in traced sessions: enough spans for the
/// last few thousand requests, small enough to dump in one frame.
constexpr const char* kRecorderSpans = "16384";

// -- Workload shapes -------------------------------------------------------

/// lbd-hot: a prewarmed set of distinct bus scenarios, then `run` requests
/// drawn from it, open-loop Poisson at a fixed rate.
struct HotShape {
  std::size_t scenarios;
  sim::Cycle cycles;
  double rate;  ///< open-loop requests per second, all connections
};

/// lbd-cold: connection 0 streams closed-loop batches of new scenarios,
/// connections 1-3 send open-loop runs of which one in five repeats.  The
/// daemon runs three workers with a fair-share window of one, so the batch
/// stream holds one worker and interactive runs find a free one.  With the
/// window equal to the worker count, an interactive run waits for whichever
/// batch job ends first, and its median latency repeated only within
/// 15-22% between runs.  100 interactive runs a second give each 2-s
/// window 200 samples.
struct ColdShape {
  std::size_t batch;
  sim::Cycle cycles;
  std::uint32_t replicas;      ///< for one batch scenario in four
  std::size_t sweep_every;     ///< one batch request in this many is a sweep
  sim::Cycle interactive_cycles;
  double rate;                 ///< interactive requests per second
  std::size_t digest_batches;  ///< leading batches pinned by the digest
};

HotShape hotShape(bool smoke) {
  if (smoke) return {16, 2000, 2000.0};
  // About a quarter of the closed-loop capacity measured when this workload
  // was defined: 60-80k cache hits per second over 4 connections with 4
  // pipelined requests each, on a 4-vCPU VM.  That capacity varied 13-32%
  // between runs there, too much to bound, so the workload runs open-loop
  // only.
  return {64, 20000, 20000.0};
}

ColdShape coldShape(bool smoke) {
  // 30 scenarios per batch: one per arbiter x traffic combination, so
  // every batch does the same work.
  if (smoke) return {30, 2000, 4, 10, 2000, 40.0, 1};
  return {30, 100000, 16, 10, 50000, 100.0, 4};
}

/// The i-th scenario of a request stream: arbiter and traffic rotate with
/// i, the simulation seed comes from the workload seed.
Scenario streamScenario(std::size_t i, sim::Cycle cycles, std::uint64_t seed) {
  static const char* const kArbiters[] = {"lottery", "lottery-dynamic",
                                          "priority", "tdma", "rr", "wrr"};
  static const std::pair<const char*, std::size_t> kTraffic[] = {
      {"T1", 4}, {"T2", 4}, {"T4", 4}, {"T7", 8}, {"T8", 8}};
  const auto& [cls, masters] = kTraffic[(i / 6) % 5];
  return busScenario(kArbiters[i % 6], cls, masters, cycles, seed);
}

std::string runLine(const Scenario& scenario) {
  return "{\"verb\":\"run\",\"scenario\":" + service::toJson(scenario).dump() +
         "}\n";
}

/// Exponential inter-arrival time for a Poisson stream of `rate` per second.
Clock::duration exponentialGap(sim::SplitMix64& rng, double rate) {
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(-std::log1p(-u) / rate));
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// -- The lbd process -------------------------------------------------------

/// A spawned lbd: stdout is piped (for the `listening` line), stderr goes
/// to a log file.  The destructor kills and reaps a daemon still running.
class Daemon {
public:
  Daemon(std::vector<std::string> args, const std::string& log_path) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    args.insert(args.begin(), LB_E2E_LBD_PATH);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, LB_E2E_LBD_PATH, &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    stdout_fd_ = out[0];
    if (rc != 0) {
      ::close(stdout_fd_);
      throw std::runtime_error(std::string("cannot spawn ") + LB_E2E_LBD_PATH);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(stdout_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until lbd prints its listening line; returns the port.
  std::uint16_t waitListening() {
    const std::string prefix = "lbd listening on 127.0.0.1:";
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    std::string buffer;
    for (;;) {
      const std::size_t at = buffer.find(prefix);
      if (at != std::string::npos &&
          buffer.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(buffer.substr(at + prefix.size())));
        return port_;
      }
      pollfd pfd{stdout_fd_, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
        throw std::runtime_error("lbd did not report a listening port");
      char chunk[512];
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("lbd exited before listening");
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// Sends `shutdown` and reaps the process; false when it did not exit
  /// cleanly (it is killed after a grace period).
  bool shutdown() {
    bool ok = true;
    try {
      service::Client control(port_);
      ok = control.shutdown().at("ok").asBool();
    } catch (const std::exception&) {
      ok = false;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

// -- Pipelined load connections ------------------------------------------

struct Pending {
  enum class Kind { kRun, kHealth, kBatch, kSweep };
  Kind kind = Kind::kRun;
  Clock::time_point due;   ///< scheduled send time (open loop) or send time
  Clock::time_point sent;
  std::size_t item = 0;    ///< scenario index (run) or batch number
};

/// One nonblocking loopback connection with request pipelining: lbd answers
/// each connection's requests in order, so `pending` pairs responses with
/// requests.
class Conn {
public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to lbd");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    service::net::setNonblocking(fd_);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool wantsWrite() const { return out_off_ < out_.size(); }

  void send(const std::string& line, Pending request) {
    out_ += line;
    pending.push_back(request);
  }

  /// Writes what the socket accepts; false on a transport error.
  bool flush() {
    while (wantsWrite()) {
      const auto status = service::net::sendNonblock(fd_, out_, out_off_);
      if (status == service::net::IoStatus::kWouldBlock) return true;
      if (status != service::net::IoStatus::kOk) return false;
    }
    out_.clear();
    out_off_ = 0;
    return true;
  }

  /// Reads what has arrived and appends every complete line; false on EOF
  /// or a transport error.
  bool receive(std::vector<std::string>& lines) {
    for (;;) {
      const auto status = service::net::recvNonblock(fd_, in_, 1 << 20);
      if (status == service::net::IoStatus::kWouldBlock) break;
      if (status != service::net::IoStatus::kOk) return false;
    }
    std::size_t start = 0;
    for (std::size_t eol; (eol = in_.find('\n', start)) != std::string::npos;
         start = eol + 1)
      lines.emplace_back(in_, start, eol - start);
    in_.erase(0, start);
    return true;
  }

  std::deque<Pending> pending;

private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

Conns connect(std::uint16_t port) {
  Conns conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<Conn>(port));
  return conns;
}

/// Drives the connections from this one thread.  `tick(now)` queues every
/// request that is due and returns when it next needs to run
/// (time_point::max() once it will send nothing more); `on_line(conn, line,
/// now)` consumes one response line.  Returns true once nothing is left to
/// send or answer; false at `hard_stop` or on a transport error.
template <typename Tick, typename OnLine>
bool pump(Conns& conns, Tick&& tick, OnLine&& on_line,
          Clock::time_point hard_stop) {
  std::vector<pollfd> fds(conns.size());
  std::vector<std::string> lines;
  for (;;) {
    Clock::time_point now = Clock::now();
    const Clock::time_point next = tick(now);
    bool idle = next == Clock::time_point::max();
    for (auto& conn : conns) {
      if (!conn->flush()) return false;
      idle = idle && conn->pending.empty();
    }
    if (idle) return true;
    if (now >= hard_stop) return false;
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(Clock::duration::zero(), std::min(next, hard_stop) - now));
    const timespec timeout{static_cast<time_t>(wait.count() / 1000000000),
                           static_cast<long>(wait.count() % 1000000000)};
    for (std::size_t c = 0; c < conns.size(); ++c)
      fds[c] = {conns[c]->fd(),
                static_cast<short>(POLLIN |
                                   (conns[c]->wantsWrite() ? POLLOUT : 0)),
                0};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    now = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool open = conns[c]->receive(lines);
      for (const std::string& line : lines) on_line(*conns[c], line, now);
      if (!open) return false;
    }
  }
}

// -- Metrics scrapes and the flight recorder -------------------------------

/// One `metrics` scrape: the Prometheus exposition as (name, labels, value).
class Scrape {
public:
  using Match = std::map<std::string, std::string>;

  Scrape() = default;
  explicit Scrape(const std::string& text) {
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t eol = text.find('\n', start);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(start, eol - start);
      start = eol + 1;
      if (line.empty() || line[0] == '#') continue;
      Series series;
      std::size_t pos = line.find_first_of("{ ");
      series.name = line.substr(0, pos);
      if (line[pos] == '{') {
        // Label values here are plain identifiers and numbers: no escapes.
        while (line[++pos] != '}') {
          const std::size_t eq = line.find('=', pos);
          const std::size_t close = line.find('"', eq + 2);
          series.labels[line.substr(pos, eq - pos)] =
              line.substr(eq + 2, close - eq - 2);
          pos = close + 1;
          if (line[pos] != ',') break;
        }
        pos = line.find(' ', pos);
      }
      series.value = std::stod(line.substr(pos + 1));
      series_.push_back(std::move(series));
    }
  }

  /// Sum over the series named `name` whose labels include `match`.
  double sum(const std::string& name, const Match& match = {}) const {
    double total = 0;
    for (const Series& s : series_)
      if (s.name == name && matches(s, match)) total += s.value;
    return total;
  }

  /// Cumulative bucket counts (ascending `le`, +Inf last) of histogram
  /// `name` summed over the series matching `match`, with the finite upper
  /// bounds.
  void buckets(const std::string& name, const Match& match,
               std::vector<double>& bounds,
               std::vector<double>& cumulative) const {
    std::map<double, double> by_le;
    for (const Series& s : series_) {
      if (s.name != name + "_bucket" || !matches(s, match)) continue;
      const std::string& le = s.labels.at("le");
      by_le[le == "+Inf" ? kInf : std::stod(le)] += s.value;
    }
    bounds.clear();
    cumulative.clear();
    for (const auto& [le, count] : by_le) {
      if (le != kInf) bounds.push_back(le);
      cumulative.push_back(count);
    }
  }

private:
  struct Series {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0;
  };
  static bool matches(const Series& s, const Match& match) {
    for (const auto& [key, value] : match) {
      const auto it = s.labels.find(key);
      if (it == s.labels.end() || it->second != value) return false;
    }
    return true;
  }
  std::vector<Series> series_;
};

/// A histogram's observations between two scrapes.
struct HistDelta {
  double count = 0, sum = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< non-cumulative, +Inf last

  HistDelta(const Scrape& before, const Scrape& after, const std::string& name,
            const Scrape::Match& match) {
    std::vector<double> cum_before, cum_after, unused;
    before.buckets(name, match, unused, cum_before);
    after.buckets(name, match, bounds, cum_after);
    count =
        after.sum(name + "_count", match) - before.sum(name + "_count", match);
    sum = after.sum(name + "_sum", match) - before.sum(name + "_sum", match);
    double previous = 0;
    for (std::size_t i = 0; i < cum_after.size(); ++i) {
      const double cum =
          cum_after[i] - (i < cum_before.size() ? cum_before[i] : 0.0);
      counts.push_back(
          static_cast<std::uint64_t>(std::max(0.0, cum - previous)));
      previous = cum;
    }
  }
  double mean() const { return count > 0 ? sum / count : 0.0; }
  double quantile(double q) const {
    return obs::histogramQuantile(bounds, counts, q);
  }
};

/// Mean self time of `run` root spans in a flight-recorder dump: the
/// root's duration minus the union of its children's intervals inside it.
/// Roots whose children the ring has already overwritten are skipped.
double runRootSelfUs(const std::string& chrome_trace) {
  struct Root {
    double ts = 0, dur = 0;
    std::vector<std::pair<double, double>> children;
  };
  std::map<std::string, Root> roots;
  std::vector<std::pair<std::string, std::pair<double, double>>> children;
  const Json trace = Json::parse(chrome_trace);
  for (const Json& event : trace.at("traceEvents").asArray()) {
    if (event.at("ph").asString() != "X") continue;
    const Json& args = event.at("args");
    const double ts = event.at("ts").asDouble();
    const double dur = event.at("dur").asDouble();
    if (event.at("name").asString() == "server.request") {
      const Json* note = args.find("note");
      if (note != nullptr && note->asString() == "run")
        roots[args.at("span").asString()] = Root{ts, dur, {}};
    } else {
      children.push_back({args.at("parent").asString(), {ts, ts + dur}});
    }
  }
  for (const auto& [parent, interval] : children) {
    const auto it = roots.find(parent);
    if (it != roots.end()) it->second.children.push_back(interval);
  }
  double total = 0;
  std::size_t counted = 0;
  for (auto& [span, root] : roots) {
    if (root.children.empty()) continue;
    std::sort(root.children.begin(), root.children.end());
    double covered = 0, reach = root.ts;
    for (auto [begin, end] : root.children) {
      begin = std::max(begin, reach);
      end = std::min(end, root.ts + root.dur);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    total += root.dur - covered;
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

// -- One daemon session ------------------------------------------------------

/// What one lbd session measured.
struct Session {
  std::vector<double> setup_s;
  double scenarios_per_s = 0;
  double cycles_per_s = 0;
  std::vector<double> latency_ms;  ///< open loop, from the due time
  double p50_ms = 0, p90_ms = 0;    ///< open-loop latency percentiles
  std::vector<double> segment_p50_ms, segment_p90_ms;  ///< per segment
  std::vector<double> rtt_us;      ///< open-loop runs, from the send time
  std::vector<double> late_ms;     ///< generator lateness per open-loop send
  std::uint64_t backlog_end = 0;
  std::uint64_t open_runs = 0, open_cached = 0;
  std::vector<double> peak_rss_mb;  ///< per daemon
  std::uint64_t client_retries = 0;
  /// Traced sessions: scrapes around the open-loop phase, and the recorder.
  Scrape before, after;
  std::string chrome_trace;
  /// Result bytes pinned by the digest, and every (scenario, result) the
  /// daemon answered, for the oracle.
  std::vector<std::string> digest_results;
  std::vector<std::pair<Scenario, std::string>> answered;
};

/// Spawns lbd `repeats` times, timing each set-up — spawn, the listening
/// line, a first `health`, then `prewarm` — and keeps the last daemon up.
/// `args(k)` gives the command line of the k-th spawn.
std::unique_ptr<Daemon> setUp(
    const RunConfig& config,
    const std::function<std::vector<std::string>(int)>& args, int repeats,
    Session& session, Report& report,
    const std::function<void(service::Client&)>& prewarm) {
  const std::string log = config.work_dir + "/lbd-" + config.workload + ".log";
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < repeats; ++k) {
    if (daemon != nullptr && !daemon->shutdown())
      report.fail("lbd did not shut down cleanly");
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(args(k), log);
    service::Client control(daemon->waitListening());
    report.attempt();
    if (!control.health().at("ok").asBool()) report.fail("health not ok");
    prewarm(control);
    session.client_retries += control.retries();
    session.setup_s.push_back(secondsSince(start));
  }
  return daemon;
}

std::vector<std::string> daemonArgs(bool traced) {
  return {"--port", "0", "--flight-recorder", traced ? kRecorderSpans : "0"};
}

/// Streams `scenarios` as one batch over the control client and returns
/// each scenario's result bytes (empty on error frames).
std::vector<std::string> batchResults(service::Client& control,
                                      const std::vector<Scenario>& scenarios,
                                      Report& report) {
  Json list = Json::array();
  for (const Scenario& s : scenarios) list.push(service::toJson(s));
  std::vector<std::string> results(scenarios.size());
  const Json summary = control.batch(std::move(list), [&](const Json& frame) {
    report.attempt();
    if (!frame.at("ok").asBool()) {
      report.fail("batch frame error: " + frame.dump());
      return;
    }
    results.at(service::batchFrameIndex(frame)) = frame.at("result").dump();
  });
  if (!service::isBatchSummaryFrame(summary))
    report.fail("batch did not end with a summary frame");
  return results;
}

Scrape scrapeNow(const Daemon& daemon, Session& session) {
  service::Client control(daemon.port());
  Scrape scrape(control.metrics().at("metrics").asString());
  session.client_retries += control.retries();
  return scrape;
}

/// Reads the closing scrape, the recorder dump and the daemon's peak RSS,
/// then shuts it down.
void tearDown(Daemon& daemon, bool traced, Session& session, Report& report) {
  if (traced) {
    session.after = scrapeNow(daemon, session);
    service::Client control(daemon.port());
    session.chrome_trace = control.trace().at("chrome_trace").asString();
  }
  session.peak_rss_mb.push_back(peakRssMb(daemon.pid()));
  if (!daemon.shutdown()) report.fail("lbd did not shut down cleanly");
}

void lbdHotSession(const RunConfig& config, bool traced, double run_s,
                   Session& session, Report& report) {
  const HotShape shape = hotShape(config.smoke);
  sim::SplitMix64 rng(config.seed);
  std::vector<Scenario> scenarios;
  std::vector<std::string> lines, results;
  for (std::size_t i = 0; i < shape.scenarios; ++i) {
    scenarios.push_back(streamScenario(i, shape.cycles, rng.next()));
    lines.push_back(runLine(scenarios.back()));
  }

  std::vector<std::string> fragments;
  auto prewarm = [&](service::Client& control) {
    results = batchResults(control, scenarios, report);
    if (fragments.empty()) {
      for (std::size_t i = 0; i < shape.scenarios; ++i) {
        fragments.push_back("\"result\":" + results[i]);
        session.digest_results.push_back(results[i]);
        session.answered.push_back({scenarios[i], results[i]});
      }
    } else if (results != session.digest_results) {
      report.fail("a respawned lbd answered the prewarm differently");
    }
  };
  Conns conns;

  auto checkRun = [&](const Pending& p, const std::string& line) {
    report.attempt();
    const bool ok = line.rfind("{\"ok\":true", 0) == 0 &&
                    line.find(fragments[p.item]) != std::string::npos;
    if (!ok) report.fail("run answered wrongly: " + line.substr(0, 200));
    return ok;
  };

  // Open loop: Poisson arrivals at a fixed rate spread over the four
  // connections, each timed from its due time; one `health` a second, as
  // lbtop sends, left out of the percentiles.  Returns the goodput: runs
  // answered within the segment, per second.
  std::size_t arrivals = 0, healths = 0;
  auto openLoop = [&](double segment_s) {
    const auto start = Clock::now();
    const auto end = start + seconds(segment_s);
    std::uint64_t answered_in_time = 0;
    Clock::time_point next_run = start + exponentialGap(rng, shape.rate);
    Clock::time_point next_health = start + std::chrono::seconds(1);
    bool window_closed = false;
    const bool ok = pump(
        conns,
        [&](Clock::time_point now) {
          for (; next_run <= now && next_run < end;
               next_run += exponentialGap(rng, shape.rate)) {
            const std::size_t item = rng.next() % shape.scenarios;
            conns[arrivals++ % kConnections]->send(
                lines[item], {Pending::Kind::kRun, next_run, now, item});
            session.late_ms.push_back(ms(now - next_run));
          }
          for (; next_health <= now && next_health < end;
               next_health += std::chrono::seconds(1))
            conns[healths++ % kConnections]->send(
                "{\"verb\":\"health\"}\n",
                {Pending::Kind::kHealth, next_health, now, 0});
          if (now < end) return std::min(next_run, next_health);
          if (!window_closed) {
            window_closed = true;
            for (const auto& conn : conns)
              session.backlog_end += conn->pending.size();
          }
          return Clock::time_point::max();
        },
        [&](Conn& conn, const std::string& line, Clock::time_point now) {
          const Pending p = conn.pending.front();
          conn.pending.pop_front();
          if (p.kind == Pending::Kind::kHealth) {
            report.attempt();
            if (line.rfind("{\"ok\":true", 0) != 0)
              report.fail("health not ok");
            return;
          }
          const bool run_ok = checkRun(p, line);
          if (run_ok && now < end) ++answered_in_time;
          ++session.open_runs;
          if (line.find("\"cached\":true") != std::string::npos)
            ++session.open_cached;
          session.latency_ms.push_back(run_ok ? ms(now - p.due) : kInf);
          session.rtt_us.push_back(
              std::chrono::duration<double, std::micro>(now - p.sent).count());
        },
        end + kDrainBudget);
    if (!ok) throw std::runtime_error("lbd-hot: open loop lost a connection");
    return static_cast<double>(answered_in_time) / segment_s;
  };

  // The run is a series of segments, each on a freshly spawned daemon that
  // is set up, loaded and shut down.  Interference from the rest of the
  // machine comes in stretches of seconds, so each metric is the median
  // over segments, and every segment times one set-up.  A traced session
  // is one segment, so the scrapes around it see only its load.
  const int segments = traced ? 1 : config.smoke ? 2 : 5;
  std::vector<double> goodput, p50, p90;
  for (int k = 0; k < segments; ++k) {
    const auto daemon = setUp(
        config, [traced](int) { return daemonArgs(traced); },
        k == 0 ? kExtraHotSetups + 1 : 1, session, report, prewarm);
    conns = connect(daemon->port());
    if (traced) session.before = scrapeNow(*daemon, session);
    const std::size_t first = session.latency_ms.size();
    goodput.push_back(openLoop(run_s / segments));
    const std::vector<double> segment(session.latency_ms.begin() + first,
                                      session.latency_ms.end());
    p50.push_back(percentile(segment, 0.5));
    p90.push_back(percentile(segment, 0.9));
    conns.clear();
    tearDown(*daemon, traced, session, report);
  }
  session.scenarios_per_s = percentile(goodput, 0.5);
  session.cycles_per_s =
      session.scenarios_per_s * static_cast<double>(shape.cycles);
  session.p50_ms = percentile(p50, 0.5);
  session.p90_ms = percentile(p90, 0.5);
  session.segment_p50_ms = p50;
  session.segment_p90_ms = p90;
}

void lbdColdSession(const RunConfig& config, bool traced, double run_s,
                    Session& session, Report& report) {
  const ColdShape shape = coldShape(config.smoke);
  sim::SplitMix64 seeder(config.seed);
  sim::SplitMix64 batch_rng(seeder.next()), interactive_rng(seeder.next());
  const std::filesystem::path cache_root =
      std::filesystem::path(config.work_dir) /
      ("lbd-cold-cache-" + std::to_string(::getpid()));

  // Every spawn gets a fresh cache directory, so each daemon starts cold;
  // the prewarm answers scenarios outside the measured streams, paying for
  // lazy pool and registry initialization.
  std::vector<Scenario> warm;
  for (std::size_t i = 0; i < 8; ++i)
    warm.push_back(
        streamScenario(i, shape.interactive_cycles, ~config.seed - i));
  const auto daemon = setUp(
      config,
      [&](int k) {
        std::vector<std::string> args = daemonArgs(traced);
        args.insert(args.end(),
                    {"--threads", "3", "--batch-window", "1", "--cache-dir",
                     (cache_root / ("spawn-" + std::to_string(k))).string()});
        return args;
      },
      config.trace ? 1 : kColdSetups, session, report,
      [&](service::Client& control) { batchResults(control, warm, report); });
  Conns conns = connect(daemon->port());
  if (traced) session.before = scrapeNow(*daemon, session);

  // Connection 0: closed-loop batch requests of new scenarios; one scenario
  // in four is replicated, one request in `sweep_every` is a sweep.
  std::vector<Scenario> batch_scenarios;
  std::vector<double> batch_rate, batch_cycle_rate;  ///< per `batch` request
  std::size_t batches = 0;                             ///< requests sent so far
  auto sendBatch = [&](Clock::time_point now) {
    const std::size_t b = batches++;
    Json list = Json::array();
    for (std::size_t j = 0; j < shape.batch; ++j) {
      Scenario s = streamScenario(batch_scenarios.size(), shape.cycles,
                                  batch_rng.next());
      if (j % 4 == 3) s.replicas = shape.replicas;
      list.push(service::toJson(s));
      batch_scenarios.push_back(s);
    }
    const bool sweep = b % shape.sweep_every == shape.sweep_every - 1;
    Json request = Json::object();
    request.set("verb", Json(sweep ? "sweep" : "batch"))
        .set("scenarios", std::move(list));
    conns[0]->send(request.dump() + "\n",
                   {sweep ? Pending::Kind::kSweep : Pending::Kind::kBatch, now,
                    now, b});
  };
  auto acceptResult = [&](const Json& response, const Scenario& scenario,
                          bool pinned) {
    report.attempt();
    if (!response.at("ok").asBool()) {
      report.fail("job failed: " + response.dump().substr(0, 200));
      return std::string();
    }
    std::string bytes = response.at("result").dump();
    if (pinned) session.digest_results.push_back(bytes);
    session.answered.push_back({scenario, bytes});
    return bytes;
  };

  // Connections 1-3: open-loop interactive runs; one in five repeats an
  // earlier interactive scenario and must get the earlier answer back.
  std::vector<Scenario> interactive;
  std::vector<std::string> interactive_answer;
  std::vector<std::size_t> interactive_item;  ///< request -> scenario index
  // Latencies are grouped by due time into `segments` windows; like
  // lbd-hot, the percentiles are medians over windows.
  const int segments = config.smoke ? 2 : 5;
  std::vector<std::vector<double>> windows(segments);
  const auto start = Clock::now();
  const auto end = start + seconds(run_s);
  Clock::time_point next_run =
      start + exponentialGap(interactive_rng, shape.rate);
  bool window_closed = false;
  sendBatch(start);
  const bool ok = pump(
      conns,
      [&](Clock::time_point now) {
        for (; next_run <= now && next_run < end;
             next_run += exponentialGap(interactive_rng, shape.rate)) {
          const std::size_t j = interactive_item.size();
          std::size_t item = interactive.size();
          if (j % 5 == 4) {
            item = interactive_item[interactive_rng.next() % (j - 1)];
          } else {
            interactive.push_back(streamScenario(
                j, shape.interactive_cycles, interactive_rng.next()));
            interactive_answer.emplace_back();
          }
          interactive_item.push_back(item);
          conns[1 + j % (kConnections - 1)]->send(
              runLine(interactive[item]),
              {Pending::Kind::kRun, next_run, now, j});
          session.late_ms.push_back(ms(now - next_run));
        }
        if (now < end) return next_run;
        if (!window_closed) {
          window_closed = true;
          for (std::size_t c = 1; c < conns.size(); ++c)
            session.backlog_end += conns[c]->pending.size();
        }
        return Clock::time_point::max();
      },
      [&](Conn& conn, const std::string& line, Clock::time_point now) {
        const Pending& p = conn.pending.front();
        const Json response = Json::parse(line);
        if (p.kind == Pending::Kind::kRun) {
          const std::size_t item = interactive_item[p.item];
          const std::string bytes =
              acceptResult(response, interactive[item], false);
          std::string& first = interactive_answer[item];
          if (first.empty()) first = bytes;
          else if (bytes != first) report.fail("a repeated run changed answer");
          ++session.open_runs;
          if (response.at("cached").asBool()) ++session.open_cached;
          session.latency_ms.push_back(bytes.empty() ? kInf : ms(now - p.due));
          const std::size_t window = (p.due - start) * segments / (end - start);
          windows[std::min<std::size_t>(segments - 1, window)].push_back(
              session.latency_ms.back());
          session.rtt_us.push_back(
              std::chrono::duration<double, std::micro>(now - p.sent).count());
          conn.pending.pop_front();
          return;
        }
        const std::size_t first_scenario = p.item * shape.batch;
        const bool pinned = p.item < shape.digest_batches;
        if (p.kind == Pending::Kind::kSweep) {
          const Json::Array& items = response.at("results").asArray();
          if (items.size() != shape.batch) report.fail("sweep lost results");
          for (std::size_t j = 0; j < items.size(); ++j)
            acceptResult(items[j], batch_scenarios[first_scenario + j], pinned);
        } else if (!service::isBatchSummaryFrame(response)) {
          acceptResult(response,
                       batch_scenarios.at(first_scenario +
                                          service::batchFrameIndex(response)),
                       pinned);
          return;  // more frames follow
        } else if (response.at("batch").at("errors").asUint64() != 0) {
          report.fail("batch reported errors");
        }
        const double took = std::chrono::duration<double>(now - p.sent).count();
        double cycles = 0;
        for (std::size_t j = 0; j < shape.batch; ++j) {
          const Scenario& s = batch_scenarios[first_scenario + j];
          cycles += static_cast<double>(s.cycles) * s.replicas;
        }
        // A sweep is not held to the fair-share window, so its rate is not
        // the stream's.
        if (p.kind == Pending::Kind::kBatch) {
          batch_rate.push_back(static_cast<double>(shape.batch) / took);
          batch_cycle_rate.push_back(cycles / took);
        }
        conn.pending.pop_front();
        if (now < end || batches < shape.digest_batches) sendBatch(now);
      },
      end + kDrainBudget);
  if (!ok) throw std::runtime_error("lbd-cold: lost a connection");
  conns.clear();

  // Each batch is timed from its send to its last frame.  Every batch holds
  // the same 30 configurations and interference from the rest of the
  // machine only slows one down, so the fastest batch is the stream's rate
  // (the median batch repeated only within 8-33% between runs).
  session.scenarios_per_s = percentile(batch_rate, 1.0);
  session.cycles_per_s = percentile(batch_cycle_rate, 1.0);
  std::vector<double> p50, p90;
  for (const std::vector<double>& window : windows) {
    p50.push_back(percentile(window, 0.5));
    p90.push_back(percentile(window, 0.9));
  }
  session.p50_ms = percentile(p50, 0.5);
  session.p90_ms = percentile(p90, 0.5);
  session.segment_p50_ms = p50;
  session.segment_p90_ms = p90;
  tearDown(*daemon, traced, session, report);
  std::error_code ignored;
  std::filesystem::remove_all(cache_root, ignored);
}

void runSession(const RunConfig& config, bool traced, double run_s,
                Session& session, Report& report) {
  if (config.workload == "lbd-hot")
    lbdHotSession(config, traced, run_s, session, report);
  else
    lbdColdSession(config, traced, run_s, session, report);
}

/// Recomputes one in `kOracleStride` daemon answers in-process.
void checkAgainstInProcess(const Session& session, std::uint64_t seed,
                           Report& report) {
  for (std::size_t i = seed % kOracleStride; i < session.answered.size();
       i += kOracleStride) {
    const auto& [scenario, bytes] = session.answered[i];
    if (bytes.empty()) continue;  // already counted as a failure
    report.attempt();
    if (encodeResult(service::runScenario(scenario)) != bytes)
      report.fail("daemon answer " + std::to_string(i) +
                  " differs from runScenario");
  }
}

/// Per-layer metrics of a traced session (`base` is the untraced session
/// run alongside it, for the tracing overhead).
void reportLayers(const Session& traced, const Session& base, Report& report) {
  const Scrape& a = traced.before;
  const Scrape& b = traced.after;
  auto stage = [&](const std::string& metric, const Scrape::Match& match,
                   const std::string& family = "lb_request_stage_micros") {
    const HistDelta h(a, b, family, match);
    report.metric(metric + ".mean", h.mean(), "us");
    report.metric(metric + ".p99", h.quantile(0.99), "us");
    return h;
  };
  stage("service.server.read_us", {{"stage", "read"}});
  stage("service.server.parse_us", {{"stage", "parse"}});
  stage("service.engine.cache_lookup_us", {{"stage", "cache_lookup"}});
  stage("service.engine.queue_wait_us", {{"stage", "queue_wait"}});
  stage("service.engine.execute_us", {{"stage", "execute"}});
  stage("service.server.write_us", {{"stage", "write"}});
  const HistDelta run =
      stage("service.server.request_us.run", {{"verb", "run"}},
            "lb_server_request_micros");
  stage("service.server.request_us.batch", {{"verb", "batch"}},
        "lb_server_request_micros");
  stage("service.server.request_us.sweep", {{"verb", "sweep"}},
        "lb_server_request_micros");
  report.metric("service.loop.iteration_us.p99",
                HistDelta(a, b, "lb_loop_iteration_micros", {}).quantile(0.99),
                "us");
  report.metric(
      "service.loop.wakeup_to_dispatch_us.p99",
      HistDelta(a, b, "lb_loop_wakeup_to_dispatch_micros", {}).quantile(0.99),
      "us");
  auto delta = [&](const std::string& name, const Scrape::Match& match = {}) {
    return b.sum(name, match) - a.sum(name, match);
  };
  report.metric("service.loop.stalls", delta("lb_loop_stalls_total"), "count");

  // wire_us is what the client saw beyond the server's own request time;
  // the root span's self time is the part of that request time no stage
  // span covers, which is the reconciliation gap.
  double rtt_mean = 0;
  for (const double v : traced.rtt_us)
    rtt_mean += v / static_cast<double>(traced.rtt_us.size());
  const double self_us = runRootSelfUs(traced.chrome_trace);
  report.metric("service.wire_us", rtt_mean - run.mean(), "us");
  report.metric("service.server.root_self_us", self_us, "us");
  report.metric("bench.reconcile_gap_frac",
                rtt_mean > 0 ? std::abs(self_us) / rtt_mean : 0.0, "ratio");

  report.metric("service.cache.hits",
                delta("lb_cache_hits_total", {{"tier", "memory"}}), "count");
  report.metric("service.cache.disk_hits",
                delta("lb_cache_hits_total", {{"tier", "disk"}}), "count");
  report.metric("service.cache.misses", delta("lb_cache_misses_total"),
                "count");
  report.metric("service.cache.insertions", delta("lb_cache_insertions_total"),
                "count");
  report.metric("service.cache.hit_ratio",
                traced.open_runs > 0
                    ? static_cast<double>(traced.open_cached) /
                          static_cast<double>(traced.open_runs)
                    : 0.0,
                "ratio");
  report.metric("service.jobs.coalesced", delta("lb_jobs_coalesced_total"),
                "count");
  report.metric("service.jobs.shed", delta("lb_jobs_shed_total"), "count");
  report.metric("service.jobs.timeouts", delta("lb_jobs_timeout_total"),
                "count");
  report.metric("client.retries", static_cast<double>(traced.client_retries),
                "count");
  report.metric("gen.late_ms.p99", percentile(traced.late_ms, 0.99), "ms");
  report.metric("gen.backlog_end", static_cast<double>(traced.backlog_end),
                "count");
  report.metric("bench.trace_overhead_frac", traced.p50_ms / base.p50_ms - 1.0,
                "ratio");

  std::uint64_t grants = 0;
  double idle = 0;
  for (const std::string& bytes : traced.digest_results) {
    const service::ScenarioResult r =
        service::resultFromJson(Json::parse(bytes));
    grants += r.grants;
    idle += r.unutilized_fraction;
  }
  report.metric("bus.grants", static_cast<double>(grants), "count");
  report.metric("bus.idle_frac",
                idle / static_cast<double>(traced.digest_results.size()),
                "ratio");
}

service::Json latencySummary(const std::vector<double>& latency_ms) {
  Json json = Json::object();
  json.set("n", Json(static_cast<std::uint64_t>(latency_ms.size())))
      .set("p50", Json(percentile(latency_ms, 0.5)))
      .set("p90", Json(percentile(latency_ms, 0.9)))
      .set("p99", Json(percentile(latency_ms, 0.99)));
  return json;
}

}  // namespace

bool isDaemonWorkload(const std::string& workload) {
  return workload == "lbd-hot" || workload == "lbd-cold";
}

Report runDaemon(const RunConfig& config) {
  Report report;
  Session session;
  if (!config.trace) {
    runSession(config, false, config.seconds, session, report);
  } else {
    // Half the window untraced (the overhead baseline), half traced.
    Session base;
    runSession(config, false, config.seconds / 2, base, report);
    runSession(config, true, config.seconds / 2, session, report);
    reportLayers(session, base, report);
  }
  for (const std::string& bytes : session.digest_results)
    report.digest.add(bytes);
  checkAgainstInProcess(session, config.seed, report);
  report.detail.set("setup_s", quartiles(session.setup_s))
      .set("latency_ms", latencySummary(session.latency_ms))
      .set("segment_p50_ms", numbers(session.segment_p50_ms))
      .set("segment_p90_ms", numbers(session.segment_p90_ms))
      .set("open_loop_runs", Json(session.open_runs))
      .set("backlog_end", Json(session.backlog_end));

  if (!config.trace) {
    report.metric("setup_s", percentile(session.setup_s, 0.5), "s");
    report.metric("sim_cycles_per_s", session.cycles_per_s, "cycles/s");
    report.metric("scenarios_per_s", session.scenarios_per_s, "1/s");
    report.metric("req_ms_p50", session.p50_ms, "ms");
    report.metric("req_ms_p90", session.p90_ms, "ms");
    report.metric("peak_rss_mb", percentile(session.peak_rss_mb, 0.5), "MiB");
  }
  return report;
}

}  // namespace lb::e2e
