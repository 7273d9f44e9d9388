// serve-hot and serve-churn: ipass_serve over TCP, driven by a
// single-process load generator built on the public serve client API.
//
// Every run starts the daemon on a fresh journal in the work directory,
// checks every response byte-for-byte against an in-process
// AssessmentService reference, and stops the daemon with a SIGTERM drain.
// The daemon dies with the benchmark (PR_SET_PDEATHSIG), so no failed run
// leaves one behind.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace perfbench {

namespace {

constexpr double kRampSeconds = 0.25;  // unmeasured load before the window
constexpr std::size_t kBlockRequests = 250;

// One ipass_serve process.  Its stdout is read until the "listening" line;
// stderr goes to a log file in the work directory.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    std::vector<std::string> argv_text = {binary};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_text) argv.push_back(a.data());
    argv.push_back(nullptr);

    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(out[1], 1);
      if (log >= 0) ::dup2(log, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (log >= 0) ::close(log);
    if (pid_ < 0) {
      ::close(out[0]);
      throw std::runtime_error("fork failed");
    }
    out_fd_ = out[0];
    read_port();
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  // Graceful SIGTERM drain; SIGKILL after 20 s.  Returns the exit code
  // (0 = clean drain), or -1 when the daemon had to be killed.
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    int st = 0;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &st, WNOHANG)) == 0 && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (done == pid_) {
      status_ = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
    } else {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &st, 0);
      status_ = -1;
    }
    ::close(out_fd_);
    pid_ = -1;
    return status_;
  }

 private:
  void read_port() {
    const std::string marker = "listening on 127.0.0.1:";
    std::string text;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      const std::size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoul(text.substr(at + marker.size())));
        return;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - Clock::now());
      pollfd p{out_fd_, POLLIN, 0};
      char buf[512];
      const ssize_t n = left.count() > 0 && ::poll(&p, 1, static_cast<int>(left.count())) > 0
                            ? ::read(out_fd_, buf, sizeof buf)
                            : 0;
      if (n <= 0) {
        stop();
        throw std::runtime_error("ipass_serve did not report a listening port: " + text);
      }
      text.append(buf, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  int status_ = 0;
};

std::string probe(std::uint16_t port, const char* text) {
  ipass::serve::SocketClient client("127.0.0.1", port);
  return client.roundtrip(text);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The in-process reference: one response per distinct request text.
std::vector<std::string> reference_responses(const Traffic& t) {
  ipass::serve::ServiceOptions options;
  options.cache_capacity = t.keys + 8;
  ipass::serve::AssessmentService service(options);
  std::vector<std::string> out;
  out.reserve(t.requests.size());
  for (const std::string& request : t.requests) {
    out.push_back(service.handle(request));
    if (out.back().find("\"status\": \"ok\"") == std::string::npos) {
      throw std::runtime_error("workload request fails in-process: " + out.back());
    }
  }
  return out;
}

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Start a daemon and bring it to ready: first healthy probe, then one
// request per study key (checked like every other response).  Returns the
// set-up time, process start to warm cache.
double start_ready(std::unique_ptr<Daemon>& daemon, const ServeConfig& cfg,
                   const std::vector<std::string>& args, const Traffic& t,
                   const std::vector<std::string>& refs, Counts& counts) {
  const Clock::time_point t0 = Clock::now();
  daemon = std::make_unique<Daemon>(cfg.serve_bin, args, cfg.workdir + "/daemon.log");
  for (int attempt = 0;; ++attempt) {
    std::string health;
    try {
      health = probe(daemon->port(), "{\"kind\": \"health\"}");
    } catch (const std::exception&) {
      if (attempt > 2000) throw;
    }
    if (health.find("\"status\": \"ok\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ipass::serve::SocketClient client("127.0.0.1", daemon->port());
  for (const std::uint32_t i : t.warmup) {
    ++counts.attempted;
    if (client.roundtrip(t.requests[i]) != refs[i]) ++counts.failed;
  }
  return seconds_between(t0, Clock::now());
}

// Client-side view of one measured load window.
struct LoadStats {
  std::vector<double> latency_us;  // measured requests that succeeded
  std::vector<double> block_s;     // wall time of each block of kBlockRequests
  // Successful responses per second, one sample per block (kConnections
  // blocks run side by side).
  std::vector<double> rate_rps;
  double sent_to_done_us = 0.0;    // mean, from the actual send
  std::uint64_t ok = 0;
};

// Closed loop: each connection sends its next request when the previous
// response arrived.  Part k of a segment draws its own request order.
LoadStats run_load(std::uint16_t port, const ServeConfig& cfg, const Traffic& t,
                   const std::vector<std::string>& refs, unsigned part, Counts& counts) {
  struct Sample {
    double sent_s;
    double done_s;
  };
  struct PerConn {
    std::vector<Sample> window;
    Counts counts;
  };
  std::vector<PerConn> conns(kConnections);
  std::vector<std::unique_ptr<ipass::serve::SocketClient>> clients;
  for (unsigned c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<ipass::serve::SocketClient>("127.0.0.1", port));
  }
  const Clock::time_point start = Clock::now();
  const double window_end = kRampSeconds + cfg.seconds;
  const auto body = [&](unsigned c) {
    ClosedLoopOrder order(cfg.seed, c + kConnections * (part + 16 * cfg.segment), t);
    PerConn& mine = conns[c];
    mine.window.reserve(static_cast<std::size_t>(cfg.seconds * 40000.0));
    std::string response;
    for (;;) {
      const double sent = seconds_between(start, Clock::now());
      if (sent >= window_end) break;
      const std::uint32_t i = order.next();
      const ipass::serve::TransportStatus status = clients[c]->try_roundtrip(t.requests[i], response);
      const double done = seconds_between(start, Clock::now());
      const bool good = status == ipass::serve::TransportStatus::Ok && response == refs[i];
      ++mine.counts.attempted;
      if (!good) ++mine.counts.failed;
      if (good && sent >= kRampSeconds) mine.window.push_back({sent, done});
      if (status != ipass::serve::TransportStatus::Ok) break;
    }
  };
  std::thread other(body, 1U);
  body(0U);
  other.join();

  LoadStats out;
  double total_us = 0.0;
  for (const PerConn& conn : conns) {
    counts.attempted += conn.counts.attempted;
    counts.failed += conn.counts.failed;
    for (const Sample& s : conn.window) {
      out.latency_us.push_back((s.done_s - s.sent_s) * 1e6);
      total_us += out.latency_us.back();
    }
    for (std::size_t b = 0; b + kBlockRequests <= conn.window.size(); b += kBlockRequests) {
      out.block_s.push_back(conn.window[b + kBlockRequests - 1].done_s - conn.window[b].sent_s);
      out.rate_rps.push_back(kConnections * kBlockRequests / out.block_s.back());
    }
  }
  out.ok = out.latency_us.size();
  out.sent_to_done_us = out.ok > 0 ? total_us / static_cast<double>(out.ok) : 0.0;
  return out;
}

std::vector<std::string> daemon_args(const std::string& journal) {
  return {"--port", "0", "--workers", "2", "--journal", journal};
}

// Keep this process and every daemon it starts (both inherit the mask) on
// the last kConnections CPUs it may use; returns how many CPUs that is.
// Each connection's request is a chain (client, connection thread, worker)
// that runs one step at a time, so a connection keeps about one CPU busy.
// Spread over more CPUs, the chain wakes an idle vCPU at every step, and
// on a shared host that wake-up takes as long as the host's load makes it.
// On a shared 4-vCPU VM, unpinned serve-churn read 2.6k-4.1k req/s in a
// loaded hour and 5.6k-6.2k in a calm one; pinned, 4.2k-4.6k in both.
int pin_to_connection_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int n = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n < static_cast<int>(kConnections); --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++n;
    }
  }
  return ::sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? n : -1;
}

}  // namespace

RunResult run_serve(const ServeConfig& cfg) {
  // Before any thread or daemon exists, so that all of them inherit it.
  const int cpus = pin_to_connection_cpus();
  const bool hot = cfg.workload == "serve-hot";
  const Traffic t = hot ? make_hot_traffic(cfg.seed) : make_churn_traffic(cfg.seed);
  const std::vector<std::string> refs = reference_responses(t);
  Counts counts;
  RunResult r;
  r.info["vocabulary"] = static_cast<double>(t.requests.size());
  r.info["study_keys"] = static_cast<double>(t.keys);
  r.info["cpus"] = cpus;
  r.info["connections"] = kConnections;
  r.info["daemon_workers"] = 2;

  const std::string journal = cfg.workdir + "/journal.wal";
  int bad_exits = 0;
  const auto finish = [&](std::unique_ptr<Daemon>& daemon) {
    if (daemon->stop() != 0) ++bad_exits;
    std::remove(journal.c_str());
  };

  if (!cfg.trace) {
    // One segment of an untraced run: several daemon lifetimes, each timed
    // from process start to warm cache and then serving its share of the
    // window, so no figure hangs on one daemon's thread placement.  run.py
    // pools the raw samples of a run's segments.
    constexpr unsigned kLifetimes = 3;
    ServeConfig share = cfg;
    share.seconds = cfg.seconds / kLifetimes;
    std::vector<double> setups;
    LoadStats all;
    double rss = 0.0;
    for (unsigned life = 0; life < kLifetimes; ++life) {
      std::unique_ptr<Daemon> daemon;
      setups.push_back(start_ready(daemon, cfg, daemon_args(journal), t, refs, counts));
      LoadStats load = run_load(daemon->port(), share, t, refs, life, counts);
      rss = std::max(rss, vm_hwm_mib(daemon->pid()));
      finish(daemon);
      all.latency_us.insert(all.latency_us.end(), load.latency_us.begin(), load.latency_us.end());
      all.block_s.insert(all.block_s.end(), load.block_s.begin(), load.block_s.end());
      all.rate_rps.insert(all.rate_rps.end(), load.rate_rps.begin(), load.rate_rps.end());
    }
    r.samples["latency_us"] = all.latency_us;
    r.samples["study_s"] = all.block_s;
    r.samples["setup_s"] = setups;
    r.samples["rate_rps"] = all.rate_rps;
    r.info["rss_peak_mb"] = rss;
    r.info["block_requests"] = kBlockRequests;
    r.info["daemon_lifetimes"] = kLifetimes;
  } else {
    // Untraced pass, then the same traffic against a daemon exporting its
    // metrics registry with engine profiling on; half the window each.
    ServeConfig half = cfg;
    half.seconds = cfg.seconds / 2;
    std::unique_ptr<Daemon> daemon;
    start_ready(daemon, cfg, daemon_args(journal), t, refs, counts);
    const LoadStats plain = run_load(daemon->port(), half, t, refs, 0, counts);
    finish(daemon);

    const std::string metrics_path = cfg.workdir + "/metrics.json";
    std::vector<std::string> args = daemon_args(journal);
    args.insert(args.end(), {"--metrics", metrics_path, "--metrics-interval-ms", "20", "--profile"});
    start_ready(daemon, cfg, args, t, refs, counts);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));  // a dump after warm-up
    const MetricsSnapshot m0 = parse_metrics_snapshot(read_file(metrics_path));
    const std::string s0 = probe(daemon->port(), "{\"kind\": \"stats\"}");
    const double cpu0 = cpu_seconds(daemon->pid());
    const LoadStats traced = run_load(daemon->port(), half, t, refs, 1, counts);
    const double cpu1 = cpu_seconds(daemon->pid());
    const std::string s1 = probe(daemon->port(), "{\"kind\": \"stats\"}");
    finish(daemon);  // the final dump follows the drain
    const MetricsSnapshot m1 = parse_metrics_snapshot(read_file(metrics_path));
    std::remove(metrics_path.c_str());

    const auto counter = [&](const char* name) {
      const auto a = m1.counters.find(name);
      const auto b = m0.counters.find(name);
      return (a == m1.counters.end() ? 0.0 : a->second) - (b == m0.counters.end() ? 0.0 : b->second);
    };
    const auto stat = [&](const std::vector<std::string>& path) {
      return stats_field(s1, path) - stats_field(s0, path);
    };
    const auto mean_us = [&](const char* name) { return mean_us_between(m0, m1, name); };
    const double requests = counter("serve_requests_completed_total");
    const auto per_request = [&](double v) { return requests > 0.0 ? v / requests : 0.0; };

    r.metrics["serve.parse_us"] = mean_us("serve_request_parse_ns");
    r.metrics["serve.queue_wait_us"] = mean_us("serve_request_queue_wait_ns");
    r.metrics["serve.cache_us"] = mean_us("serve_request_cache_ns");
    r.metrics["serve.evaluate_us"] = mean_us("serve_request_evaluate_ns");
    r.metrics["serve.serialize_us"] = mean_us("serve_request_serialize_ns");
    r.metrics["serve.journal_append_us"] = mean_us("serve_request_journal_append_ns");
    r.metrics["serve.total_us"] = mean_us("serve_request_total_ns");
    r.metrics["serve.handoff_us"] = traced.sent_to_done_us - r.metrics["serve.total_us"];
    r.metrics["serve.cpu_us_per_req"] = per_request((cpu1 - cpu0) * 1e6);
    r.metrics["serve.journal.bytes_per_req"] = per_request(counter("serve_journal_appended_bytes_total"));
    r.metrics["serve.socket.bytes_out_per_req"] =
        counter("serve_socket_bytes_out_total") /
        std::max(1.0, counter("serve_socket_frames_out_total"));
    const double hits = stat({"cache", "hits"});
    const double misses = stat({"cache", "misses"});
    const double waits = stat({"cache", "waits"});
    r.metrics["serve.cache.hit_ratio"] = hits / std::max(1.0, hits + misses + waits);
    r.metrics["serve.cache.misses"] = misses;
    r.metrics["serve.cache.waits"] = waits;
    r.metrics["serve.cache.evictions"] = stat({"cache", "evictions"});
    r.metrics["serve.queue_high_water"] = stats_field(s1, {"queue_high_water"});
    r.metrics["serve.overloaded"] = stat({"overloaded"});
    r.metrics["core.compile.mna_us"] = mean_us("core_profile_mna_sweeps_ns");
    r.metrics["core.compile.area_us"] = mean_us("core_profile_area_ns");
    r.metrics["core.compile.flatten_us"] = mean_us("core_profile_cost_flatten_ns");
    r.metrics["core.batch_walk_us"] = mean_us("core_profile_batch_walk_ns");
    // Untraced capacity against traced.
    r.metrics["trace.overhead_pct"] =
        (static_cast<double>(plain.ok) / static_cast<double>(std::max<std::uint64_t>(1, traced.ok)) - 1.0) * 100.0;
    r.info["traced_requests"] = requests;
  }
  r.info["daemon_bad_exits"] = bad_exits;
  r.attempted = counts.attempted;
  r.failed = counts.failed + static_cast<std::uint64_t>(bad_exits);
  return r;
}

}  // namespace perfbench
