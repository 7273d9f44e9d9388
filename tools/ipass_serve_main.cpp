// ipass-serve: the assessment service as a TCP daemon.
//
//   ipass_serve [--port N] [--workers N] [--queue N] [--degrade N]
//               [--cache N] [--eval-threads N] [--faults SPEC]
//               [--journal FILE] [--journal-sync] [--drain-timeout MS]
//               [--metrics FILE] [--metrics-interval-ms MS]
//               [--slow-request-ms MS] [--profile]
//
// Listens on 127.0.0.1 (port 0 = ephemeral) and prints one line
//   listening on 127.0.0.1:<port>
// to stdout once ready (the CI smoke parses it).  With --journal, startup
// first recovers the journal — truncating any torn tail and re-executing
// admitted-but-uncommitted requests — and prints a recovery summary line
// before "listening".  Frames are 4-byte big-endian length + JSON; see
// README "Serving assessments" for the request envelope and the error-code
// table.  SIGINT/SIGTERM stop the accept loop, drain admitted requests
// (bounded by --drain-timeout), fsync the journal, and exit 0.
//
// Observability: --metrics FILE periodically dumps the process-wide metrics
// registry to FILE (atomic tmp+rename; a ".prom" suffix selects the
// Prometheus text exposition, anything else JSON), with a final dump at
// shutdown.  --slow-request-ms logs one stderr line per request slower than
// the threshold (0 logs every request).  --profile turns on the per-phase
// engine profiling histograms.  None of these can change a response byte.
//
// --cache N bounds both cache tiers of the service at N entries each: the
// compiled studies (keyed by the whole request minus its evaluation state)
// and, under them, each build-up's MNA performance rows (keyed by exactly
// what the sweeps read), so a cost-only variant of a known kit compiles
// without sweeping.  Their counters are serve_cache_*_total and
// serve_perf_cache_*_total in the metrics dump; the stats probe reports the
// study tier.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/metrics.hpp"
#include "serve/socket.hpp"

namespace {

ipass::serve::SocketServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

long parse_long(const char* flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "ipass_serve: %s expects an integer in [%ld, %ld], got '%s'\n",
                 flag, lo, hi, text);
    std::exit(2);
  }
  return v;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Write the registry snapshot atomically: a scraper reading FILE never sees
// a half-written dump.
bool dump_metrics(const std::string& path) {
  const std::string text = ends_with(path, ".prom")
                               ? ipass::metrics::global_metrics().prometheus_text()
                               : ipass::metrics::global_metrics().snapshot_json();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// Background metrics dumper; wakes every interval (and once more at stop)
// so the final dump reflects the drained service.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, std::uint32_t interval_ms)
      : path_(std::move(path)), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { loop(); });
  }
  ~MetricsDumper() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    if (!dump_metrics(path_)) {
      std::fprintf(stderr, "ipass_serve: cannot write metrics file '%s'\n",
                   path_.c_str());
    }
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                   [&] { return stop_; });
      if (stop_) return;
      lk.unlock();
      if (!dump_metrics(path_)) {
        std::fprintf(stderr, "ipass_serve: cannot write metrics file '%s'\n",
                     path_.c_str());
      }
      lk.lock();
    }
  }

  const std::string path_;
  const std::uint32_t interval_ms_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  ipass::serve::ServerOptions options;
  std::string metrics_path;
  std::uint32_t metrics_interval_ms = 1000;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "ipass_serve: %s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(parse_long("--port", value(), 0, 65535));
      } else if (arg == "--workers") {
        options.service.workers =
            static_cast<unsigned>(parse_long("--workers", value(), 1, 256));
      } else if (arg == "--queue") {
        options.service.queue_limit =
            static_cast<std::size_t>(parse_long("--queue", value(), 1, 1000000));
      } else if (arg == "--degrade") {
        options.service.degrade_depth =
            static_cast<std::size_t>(parse_long("--degrade", value(), 0, 1000000));
      } else if (arg == "--cache") {
        options.service.cache_capacity =
            static_cast<std::size_t>(parse_long("--cache", value(), 1, 100000));
      } else if (arg == "--eval-threads") {
        options.service.eval_threads =
            static_cast<unsigned>(parse_long("--eval-threads", value(), 1, 4096));
      } else if (arg == "--faults") {
        options.service.faults = ipass::serve::parse_fault_spec(value());
      } else if (arg == "--journal") {
        options.service.journal_path = value();
      } else if (arg == "--journal-sync") {
        options.service.journal_sync = true;
      } else if (arg == "--drain-timeout") {
        options.drain_timeout_ms = static_cast<std::uint32_t>(
            parse_long("--drain-timeout", value(), 0, 3600000));
      } else if (arg == "--metrics") {
        metrics_path = value();
      } else if (arg == "--metrics-interval-ms") {
        metrics_interval_ms = static_cast<std::uint32_t>(
            parse_long("--metrics-interval-ms", value(), 10, 3600000));
      } else if (arg == "--slow-request-ms") {
        options.service.slow_request_ms =
            parse_long("--slow-request-ms", value(), 0, 3600000);
      } else if (arg == "--profile") {
        ipass::metrics::set_profiling_enabled(true);
      } else {
        std::fprintf(stderr,
                     "usage: ipass_serve [--port N] [--workers N] [--queue N] "
                     "[--degrade N] [--cache N] [--eval-threads N] [--faults SPEC] "
                     "[--journal FILE] [--journal-sync] [--drain-timeout MS] "
                     "[--metrics FILE] [--metrics-interval-ms MS] "
                     "[--slow-request-ms MS] [--profile]\n"
                     "  --cache N  entries kept by each of the two cache tiers, "
                     "compiled studies and build-up performance rows (default 8)\n");
        return 2;
      }
    }

    // The daemon's serve counters go to the process-wide registry, next to
    // the engine-profiling histograms, so one dump holds both.
    ipass::serve::SocketServer server(options, &ipass::metrics::global_metrics());
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (const ipass::serve::Journal* journal = server.service().journal()) {
      const ipass::serve::JournalRecovery& rec = journal->recovered();
      std::printf(
          "journal %s: %zu records, %llu committed, %llu re-executed, "
          "%llu torn bytes truncated\n",
          journal->path().c_str(), rec.records.size(),
          static_cast<unsigned long long>(rec.committed_count),
          static_cast<unsigned long long>(rec.uncommitted_count),
          static_cast<unsigned long long>(rec.truncated_bytes));
    }
    std::printf("listening on 127.0.0.1:%u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    {
      std::unique_ptr<MetricsDumper> dumper;
      if (!metrics_path.empty()) {
        dumper = std::make_unique<MetricsDumper>(metrics_path, metrics_interval_ms);
      }
      server.run();
      // dumper destructor: final dump after the drain settled every counter.
    }
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipass_serve: %s\n", e.what());
    return 1;
  }
}
