// ipass-replay: feed a JSONL request log through the assessment service
// and print the response stream (one line per request, request order).
//
//   ipass_replay --log FILE [--workers N] [--queue N] [--cache N]
//                [--eval-threads N] [--faults SPEC]           (in-process)
//   ipass_replay --log FILE --connect HOST:PORT               (over TCP)
//   ipass_replay --log FILE --journal FILE --connect HOST:PORT  (resume)
//   ipass_replay --journal FILE [--faults SPEC]  (print the recovered stream)
//   ipass_replay --health HOST:PORT         (readiness probe)
//   ipass_replay --stats HOST:PORT          (operational stats probe)
//
// Responses are pure functions of (request, sequence number, options), so
// two in-process replays of the same log — with different --workers,
// different IPASS_THREADS, different machines — print byte-identical
// streams, and a --connect replay against an ipass_serve daemon running
// the same options prints the same bytes again.  The CI smoke diffs all
// three.  Degradation stays disabled here (it depends on racing queue
// depth); exercise it in-process via ServiceOptions::degrade_depth.
//
// Crash-recovery modes: --journal alone prints the journal's committed
// response stream (seq order — what the kill-smoke cmps against an
// uninterrupted run).  A commit keeps only its response's digest, so each
// committed request is re-executed in-process, under the options given here
// (pass the daemon's --faults), and checked against that digest; a
// mismatch exits 1 naming the seq.  --journal with --log and --connect resumes an
// interrupted replay, skipping the log lines the journal already admitted
// (a sequential replay admits in log order, so the admit count IS the
// resume point) and sending only the remainder.  --health retries a
// {"kind":"health"} probe until the daemon answers (readiness gate);
// --stats does the same with {"kind":"stats"} and prints the daemon's full
// operational counters.  Both probes are answered at admission — no
// sequence number, no journal record — so probing never perturbs the
// deterministic response stream.
//
// --cache N bounds both in-process cache tiers at N entries each (compiled
// studies, and build-up performance rows under them).  No cache state
// reaches a response byte: `--cache 1`, where nearly every lookup misses,
// prints the same stream as the default 8 (the CI smoke cmps it).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hpp"
#include "serve/replay.hpp"
#include "serve/socket.hpp"

namespace {

long parse_long(const char* flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "ipass_replay: %s expects an integer in [%ld, %ld], got '%s'\n",
                 flag, lo, hi, text);
    std::exit(2);
  }
  return v;
}

bool split_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  host = spec.substr(0, colon);
  port = static_cast<std::uint16_t>(
      parse_long("port", spec.c_str() + colon + 1, 1, 65535));
  return true;
}

// Probe loop shared by --health and --stats: retry until the daemon answers
// (it may still be recovering its journal or binding the port).
int probe_daemon(const char* flag, const std::string& probe,
                 const std::string& host, std::uint16_t port) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    try {
      ipass::serve::SocketClient client(host, port);
      const std::string response = client.roundtrip(probe);
      std::printf("%s\n", response.c_str());
      return 0;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }
  std::fprintf(stderr, "ipass_replay: %s: %s:%u never became ready\n", flag,
               host.c_str(), static_cast<unsigned>(port));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string log_path;
  std::string connect;
  std::string journal_path;
  std::string health;
  std::string stats;
  long throttle_ms = 0;
  ipass::serve::ServiceOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "ipass_replay: %s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--log") {
        log_path = value();
      } else if (arg == "--connect") {
        connect = value();
      } else if (arg == "--journal") {
        journal_path = value();
      } else if (arg == "--health") {
        health = value();
      } else if (arg == "--stats") {
        stats = value();
      } else if (arg == "--throttle-ms") {
        throttle_ms = parse_long("--throttle-ms", value(), 0, 60000);
      } else if (arg == "--workers") {
        options.workers = static_cast<unsigned>(parse_long("--workers", value(), 1, 256));
      } else if (arg == "--queue") {
        options.queue_limit =
            static_cast<std::size_t>(parse_long("--queue", value(), 1, 1000000));
      } else if (arg == "--cache") {
        options.cache_capacity =
            static_cast<std::size_t>(parse_long("--cache", value(), 1, 100000));
      } else if (arg == "--eval-threads") {
        options.eval_threads =
            static_cast<unsigned>(parse_long("--eval-threads", value(), 1, 4096));
      } else if (arg == "--faults") {
        options.faults = ipass::serve::parse_fault_spec(value());
      } else {
        std::fprintf(stderr,
                     "usage: ipass_replay --log FILE [--connect HOST:PORT] "
                     "[--journal FILE] [--throttle-ms N] [--workers N] [--queue N] "
                     "[--cache N] [--eval-threads N] [--faults SPEC]\n"
                     "       ipass_replay --journal FILE [--faults SPEC]\n"
                     "       ipass_replay --health HOST:PORT\n"
                     "       ipass_replay --stats HOST:PORT\n"
                     "  --cache N  entries kept by each of the two cache tiers, "
                     "compiled studies and build-up performance rows (default 8)\n");
        return 2;
      }
    }

    if (!health.empty()) {
      std::string host;
      std::uint16_t port = 0;
      if (!split_host_port(health, host, port)) {
        std::fprintf(stderr, "ipass_replay: --health expects HOST:PORT\n");
        return 2;
      }
      return probe_daemon("--health", "{\"kind\": \"health\"}", host, port);
    }
    if (!stats.empty()) {
      std::string host;
      std::uint16_t port = 0;
      if (!split_host_port(stats, host, port)) {
        std::fprintf(stderr, "ipass_replay: --stats expects HOST:PORT\n");
        return 2;
      }
      return probe_daemon("--stats", "{\"kind\": \"stats\"}", host, port);
    }

    if (log_path.empty() && !journal_path.empty()) {
      // Print the journal's committed response stream and nothing else.
      const ipass::serve::AssessmentService service(options);
      const std::string stream = ipass::serve::journal_response_stream(
          journal_path, [&](std::uint64_t seq, const std::string& request) {
            return service.reexecute(seq, request);
          });
      std::fwrite(stream.data(), 1, stream.size(), stdout);
      return 0;
    }
    if (log_path.empty()) {
      std::fprintf(stderr, "ipass_replay: --log FILE is required\n");
      return 2;
    }

    std::vector<std::string> requests = ipass::serve::read_request_log(log_path);
    std::size_t skip = 0;
    if (!journal_path.empty()) {
      if (connect.empty()) {
        std::fprintf(stderr,
                     "ipass_replay: resume (--log + --journal) needs --connect\n");
        return 2;
      }
      // A sequential replay admits log lines in order, so the number of
      // admitted (journaled) requests is exactly how many lines are done.
      skip = ipass::serve::scan_journal(journal_path).entries.size();
      if (skip > requests.size()) {
        std::fprintf(stderr,
                     "ipass_replay: journal has %zu admissions but the log only "
                     "%zu lines — wrong journal for this log?\n",
                     skip, requests.size());
        return 1;
      }
      std::fprintf(stderr, "ipass_replay: resuming at line %zu of %zu\n", skip,
                   requests.size());
    }

    std::vector<std::string> responses;
    if (!connect.empty()) {
      std::string host;
      std::uint16_t port = 0;
      if (!split_host_port(connect, host, port)) {
        std::fprintf(stderr, "ipass_replay: --connect expects HOST:PORT\n");
        return 2;
      }
      ipass::serve::SocketClient client(host, port);
      responses.reserve(requests.size() - skip);
      for (std::size_t i = skip; i < requests.size(); ++i) {
        if (throttle_ms > 0 && i > skip) {
          std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
        }
        responses.push_back(client.roundtrip(requests[i]));
      }
    } else {
      ipass::serve::AssessmentService service(options);
      responses = ipass::serve::replay(service, requests);
    }
    const std::string stream = ipass::serve::response_stream(responses);
    std::fwrite(stream.data(), 1, stream.size(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipass_replay: %s\n", e.what());
    return 1;
  }
}
