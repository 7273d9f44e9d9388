// The fault-tolerant assessment service core: bounded admission, bounded
// evaluation concurrency, per-request deadlines, graceful degradation and
// the study cache, glued to the wire protocol.  The socket front-end
// (socket.hpp) and the replay tool are thin shells over this class; every
// behavior is testable in-process without a network.
//
// Robustness contract: handle() always yields exactly one response line —
// a request can fail (structured error with a taxonomy code), be shed
// (degraded response), or be refused at admission (overloaded error), but
// it can never crash the process, deadlock, or leak its admission slot.
// The response content is a pure function of (request text, admission
// sequence number, service options): timing, thread interleaving and cache
// state never leak into the bytes, which is what makes request-log replay
// byte-identical across worker counts.
//
// Every counter the service keeps lives in the metrics registry it is given
// (ipass_serve passes metrics::global_metrics(); a service given none owns a
// fresh registry, so in-process services never mix their numbers).  The
// stats and health probes read those same counters, so the probes and the
// registry's JSON/Prometheus dump cannot disagree.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.hpp"
#include "core/function_bom.hpp"
#include "kits/registry.hpp"
#include "serve/cache.hpp"
#include "serve/fault.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"

namespace ipass::serve {

struct ServiceOptions {
  unsigned workers = 1;          // requests evaluating at once
  std::size_t queue_limit = 64;  // admitted-but-unfinished cap; above = overloaded
  // Admitted-but-unfinished count at admission from which optional stages
  // (pareto, sensitivity) are shed and the response flagged "degraded": true.
  // 0 disables shedding (the replay/CI configuration — shedding depends on
  // racing queue depth, so determinism requires it off).
  std::size_t degrade_depth = 0;
  // Entries kept by each of the two cache tiers (LRU): compiled studies in
  // one, build-ups' performance rows in the other.
  std::size_t cache_capacity = 8;
  unsigned eval_threads = 1;       // engine threads per request
  FaultPlan faults;                // deterministic fault injection
  // Durable request journal (empty = journaling off).  Every admission
  // writes an Admit record before processing and a Commit record (the
  // response's digest) before the response is returned; on construction
  // the service recovers the file, truncates any torn tail, and re-executes
  // the admitted-but-uncommitted suffix so the journal's response stream is
  // byte-identical to an uninterrupted run (see serve/journal.hpp).
  std::string journal_path;
  bool journal_sync = false;  // fsync per append (power-loss durability)
  // Completed requests slower than this are logged to stderr as one-line
  // stage traces (trace_to_string); < 0 disables the log, 0 logs every
  // request.  Purely observational: the threshold can never change a
  // response byte.
  std::int64_t slow_request_ms = -1;
  // Completed traces retained for the traces() ring (oldest overwritten).
  std::size_t trace_capacity = 256;
};

// The service's counters, gauge and stage-latency histograms, resolved once
// from its registry (serve_*).  Recording is allocation-free and lock-free.
struct ServiceMetrics {
  explicit ServiceMetrics(metrics::MetricsRegistry& registry);
  metrics::Counter& admitted;
  metrics::Counter& completed;
  metrics::Counter& ok;
  metrics::Counter& errors;      // completed with a structured error
  metrics::Counter& overloaded;  // refused at admission
  metrics::Counter& degraded;    // completed with shed optional stages
  metrics::Counter& recovered;   // journal entries re-executed on startup
  metrics::Counter& health;      // health probes answered (never admitted)
  metrics::Counter& stats_probes;  // stats probes answered (never admitted)
  metrics::Counter& slow_requests;
  // Per-outcome breakdown of `errors` by taxonomy code.
  metrics::Counter& deadline_exceeded;
  metrics::Counter& parse_errors;
  metrics::Counter& validation_errors;
  metrics::Counter& internal_errors;
  // Admitted-but-unfinished requests (waiting for a slot plus running); its
  // high_water() is how close admission came to queue_limit.
  metrics::Gauge& queue_depth;
  metrics::Histogram& parse_ns;
  metrics::Histogram& queue_wait_ns;
  metrics::Histogram& cache_ns;
  metrics::Histogram& evaluate_ns;
  metrics::Histogram& serialize_ns;
  metrics::Histogram& journal_append_ns;
  metrics::Histogram& total_ns;
  const CacheMetrics cache;       // study tier (serve_cache_*)
  const CacheMetrics perf_cache;  // performance tier (serve_perf_cache_*)
};

class AssessmentService {
 public:
  // Records into `registry`, which must outlive the service; given none,
  // the service owns a fresh registry.
  explicit AssessmentService(const ServiceOptions& options = {},
                             metrics::MetricsRegistry* registry = nullptr);
  // Refuses new requests and waits until no admitted request is still
  // running (every admitted request still gets its response).
  ~AssessmentService();

  AssessmentService(const AssessmentService&) = delete;
  AssessmentService& operator=(const AssessmentService&) = delete;

  // Admit one request (a single line/frame of JSON), wait for one of the
  // `workers` evaluation slots and run it to completion on the calling
  // thread; returns its response line and never throws.  Health and stats
  // probes are answered without admission (no seq, no journal record).
  std::string handle(const std::string& request_text);

  // handle() for in-process callers with several requests in flight: it
  // admits on the caller's thread (call order is seq order) and only the
  // run moves to a thread of its own.
  std::future<std::string> submit(const std::string& request_text);

  // Graceful drain: stop admitting (new requests get structured overload
  // refusals naming the drain) while already-admitted requests keep
  // running.  await_drained() blocks until no admitted request is left or
  // the timeout passes (returns whether fully drained); flush_journal()
  // makes everything committed so far durable.
  void begin_drain();
  bool await_drained(std::chrono::milliseconds timeout);
  void flush_journal();

  // The response `request_text` gets when admitted at `seq`, run exactly as
  // startup recovery re-executes a journaled request: no admission, no
  // slot, no journal record, no trace and no request counters (the cache
  // tiers still count their lookups).  Never throws.  This is the executor
  // journal_response_stream re-checks commits with.
  std::string reexecute(std::uint64_t seq, const std::string& request_text) const;

  const ServiceMetrics& metrics() const { return metrics_; }
  metrics::MetricsRegistry& metrics_registry() const { return metrics_registry_; }
  const ServiceOptions& options() const { return options_; }
  const Journal* journal() const { return journal_.get(); }
  // Completed request traces (bounded ring, oldest overwritten).
  const TraceRing& traces() const { return traces_; }

 private:
  struct Task {
    std::uint64_t seq = 0;
    RequestDocument request;  // the request text, parsed once
    bool shed = false;  // admission decided to shed optional stages
    std::chrono::steady_clock::time_point received;  // parse start: the trace's total
    std::chrono::steady_clock::time_point admitted;  // the deadline clock's start
    std::uint64_t parse_ns = 0;  // the tape parse, before admission
  };
  struct Outcome {
    std::string body;
    bool ok = false;
    bool degraded = false;
    ErrorCode error = ErrorCode::Unspecified;  // set when !ok
  };

  // Admits into `task` (true) or answers a probe or refusal (false).
  bool admit(const std::string& request_text, Task& task, std::string& answer);
  // Slot wait, process, commit, settle; never touches *this afterwards.
  std::string run(const Task& task);
  // Never throws: every failure becomes a structured error response.
  // `trace` (optional) receives the stage durations and the outcome
  // classification — observability only, never any response byte.
  Outcome process(const Task& task, RequestTrace* trace) const;
  // process() of a journaled request outside admission: recovery and
  // reexecute() both run through here.
  Outcome reexecute_outcome(std::uint64_t seq, const std::string& request_text) const;
  Outcome run_assessment(const Task& task, const AssessmentRequest& request,
                         RequestTrace* trace) const;
  std::string health_response() const;
  std::string stats_response() const;
  // Outcome counters for one completed request (run() and recovery alike).
  void count_outcome(const Outcome& outcome) const;
  // Ring-push, latency histograms and the slow-request stderr log for one
  // completed request.
  void finish_trace(RequestTrace& trace) const;
  void recover_journal();  // re-execute the uncommitted suffix (ctor only)

  const ServiceOptions options_;
  // Declared before everything that resolves counters from the registry.
  const std::unique_ptr<metrics::MetricsRegistry> owned_metrics_;  // or null
  metrics::MetricsRegistry& metrics_registry_;
  const ServiceMetrics metrics_;
  const kits::KitRegistry registry_;
  const core::FunctionalBom bom_;
  mutable CompiledStudyCache cache_;
  mutable PerformanceCache perf_cache_;  // under cache_: MNA rows per build-up
  std::unique_ptr<Journal> journal_;  // null when journaling is off

  mutable std::mutex m_;
  std::condition_variable slot_cv_;     // an evaluation slot was released
  std::condition_variable drained_cv_;  // in_flight_ dropped to zero
  std::size_t in_flight_ = 0;  // admitted, not yet finished
  std::size_t running_ = 0;    // of those, holding one of the workers slots
  std::uint64_t next_seq_ = 0;
  bool draining_ = false;
  mutable TraceRing traces_;  // completed-trace ring (internally locked)
};

}  // namespace ipass::serve
