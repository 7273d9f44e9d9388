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
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

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
  std::size_t cache_capacity = 8;  // compiled studies kept (LRU)
  unsigned eval_threads = 1;       // engine threads per request
  FaultPlan faults;                // deterministic fault injection
  // Durable request journal (empty = journaling off).  Every admission
  // writes an Admit record before processing and a Commit record (the full
  // response) before the response is returned; on construction the service
  // recovers the file, truncates any torn tail, and re-executes the
  // admitted-but-uncommitted suffix so the journal's response stream is
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

struct ServiceStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;      // completed with a structured error
  std::uint64_t overloaded = 0;  // refused at admission
  std::uint64_t degraded = 0;    // completed with shed optional stages
  std::uint64_t recovered = 0;   // journal entries re-executed on startup
  std::uint64_t health = 0;      // health probes answered (never admitted)
  std::uint64_t stats_probes = 0;  // stats probes answered (never admitted)
  // Highest concurrent admitted-but-unfinished count ever observed (waiting
  // for a slot plus running) — how close admission came to queue_limit.
  std::uint64_t queue_high_water = 0;
  // Per-outcome breakdown of `errors` by taxonomy code.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t validation_errors = 0;
  std::uint64_t internal_errors = 0;
  CompiledStudyCache::Stats cache;
};

class AssessmentService {
 public:
  explicit AssessmentService(const ServiceOptions& options = {});
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

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }
  const Journal* journal() const { return journal_.get(); }
  // Completed request traces (bounded ring, oldest overwritten).
  const TraceRing& traces() const { return traces_; }

 private:
  struct Task {
    std::uint64_t seq = 0;
    std::string text;
    bool shed = false;  // admission decided to shed optional stages
    std::chrono::steady_clock::time_point admitted;
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
  Outcome run_assessment(const Task& task, const AssessmentRequest& request,
                         RequestTrace* trace) const;
  std::string health_response() const;
  std::string stats_response() const;
  // Ring-push, latency histograms and the slow-request stderr log for one
  // completed request.
  void finish_trace(RequestTrace& trace) const;
  void recover_journal();  // re-execute the uncommitted suffix (ctor only)

  const ServiceOptions options_;
  const kits::KitRegistry registry_;
  const core::FunctionalBom bom_;
  mutable CompiledStudyCache cache_;
  std::unique_ptr<Journal> journal_;  // null when journaling is off

  mutable std::mutex m_;
  std::condition_variable slot_cv_;     // an evaluation slot was released
  std::condition_variable drained_cv_;  // in_flight_ dropped to zero
  std::size_t in_flight_ = 0;  // admitted, not yet finished
  std::size_t running_ = 0;    // of those, holding one of the workers slots
  std::uint64_t next_seq_ = 0;
  bool draining_ = false;
  ServiceStats stats_;
  mutable TraceRing traces_;  // completed-trace ring (internally locked)
};

}  // namespace ipass::serve
