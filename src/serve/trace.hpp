// Per-request stage tracing for the assessment service.
//
// Every admitted request gets one RequestTrace keyed by its admission
// sequence number — the same seq that keys the journal and the fault plan,
// so trace identity is deterministic even though the durations in it are
// wall-clock.  The trace records where the request spent its life (parse,
// queue wait, cache lookup/compile, evaluate, serialize, journal append)
// plus how the cache classified it (hit / miss / single-flight wait) and
// how it ended (ok / error code / degraded).
//
// Completed traces land in a bounded ring buffer (fixed capacity, oldest
// overwritten) and, when the total beats the service's slow-request
// threshold, are logged to stderr — never, under any configuration, into a
// response: timing flows into observability only, which is what keeps
// replay byte-identical with tracing enabled.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ipass::serve {

// How the study cache classified the request's lookup.
enum class CacheOutcome : unsigned char {
  None,  // the request failed before (or without) a cache lookup
  Hit,   // served from a ready entry
  Miss,  // this request ran the compile
  Wait,  // joined another request's in-flight compile
};

const char* cache_outcome_name(CacheOutcome outcome);

struct RequestTrace {
  std::uint64_t seq = 0;
  // Stage durations, wall-clock nanoseconds.  A stage the request never
  // reached stays 0.
  std::uint64_t parse_ns = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t cache_ns = 0;       // lookup + compile or single-flight wait
  std::uint64_t evaluate_ns = 0;    // pipeline evaluate + optional stages
  std::uint64_t serialize_ns = 0;
  std::uint64_t journal_append_ns = 0;  // commit record append
  std::uint64_t total_ns = 0;           // parse start to response settled
  CacheOutcome cache = CacheOutcome::None;
  bool ok = false;
  bool degraded = false;
  ErrorCode error = ErrorCode::Unspecified;  // meaningful when !ok
};

// One line for the slow-request log (stderr), naming every stage:
//   slow request seq=12 total=153.2ms parse=0.1ms queue=2.0ms cache=148.7ms
//   (miss) evaluate=2.1ms serialize=0.2ms journal=0.1ms outcome=ok
std::string trace_to_string(const RequestTrace& trace);

// Bounded ring of completed traces.  push() overwrites the oldest once the
// ring is full; snapshot() returns the retained traces oldest-first.
// Thread-safe; the lock is held only for a fixed-size copy, never across
// any request work.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void push(const RequestTrace& trace);
  std::vector<RequestTrace> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  // Total traces ever pushed (monotone; snapshot().size() saturates at
  // capacity while this keeps counting — the wraparound test's handle).
  std::uint64_t pushed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex m_;
  std::vector<RequestTrace> ring_;
  std::size_t next_ = 0;      // slot the next push overwrites
  std::uint64_t pushed_ = 0;
};

}  // namespace ipass::serve
