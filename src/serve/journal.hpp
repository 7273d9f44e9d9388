// Durable request journal for the assessment service: an append-only
// write-ahead log that makes process death survivable with byte-identical
// recovery.
//
// On-disk format (all integers big-endian):
//
//   +--------------------------------------------------------------+
//   | magic "IPASSJ02" (8 bytes)                                   |
//   +--------------------------------------------------------------+
//   | u32 len | u8 type | u64 seq | body (len - 9 bytes) | u32 crc |  x N
//   +--------------------------------------------------------------+
//
// `len` covers type + seq + body; `crc` is CRC-32C over that same region.
// Two record types: Admit (type 1, body = the request text, written at
// admission BEFORE the request is processed) and Commit (type 2, written
// once the response is ready, before it is handed to the transport).  A
// Commit body is the response's 8-byte digest: its CRC-32C, then its
// length in bytes, both u32.  Recovery never needs the response itself — it
// is a pure function of (request text, admission seq, service options) —
// so the digest is all a commit has to vouch for.  The older "IPASSJ01"
// format, whose commits carried the full response, is refused by name.
//
// Recovery policy — every possible file state is either recovered or
// rejected, never silently misread:
//   * A torn tail (file ends mid-record, a zero/over-cap length field, or
//     a CRC mismatch) is the signature of a crash mid-append: the tail is
//     truncated and the valid prefix recovered.  Nothing after the first
//     corrupt byte is trusted — record boundaries downstream of corruption
//     cannot be re-synchronized reliably.
//   * A structurally valid record with impossible semantics (duplicate
//     admit/commit seq, commit without admission, a commit body that is not
//     8 bytes, unknown record type, bad magic) is NOT a torn write — it
//     means the file is foreign or the writer is buggy, and recovery
//     rejects it with a named-field error rather than guessing.
//
// The admitted-but-uncommitted suffix returned by recovery is what the
// AssessmentService re-executes on startup: because a response is a pure
// function of (request text, admission seq, service options), the
// regenerated responses are byte-identical to what the crashed process
// would have produced — the property the journal test suite pins.  The
// committed response stream is rebuilt the same way: every committed entry
// is re-executed and checked against its digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace ipass::serve {

inline constexpr char kJournalMagic[8] = {'I', 'P', 'A', 'S', 'S', 'J', '0', '2'};
// Generous over the 1 MiB frame cap: an in-process caller's request is not
// framed.  A length field above this is corruption.
inline constexpr std::size_t kMaxJournalRecordBytes = (8U << 20);

enum class JournalRecordType : unsigned char { Admit = 1, Commit = 2 };

// What a Commit record keeps of its response.
struct ResponseDigest {
  std::uint32_t crc = 0;    // CRC-32C of the response text
  std::uint32_t bytes = 0;  // its length
  bool operator==(const ResponseDigest& o) const {
    return crc == o.crc && bytes == o.bytes;
  }
  bool operator!=(const ResponseDigest& o) const { return !(*this == o); }
};

ResponseDigest response_digest(const std::string& response);

struct JournalEntry {
  std::uint64_t seq = 0;
  std::string request;
  ResponseDigest response;  // zero unless committed
  bool committed = false;
};

// One valid on-disk record, in file order (introspection for tests and the
// corpus suite; entries_ is the semantic view).
struct JournalRecordInfo {
  std::uint64_t offset = 0;  // byte offset of the length prefix
  JournalRecordType type = JournalRecordType::Admit;
  std::uint64_t seq = 0;
};

struct JournalRecovery {
  std::vector<JournalEntry> entries;          // admit order == seq ascending append order
  std::vector<JournalRecordInfo> records;     // every valid record, file order
  std::uint64_t next_seq = 0;                 // max admitted seq + 1 (0 when empty)
  std::uint64_t valid_bytes = 0;              // trusted file prefix
  std::uint64_t truncated_bytes = 0;          // torn/corrupt tail dropped
  std::uint64_t committed_count = 0;
  std::uint64_t uncommitted_count = 0;
};

// Scan a journal file without modifying it.  Torn/corrupt tails come back
// as truncation in the result; structural violations throw a
// PreconditionError naming the record and field.  A missing file is an
// empty journal.
JournalRecovery scan_journal(const std::string& path);

// Re-executes one admitted request: the response text a service with the
// journal writer's options gives `request` at admission seq `seq`
// (AssessmentService::reexecute).
using JournalExecutor =
    std::function<std::string(std::uint64_t seq, const std::string& request)>;

// The canonical recovered response stream: every committed request
// re-executed through `execute`, in admission-sequence order, one response
// line each.  Each response must match its commit digest; a mismatch throws
// a PreconditionError naming the seq.  This is what the CI kill-smoke
// compares byte-for-byte against an uninterrupted run.
std::string journal_response_stream(const std::string& path,
                                    const JournalExecutor& execute);

// Appended-record counters, resolved once from a registry
// (serve_journal_*_total).  The recovered prefix is NOT replayed into them:
// `truncated_bytes` counts torn-tail bytes dropped at open, the one
// recovery-time signal worth alerting on.
struct JournalMetrics {
  explicit JournalMetrics(metrics::MetricsRegistry& registry);
  metrics::Counter& admits;
  metrics::Counter& commits;
  metrics::Counter& bytes;
  metrics::Counter& fsyncs;
  metrics::Counter& truncated_bytes;
};

class Journal {
 public:
  struct Options {
    // fsync after every append (true durability against power loss).  Off,
    // records still reach the kernel page cache on every append — a
    // kill -9 loses nothing, only a machine crash can.
    bool sync = false;
  };

  // Opens (creating if absent) and recovers `path`: a torn tail is
  // physically truncated away, then the file is opened for appends.
  // Throws PreconditionError when recovery rejects the file.  Counts into
  // `registry`, which must outlive the journal.
  Journal(const std::string& path, metrics::MetricsRegistry& registry);
  Journal(const std::string& path, metrics::MetricsRegistry& registry,
          const Options& options);
  ~Journal();  // flush + close

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const JournalRecovery& recovered() const { return recovered_; }
  const std::string& path() const { return path_; }

  // Append one record; each append is a single unbuffered write so a crash
  // can only tear the last record, never interleave two.  Thread-safe.
  // A commit records response_digest(response), not the response.
  void append_admit(std::uint64_t seq, const std::string& request);
  void append_commit(std::uint64_t seq, const std::string& response);

  // fsync the file (drain/shutdown path; every append already flushed to
  // the kernel).
  void flush();

  // Counters include the recovered prefix, so lag() is the number of
  // admitted requests whose response is not yet durable.
  std::uint64_t admit_count() const;
  std::uint64_t commit_count() const;
  std::uint64_t lag() const;

 private:
  void append_record(JournalRecordType type, std::uint64_t seq, const char* body,
                     std::size_t body_size);

  const std::string path_;
  const Options options_;
  const JournalMetrics metrics_;
  JournalRecovery recovered_;
  std::FILE* file_ = nullptr;  // unbuffered, opened for append
  std::atomic<std::uint64_t> admits_{0};   // recovered + appended
  std::atomic<std::uint64_t> commits_{0};
};

}  // namespace ipass::serve
