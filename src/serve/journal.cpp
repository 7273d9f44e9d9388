#include "serve/journal.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/strfmt.hpp"

#ifndef _WIN32
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace ipass::serve {

namespace {

std::uint32_t read_be32(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

std::uint64_t read_be64(const unsigned char* p) {
  return (static_cast<std::uint64_t>(read_be32(p)) << 32) | read_be32(p + 4);
}

void put_be32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v >> 24);
  out[1] = static_cast<unsigned char>(v >> 16);
  out[2] = static_cast<unsigned char>(v >> 8);
  out[3] = static_cast<unsigned char>(v);
}

void put_be64(unsigned char* out, std::uint64_t v) {
  put_be32(out, static_cast<std::uint32_t>(v >> 32));
  put_be32(out + 4, static_cast<std::uint32_t>(v));
}

[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw PreconditionError(strf("journal '%s': %s", path.c_str(), what.c_str()),
                          ErrorCode::Validation);
}

constexpr std::size_t kHeaderBytes = 4;            // length prefix
constexpr std::size_t kTrailerBytes = 4;           // crc
constexpr std::size_t kMinRecordLen = 1 + 8;       // type + seq
constexpr std::size_t kDigestBytes = 8;            // commit body: crc + length
constexpr char kJournalV1Magic[8] = {'I', 'P', 'A', 'S', 'S', 'J', '0', '1'};

}  // namespace

ResponseDigest response_digest(const std::string& response) {
  require(response.size() <= UINT32_MAX, "journal: response too large to digest");
  return {crc32c(response.data(), response.size()),
          static_cast<std::uint32_t>(response.size())};
}

JournalRecovery scan_journal(const std::string& path) {
  JournalRecovery out;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return out;  // absent file == fresh journal
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t size = data.size();

  if (size < sizeof(kJournalMagic)) {
    // A crash can tear even the magic of a freshly created journal; a
    // partial magic prefix is recovered as empty.  Anything else is not a
    // journal at all.
    if (std::memcmp(data.data(), kJournalMagic, size) != 0) {
      throw PreconditionError(
          strf("journal '%s': bad magic (not an ipass journal)", path.c_str()),
          ErrorCode::Parse);
    }
    out.truncated_bytes = size;
    return out;
  }
  if (std::memcmp(data.data(), kJournalV1Magic, sizeof(kJournalV1Magic)) == 0) {
    throw PreconditionError(
        strf("journal '%s': format IPASSJ01 is not supported (this build reads "
             "IPASSJ02, whose commits carry a response digest); move the old "
             "journal aside and start a fresh one",
             path.c_str()),
        ErrorCode::Parse);
  }
  if (std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw PreconditionError(
        strf("journal '%s': bad magic (not an ipass journal)", path.c_str()),
        ErrorCode::Parse);
  }

  std::unordered_map<std::uint64_t, std::size_t> index;  // seq -> entries slot
  std::size_t offset = sizeof(kJournalMagic);
  std::size_t record = 0;
  for (;;) {
    if (size - offset < kHeaderBytes) break;  // torn tail (or clean end)
    const std::uint32_t len = read_be32(bytes + offset);
    // A zero or absurd length is the signature of a torn/corrupt append —
    // nothing after it can be trusted, so the tail is truncated here.
    if (len == 0 || len > kMaxJournalRecordBytes) break;
    if (size - offset < kHeaderBytes + len + kTrailerBytes) break;  // torn tail
    const unsigned char* body = bytes + offset + kHeaderBytes;
    const std::uint32_t stored_crc = read_be32(body + len);
    if (crc32c(body, len) != stored_crc) break;  // corrupt record: truncate

    // From here the record is bit-trustworthy; violations are structural.
    const unsigned char type = body[0];
    if (type != static_cast<unsigned char>(JournalRecordType::Admit) &&
        type != static_cast<unsigned char>(JournalRecordType::Commit)) {
      reject(path, strf("record %zu at offset %zu: unknown record type %u",
                        record, offset, static_cast<unsigned>(type)));
    }
    if (len < kMinRecordLen) {
      reject(path, strf("record %zu at offset %zu: length %u too short for its "
                        "sequence number",
                        record, offset, len));
    }
    const std::uint64_t seq = read_be64(body + 1);
    const unsigned char* text = body + kMinRecordLen;
    const std::size_t text_size = len - kMinRecordLen;
    if (type == static_cast<unsigned char>(JournalRecordType::Admit)) {
      if (index.count(seq) != 0) {
        reject(path, strf("record %zu at offset %zu: duplicate admit for seq %llu",
                          record, offset,
                          static_cast<unsigned long long>(seq)));
      }
      index.emplace(seq, out.entries.size());
      JournalEntry entry;
      entry.seq = seq;
      entry.request.assign(reinterpret_cast<const char*>(text), text_size);
      out.entries.push_back(std::move(entry));
      out.next_seq = std::max(out.next_seq, seq + 1);
    } else {
      if (text_size != kDigestBytes) {
        reject(path, strf("record %zu at offset %zu: commit body of %zu bytes for "
                          "seq %llu, expected an %zu-byte response digest",
                          record, offset, text_size,
                          static_cast<unsigned long long>(seq), kDigestBytes));
      }
      const auto it = index.find(seq);
      if (it == index.end()) {
        reject(path,
               strf("record %zu at offset %zu: commit without admission for seq %llu",
                    record, offset, static_cast<unsigned long long>(seq)));
      }
      JournalEntry& entry = out.entries[it->second];
      if (entry.committed) {
        reject(path,
               strf("record %zu at offset %zu: duplicate commit for seq %llu",
                    record, offset, static_cast<unsigned long long>(seq)));
      }
      entry.committed = true;
      entry.response = {read_be32(text), read_be32(text + 4)};
    }
    out.records.push_back({offset, static_cast<JournalRecordType>(type), seq});
    offset += kHeaderBytes + len + kTrailerBytes;
    ++record;
  }
  out.valid_bytes = offset;
  out.truncated_bytes = size - offset;
  for (const JournalEntry& e : out.entries) {
    if (e.committed) {
      ++out.committed_count;
    } else {
      ++out.uncommitted_count;
    }
  }
  return out;
}

std::string journal_response_stream(const std::string& path,
                                    const JournalExecutor& execute) {
  JournalRecovery rec = scan_journal(path);
  std::sort(rec.entries.begin(), rec.entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) { return a.seq < b.seq; });
  std::string out;
  for (const JournalEntry& e : rec.entries) {
    if (!e.committed) continue;
    const std::string response = execute(e.seq, e.request);
    const ResponseDigest got = response_digest(response);
    if (got != e.response) {
      reject(path, strf("seq %llu: re-executed response (crc32c %08x, %u bytes) does "
                        "not match its commit digest (crc32c %08x, %u bytes)",
                        static_cast<unsigned long long>(e.seq), got.crc, got.bytes,
                        e.response.crc, e.response.bytes));
    }
    out += response;
    out += '\n';
  }
  return out;
}

JournalMetrics::JournalMetrics(metrics::MetricsRegistry& registry)
    : admits(registry.counter("serve_journal_admits_total")),
      commits(registry.counter("serve_journal_commits_total")),
      bytes(registry.counter("serve_journal_appended_bytes_total")),
      fsyncs(registry.counter("serve_journal_fsyncs_total")),
      truncated_bytes(registry.counter("serve_journal_truncated_bytes_total")) {}

Journal::Journal(const std::string& path, metrics::MetricsRegistry& registry)
    : Journal(path, registry, Options()) {}

Journal::Journal(const std::string& path, metrics::MetricsRegistry& registry,
                 const Options& options)
    : path_(path),
      options_(options),
      metrics_(registry),
      recovered_(scan_journal(path)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (recovered_.truncated_bytes > 0) {
    fs::resize_file(path_, recovered_.valid_bytes, ec);
    require(!ec, strf("journal '%s': cannot truncate torn tail: %s", path_.c_str(),
                      ec.message().c_str()));
    metrics_.truncated_bytes.add(recovered_.truncated_bytes);
  }
  const bool fresh = !fs::exists(path_, ec) || fs::file_size(path_, ec) == 0;
  file_ = std::fopen(path_.c_str(), "ab");
  require(file_ != nullptr,
          strf("journal '%s': cannot open for append", path_.c_str()));
  // Unbuffered: every append goes straight to the kernel, so a kill -9 can
  // tear at most the record being written (which recovery truncates).
  std::setvbuf(file_, nullptr, _IONBF, 0);
  if (fresh) {
    require(std::fwrite(kJournalMagic, 1, sizeof(kJournalMagic), file_) ==
                sizeof(kJournalMagic),
            strf("journal '%s': cannot write magic", path_.c_str()));
  }
  admits_ = recovered_.entries.size();
  commits_ = recovered_.committed_count;
}

Journal::~Journal() {
  if (file_ != nullptr) {
    flush();
    std::fclose(file_);
  }
}

void Journal::append_record(JournalRecordType type, std::uint64_t seq,
                            const char* body, std::size_t body_size) {
  const std::size_t len = kMinRecordLen + body_size;
  require(len <= kMaxJournalRecordBytes,
          strf("journal '%s': record of %zu bytes exceeds the %zu-byte cap",
               path_.c_str(), len, kMaxJournalRecordBytes));
  unsigned char head[kHeaderBytes + kMinRecordLen];
  put_be32(head, static_cast<std::uint32_t>(len));
  head[kHeaderBytes] = static_cast<unsigned char>(type);
  put_be64(head + kHeaderBytes + 1, seq);
  unsigned char tail[kTrailerBytes];
  put_be32(tail, crc32c_extend(crc32c(head + kHeaderBytes, kMinRecordLen), body,
                               body_size));
  const std::size_t size = sizeof(head) + body_size + sizeof(tail);
  // One write per record and no lock of our own: an O_APPEND write to a
  // regular file lands whole, so concurrent appends never interleave and a
  // kill -9 can tear only a record in flight.
#ifndef _WIN32
  iovec iov[3] = {{head, sizeof(head)},
                  {const_cast<char*>(body), body_size},
                  {tail, sizeof(tail)}};
  const bool written = ::writev(::fileno(file_), iov, 3) == static_cast<ssize_t>(size);
#else
  std::string record(reinterpret_cast<const char*>(head), sizeof(head));
  record.append(body, body_size);
  record.append(reinterpret_cast<const char*>(tail), sizeof(tail));
  const bool written = std::fwrite(record.data(), 1, size, file_) == size;
#endif
  require(written, strf("journal '%s': append failed (disk full?)", path_.c_str()));
#ifndef _WIN32
  if (options_.sync) {
    ::fsync(::fileno(file_));
    metrics_.fsyncs.add();
  }
#endif
  metrics_.bytes.add(size);
  if (type == JournalRecordType::Admit) {
    admits_.fetch_add(1);
    metrics_.admits.add();
  } else {
    commits_.fetch_add(1);
    metrics_.commits.add();
  }
}

void Journal::append_admit(std::uint64_t seq, const std::string& request) {
  append_record(JournalRecordType::Admit, seq, request.data(), request.size());
}

void Journal::append_commit(std::uint64_t seq, const std::string& response) {
  const ResponseDigest digest = response_digest(response);
  unsigned char body[kDigestBytes];
  put_be32(body, digest.crc);
  put_be32(body + 4, digest.bytes);
  append_record(JournalRecordType::Commit, seq, reinterpret_cast<const char*>(body),
                sizeof(body));
}

void Journal::flush() {
  std::fflush(file_);
#ifndef _WIN32
  ::fsync(::fileno(file_));
  metrics_.fsyncs.add();
#endif
}

std::uint64_t Journal::admit_count() const {
  return admits_.load();
}

std::uint64_t Journal::commit_count() const {
  return commits_.load();
}

std::uint64_t Journal::lag() const {
  // Commits load first: a commit never precedes its admit, so the
  // difference cannot wrap.
  const std::uint64_t commits = commit_count();
  return admit_count() - commits;
}

}  // namespace ipass::serve
