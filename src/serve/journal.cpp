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

void put_be32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v));
}

void put_be64(std::string& out, std::uint64_t v) {
  put_be32(out, static_cast<std::uint32_t>(v >> 32));
  put_be32(out, static_cast<std::uint32_t>(v));
}

[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw PreconditionError(strf("journal '%s': %s", path.c_str(), what.c_str()),
                          ErrorCode::Validation);
}

constexpr std::size_t kHeaderBytes = 4;            // length prefix
constexpr std::size_t kTrailerBytes = 4;           // crc
constexpr std::size_t kMinRecordLen = 1 + 8;       // type + seq

}  // namespace

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
    std::string text(reinterpret_cast<const char*>(body + kMinRecordLen),
                     len - kMinRecordLen);
    if (type == static_cast<unsigned char>(JournalRecordType::Admit)) {
      if (index.count(seq) != 0) {
        reject(path, strf("record %zu at offset %zu: duplicate admit for seq %llu",
                          record, offset,
                          static_cast<unsigned long long>(seq)));
      }
      index.emplace(seq, out.entries.size());
      JournalEntry entry;
      entry.seq = seq;
      entry.request = std::move(text);
      out.entries.push_back(std::move(entry));
      out.next_seq = std::max(out.next_seq, seq + 1);
    } else {
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
      entry.response = std::move(text);
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

std::string journal_response_stream(const std::string& path) {
  JournalRecovery rec = scan_journal(path);
  std::sort(rec.entries.begin(), rec.entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) { return a.seq < b.seq; });
  std::string out;
  for (const JournalEntry& e : rec.entries) {
    if (!e.committed) continue;
    out += e.response;
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
                            const std::string& body) {
  const std::size_t len = kMinRecordLen + body.size();
  require(len <= kMaxJournalRecordBytes,
          strf("journal '%s': record of %zu bytes exceeds the %zu-byte cap",
               path_.c_str(), len, kMaxJournalRecordBytes));
  std::string record;
  record.reserve(kHeaderBytes + len + kTrailerBytes);
  put_be32(record, static_cast<std::uint32_t>(len));
  record.push_back(static_cast<char>(type));
  put_be64(record, seq);
  record += body;
  put_be32(record, crc32c(record.data() + kHeaderBytes, len));

  std::lock_guard<std::mutex> lk(m_);
  require(std::fwrite(record.data(), 1, record.size(), file_) == record.size(),
          strf("journal '%s': append failed (disk full?)", path_.c_str()));
#ifndef _WIN32
  if (options_.sync) {
    ::fsync(::fileno(file_));
    metrics_.fsyncs.add();
  }
#endif
  metrics_.bytes.add(record.size());
  if (type == JournalRecordType::Admit) {
    ++admits_;
    metrics_.admits.add();
  } else {
    ++commits_;
    metrics_.commits.add();
  }
}

void Journal::append_admit(std::uint64_t seq, const std::string& request) {
  append_record(JournalRecordType::Admit, seq, request);
}

void Journal::append_commit(std::uint64_t seq, const std::string& response) {
  append_record(JournalRecordType::Commit, seq, response);
}

void Journal::flush() {
  std::lock_guard<std::mutex> lk(m_);
  std::fflush(file_);
#ifndef _WIN32
  ::fsync(::fileno(file_));
  metrics_.fsyncs.add();
#endif
}

std::uint64_t Journal::admit_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return admits_;
}

std::uint64_t Journal::commit_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return commits_;
}

std::uint64_t Journal::lag() const {
  std::lock_guard<std::mutex> lk(m_);
  return admits_ - commits_;
}

}  // namespace ipass::serve
