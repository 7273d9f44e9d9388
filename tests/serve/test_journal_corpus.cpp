// Corpus of crafted corrupt journals (tests/serve/journal_corpus/, written
// by tools/gen_journal_corpus.py): every file is either recovered with the
// torn/corrupt tail truncated, or rejected with an error naming the record
// and violation.  Recovery must never guess — a file that cannot be
// classified one way or the other is a recovery-policy bug.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "serve/journal.hpp"

namespace ipass::serve {
namespace {

std::string corpus_path(const char* name) {
  return std::string(IPASS_SERVE_LOG_DIR) + "/journal_corpus/" + name;
}

// CTest names each case "<name>  # GetParam() = <the param as printed>".
// Each case struct has a PrintTo: without one, gtest prints the raw bytes,
// including the address of the path literal, which moves on every build.
// The printed form has no spaces, so a name cut at any length ends the same.

// Recovered corpus: scan succeeds; the valid prefix and the truncation are
// exactly as crafted.
struct RecoveredCase {
  std::size_t records;          // valid records surviving
  std::uint64_t committed;
  std::uint64_t uncommitted;
  bool truncation;              // torn/corrupt tail present
  const char* file;
};

void PrintTo(const RecoveredCase& c, std::ostream* os) {
  *os << c.file << "{records=" << c.records << ",committed=" << c.committed
      << ",uncommitted=" << c.uncommitted << ",truncation=" << (c.truncation ? "yes" : "no")
      << "}";
}

class JournalCorpusRecovered : public ::testing::TestWithParam<RecoveredCase> {};

TEST_P(JournalCorpusRecovered, RecoversTheValidPrefix) {
  const RecoveredCase& c = GetParam();
  const JournalRecovery rec = scan_journal(corpus_path(c.file));
  EXPECT_EQ(rec.records.size(), c.records) << c.file;
  EXPECT_EQ(rec.committed_count, c.committed) << c.file;
  EXPECT_EQ(rec.uncommitted_count, c.uncommitted) << c.file;
  EXPECT_EQ(rec.truncated_bytes > 0, c.truncation) << c.file;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, JournalCorpusRecovered,
    ::testing::Values(RecoveredCase{0, 0, 0, false, "empty.wal"},
                      RecoveredCase{0, 0, 0, true, "short_magic.wal"},
                      RecoveredCase{2, 1, 0, true, "torn_tail_mid_record.wal"},
                      RecoveredCase{2, 1, 0, true, "bad_crc.wal"},
                      RecoveredCase{2, 1, 0, true, "zero_length_record.wal"},
                      RecoveredCase{2, 1, 0, true, "over_cap_record.wal"}),
    [](const ::testing::TestParamInfo<RecoveredCase>& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

// Rejected corpus: scan throws a PreconditionError whose message names the
// violation (and the offending record), never a misread or a silent accept.
struct RejectedCase {
  ErrorCode code;
  const char* file;
  const char* needle;  // must appear in the error message
};

void PrintTo(const RejectedCase& c, std::ostream* os) {
  *os << c.file << "{code=" << error_code_name(c.code) << "}";
}

class JournalCorpusRejected : public ::testing::TestWithParam<RejectedCase> {};

TEST_P(JournalCorpusRejected, RejectsWithNamedViolation) {
  const RejectedCase& c = GetParam();
  try {
    scan_journal(corpus_path(c.file));
    FAIL() << c.file << ": expected a PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), c.code) << c.file;
    EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
        << c.file << ": message '" << e.what() << "' lacks '" << c.needle << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, JournalCorpusRejected,
    ::testing::Values(
        RejectedCase{ErrorCode::Parse, "bad_magic.wal", "bad magic"},
        RejectedCase{ErrorCode::Validation, "duplicate_admit.wal",
                     "duplicate admit for seq 0"},
        RejectedCase{ErrorCode::Validation, "duplicate_commit.wal",
                     "duplicate commit for seq 0"},
        RejectedCase{ErrorCode::Validation, "commit_without_admit.wal",
                     "commit without admission for seq 7"},
        RejectedCase{ErrorCode::Validation, "bad_record_type.wal",
                     "unknown record type 9"},
        RejectedCase{ErrorCode::Validation, "short_seq_record.wal", "too short"},
        RejectedCase{ErrorCode::Parse, "j01_magic.wal",
                     "format IPASSJ01 is not supported"},
        RejectedCase{ErrorCode::Validation, "commit_body_not_8_bytes.wal",
                     "expected an 8-byte response digest"}),
    [](const ::testing::TestParamInfo<RejectedCase>& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

// A rejected journal must also refuse to OPEN — the service may not start
// on top of a file recovery cannot vouch for.
TEST(JournalCorpus, RejectedFilesRefuseToOpen) {
  // Copy first: the Journal constructor truncates torn tails in place, and
  // the corpus is a committed fixture.
  const std::string src = corpus_path("duplicate_commit.wal");
  const std::string dst = ::testing::TempDir() + "ipass_corpus_copy.wal";
  {
    std::ifstream in(src, std::ios::binary);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  metrics::MetricsRegistry registry;
  EXPECT_THROW(Journal journal(dst, registry), PreconditionError);
  std::remove(dst.c_str());
}

}  // namespace
}  // namespace ipass::serve
