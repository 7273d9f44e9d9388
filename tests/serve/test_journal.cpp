// The crash-recovery contract, pinned end to end: a journaled service
// killed at ANY byte of its journal recovers to a state whose committed
// response stream — after resuming the interrupted request log — is
// byte-identical to a run that was never interrupted.
#include "serve/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/replay.hpp"
#include "serve/service.hpp"

namespace ipass::serve {
namespace {

std::vector<std::string> committed_requests() {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
}

// Rebuilds committed responses the way ipass_replay --journal does.
JournalExecutor reexecutor(const AssessmentService& service) {
  return [&service](std::uint64_t seq, const std::string& request) {
    return service.reexecute(seq, request);
  };
}

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "ipass_journal_" + name + ".wal";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(Journal, AppendScanRoundtrip) {
  const std::string path = tmp_path("roundtrip");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    journal.append_admit(0, "request zero");
    journal.append_admit(1, "request one");
    journal.append_commit(0, "response zero");
    journal.append_commit(1, "response one");
    journal.append_admit(2, "request two");  // admitted, never committed
    EXPECT_EQ(journal.admit_count(), 3U);
    EXPECT_EQ(journal.commit_count(), 2U);
    EXPECT_EQ(journal.lag(), 1U);
  }
  const JournalRecovery rec = scan_journal(path);
  ASSERT_EQ(rec.entries.size(), 3U);
  EXPECT_EQ(rec.records.size(), 5U);
  EXPECT_EQ(rec.next_seq, 3U);
  EXPECT_EQ(rec.committed_count, 2U);
  EXPECT_EQ(rec.uncommitted_count, 1U);
  EXPECT_EQ(rec.truncated_bytes, 0U);
  EXPECT_EQ(rec.entries[0].request, "request zero");
  EXPECT_EQ(rec.entries[0].response, response_digest("response zero"));
  EXPECT_EQ(rec.entries[0].response.bytes, 13U);
  EXPECT_TRUE(rec.entries[0].committed);
  EXPECT_EQ(rec.entries[2].request, "request two");
  EXPECT_FALSE(rec.entries[2].committed);
  // A commit is 25 bytes whatever its response: the 8-byte digest plus the
  // record's length, type, seq and CRC.
  EXPECT_EQ(rec.records[3].offset - rec.records[2].offset, 25U);
  const std::vector<std::string> responses = {"response zero", "response one"};
  std::vector<std::uint64_t> executed;
  EXPECT_EQ(journal_response_stream(path,
                                    [&](std::uint64_t seq, const std::string& request) {
                                      executed.push_back(seq);
                                      EXPECT_EQ(request, seq == 0 ? "request zero"
                                                                  : "request one");
                                      return responses.at(seq);
                                    }),
            "response zero\nresponse one\n");
  // Only committed entries are re-executed, in seq order.
  EXPECT_EQ(executed, (std::vector<std::uint64_t>{0, 1}));
  std::remove(path.c_str());
}

// A re-executed response that does not match its commit digest is refused
// by seq, whether its bytes or only its length differ.
TEST(Journal, DigestMismatchNamesTheSeq) {
  const std::string path = tmp_path("mismatch");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    for (std::uint64_t s = 0; s < 3; ++s) {
      journal.append_admit(s, "request " + std::to_string(s));
      journal.append_commit(s, "response " + std::to_string(s));
    }
  }
  const auto stream_with = [&](std::uint64_t bad_seq, const std::string& bad) {
    return journal_response_stream(path, [&](std::uint64_t seq, const std::string&) {
      return seq == bad_seq ? bad : "response " + std::to_string(seq);
    });
  };
  EXPECT_EQ(stream_with(99, ""), "response 0\nresponse 1\nresponse 2\n");
  for (const std::string& bad : {std::string("response X"), std::string("response 11")}) {
    try {
      stream_with(1, bad);
      ADD_FAILURE() << "a mismatched digest was accepted: " << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("seq 1:"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("does not match its commit digest"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsEmpty) {
  const JournalRecovery rec = scan_journal(tmp_path("never_created_nope"));
  EXPECT_TRUE(rec.entries.empty());
  EXPECT_EQ(rec.next_seq, 0U);
}

TEST(Journal, CountersResumeAcrossReopen) {
  const std::string path = tmp_path("reopen");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    journal.append_admit(0, "a");
    journal.append_commit(0, "b");
  }
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    EXPECT_EQ(journal.admit_count(), 1U);
    EXPECT_EQ(journal.commit_count(), 1U);
    journal.append_admit(1, "c");
    EXPECT_EQ(journal.lag(), 1U);
  }
  EXPECT_EQ(scan_journal(path).entries.size(), 2U);
  std::remove(path.c_str());
}

// A crash can cut the file at any byte.  Around every record boundary, a
// cut must (a) never throw, (b) recover exactly the records whose bytes
// fully survived, and (c) leave the file re-appendable after Journal's
// physical truncation.
TEST(Journal, TornTailAtAnyCutRecoversThePrefix) {
  const std::string path = tmp_path("torn_src");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    for (std::uint64_t s = 0; s < 6; ++s) {
      journal.append_admit(s, "request payload number " + std::to_string(s));
      journal.append_commit(s, "response payload number " + std::to_string(s));
    }
  }
  const std::string bytes = read_file(path);
  const JournalRecovery full = scan_journal(path);
  ASSERT_EQ(full.records.size(), 12U);

  std::vector<std::size_t> cuts;
  for (const JournalRecordInfo& r : full.records) {
    // Just before the record, inside its length field, inside its body,
    // and one byte short of completing it.
    cuts.push_back(r.offset);
    cuts.push_back(r.offset + 2);
    cuts.push_back(r.offset + 10);
  }
  for (std::size_t i = 1; i < full.records.size(); ++i) {
    cuts.push_back(full.records[i].offset - 1);
  }
  cuts.push_back(bytes.size() - 1);
  for (std::size_t r = 0; r < sizeof(kJournalMagic); ++r) cuts.push_back(r);

  const std::string cut_path = tmp_path("torn_cut");
  for (const std::size_t cut : cuts) {
    ASSERT_LE(cut, bytes.size());
    write_file(cut_path, bytes.substr(0, cut));
    const JournalRecovery rec = scan_journal(cut_path);
    // Exactly the records fully inside the prefix survive.
    std::size_t expect = 0;
    for (const JournalRecordInfo& r : full.records) {
      const std::size_t end = (&r == &full.records.back())
                                  ? bytes.size()
                                  : (&r)[1].offset;
      if (end <= cut) ++expect;
    }
    EXPECT_EQ(rec.records.size(), expect) << "cut at " << cut;
    EXPECT_EQ(rec.valid_bytes + rec.truncated_bytes, cut) << "cut at " << cut;

    // Reopening truncates the torn tail and appends cleanly after it.
    {
      metrics::MetricsRegistry registry;
      Journal journal(cut_path, registry);
      journal.append_admit(100, "post-crash request");
    }
    const JournalRecovery again = scan_journal(cut_path);
    EXPECT_EQ(again.records.size(), expect + 1) << "cut at " << cut;
    EXPECT_EQ(again.truncated_bytes, 0U) << "cut at " << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// The tentpole pin: for a journaled service killed at any record boundary
// (and a sample of mid-record cuts), restart + resume reproduces the
// uninterrupted committed response stream byte for byte.
TEST(Journal, KillAtAnyRecordBoundaryRecoversByteIdentical) {
  const std::vector<std::string> requests = committed_requests();
  ASSERT_GE(requests.size(), 8U);
  const AssessmentService executor;

  // Reference: one uninterrupted journaled run over the whole log.
  const std::string ref_path = tmp_path("ref");
  std::remove(ref_path.c_str());
  {
    ServiceOptions options;
    options.journal_path = ref_path;
    AssessmentService service(options);
    for (const std::string& request : requests) service.handle(request);
  }
  const std::string reference_stream =
      journal_response_stream(ref_path, reexecutor(executor));
  const std::string reference_bytes = read_file(ref_path);
  const JournalRecovery reference = scan_journal(ref_path);
  ASSERT_EQ(reference.entries.size(), requests.size());
  ASSERT_EQ(reference.uncommitted_count, 0U);
  ASSERT_FALSE(reference_stream.empty());

  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    cuts.push_back(reference.records[i].offset);
    if (i % 4 == 1) cuts.push_back(reference.records[i].offset + 7);  // mid-record
  }
  cuts.push_back(reference_bytes.size());

  const std::string crash_path = tmp_path("crash");
  for (const std::size_t cut : cuts) {
    write_file(crash_path, reference_bytes.substr(0, cut));
    std::size_t resume_from = 0;
    {
      // Restart: the constructor truncates the torn tail and re-executes
      // every admitted-but-uncommitted request.
      ServiceOptions options;
      options.journal_path = crash_path;
      AssessmentService service(options);
      const Journal* journal = service.journal();
      ASSERT_NE(journal, nullptr);
      EXPECT_EQ(journal->lag(), 0U) << "cut at " << cut;
      // A sequential client admits log lines in order, so the admit count
      // is the resume point (exactly what ipass_replay --journal does).
      resume_from = journal->recovered().entries.size();
      ASSERT_LE(resume_from, requests.size()) << "cut at " << cut;
      const std::uint64_t recovered = service.metrics().recovered.value();
      for (std::size_t i = resume_from; i < requests.size(); ++i) {
        service.handle(requests[i]);
      }
      EXPECT_EQ(service.metrics().recovered.value(), recovered) << "cut at " << cut;
    }
    EXPECT_EQ(journal_response_stream(crash_path, reexecutor(executor)),
              reference_stream)
        << "cut at " << cut << " (resumed from line " << resume_from << ")";
  }
  std::remove(ref_path.c_str());
  std::remove(crash_path.c_str());
}

// Startup recovery alone (no resume) must regenerate the missing commits
// byte-identically and count them in metrics().recovered.
TEST(Journal, ServiceReExecutesUncommittedSuffixOnBoot) {
  const std::vector<std::string> requests = committed_requests();
  const AssessmentService executor;
  const std::string ref_path = tmp_path("reexec_ref");
  const std::string cut_path = tmp_path("reexec_cut");
  std::remove(ref_path.c_str());
  {
    ServiceOptions options;
    options.journal_path = ref_path;
    AssessmentService service(options);
    for (std::size_t i = 0; i < 4; ++i) service.handle(requests[i]);
  }
  const std::string reference_stream =
      journal_response_stream(ref_path, reexecutor(executor));
  const JournalRecovery reference = scan_journal(ref_path);

  // Drop two commit records — one spliced out of the middle (its admit's
  // commit simply never made it to disk; later records are intact), one
  // truncated off the tail — so TWO admitted requests lost their
  // responses, one of them mid-file.
  const std::string bytes = read_file(ref_path);
  std::vector<std::size_t> commit_indices;
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    if (reference.records[i].type == JournalRecordType::Commit) {
      commit_indices.push_back(i);
    }
  }
  ASSERT_GE(commit_indices.size(), 2U);
  const std::size_t mid = commit_indices[commit_indices.size() - 2];
  const std::size_t last = commit_indices.back();
  write_file(cut_path,
             bytes.substr(0, reference.records[mid].offset) +
                 bytes.substr(reference.records[mid + 1].offset,
                              reference.records[last].offset -
                                  reference.records[mid + 1].offset));
  ASSERT_EQ(scan_journal(cut_path).uncommitted_count, 2U);

  {
    ServiceOptions options;
    options.journal_path = cut_path;
    AssessmentService service(options);
    EXPECT_GE(service.metrics().recovered.value(), 1U);
    EXPECT_EQ(service.metrics().completed.value(),
              service.metrics().recovered.value());
    EXPECT_EQ(service.journal()->lag(), 0U);
  }
  EXPECT_EQ(journal_response_stream(cut_path, reexecutor(executor)), reference_stream);
  std::remove(ref_path.c_str());
  std::remove(cut_path.c_str());
}

// Health probes answer without consuming a sequence number or touching the
// journal: probing must never perturb the recovery stream.
TEST(Journal, HealthProbesAreNeverJournaled) {
  const std::vector<std::string> requests = committed_requests();
  const std::string path = tmp_path("health");
  std::remove(path.c_str());
  {
    ServiceOptions options;
    options.journal_path = path;
    AssessmentService service(options);
    service.handle("{\"kind\": \"health\"}");
    service.handle(requests[0]);
    service.handle("{\"kind\": \"health\"}");
    service.handle(requests[1]);
    const ServiceMetrics& stats = service.metrics();
    EXPECT_EQ(stats.health.value(), 2U);
    EXPECT_EQ(stats.admitted.value(), 2U);
    EXPECT_EQ(service.journal()->admit_count(), 2U);
  }
  const JournalRecovery rec = scan_journal(path);
  ASSERT_EQ(rec.entries.size(), 2U);
  EXPECT_EQ(rec.entries[0].seq, 0U);
  EXPECT_EQ(rec.entries[1].seq, 1U);
  EXPECT_EQ(rec.entries[0].request, requests[0]);
  std::remove(path.c_str());
}

TEST(Journal, OverCapRecordIsRefusedAtAppend) {
  const std::string path = tmp_path("overcap");
  std::remove(path.c_str());
  metrics::MetricsRegistry registry;
  Journal journal(path, registry);
  EXPECT_THROW(journal.append_admit(0, std::string(kMaxJournalRecordBytes, 'x')),
               PreconditionError);
  journal.append_admit(0, "still works");
  EXPECT_EQ(journal.admit_count(), 1U);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipass::serve
