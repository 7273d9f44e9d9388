// Replay determinism: the committed request log must produce byte-identical
// response streams for any worker count, any engine thread count, warm or
// cold cache, in-process or over the socket front-end — the property the CI
// smoke re-checks on every push with real processes.
#include "serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/socket.hpp"

namespace ipass::serve {
namespace {

std::vector<std::string> committed_log() {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
}

TEST(Replay, CommittedLogIsByteIdenticalAcrossWorkerAndThreadCounts) {
  const std::vector<std::string> requests = committed_log();
  ASSERT_GE(requests.size(), 10U);

  ServiceOptions serial;
  AssessmentService service_1(serial);
  const std::string stream_1 = response_stream(replay(service_1, requests));

  ServiceOptions wide;
  wide.workers = 8;
  wide.eval_threads = 4;
  wide.cache_capacity = 2;  // force recompiles mid-log
  AssessmentService service_8(wide);
  const std::string stream_8 = response_stream(replay(service_8, requests));

  EXPECT_EQ(stream_1, stream_8);

  // A warm second pass over the same service: all cache hits, same bytes.
  const std::string stream_warm = response_stream(replay(service_8, requests));
  EXPECT_EQ(stream_1, stream_warm);
}

TEST(Replay, FaultPlanInjectsIdenticallyForAnyWorkerCount) {
  const std::vector<std::string> requests = committed_log();
  FaultPlan faults;
  faults.seed = 20260807;
  faults.parse_rate = 0.25;
  faults.worker_throw_rate = 0.25;
  faults.stall_rate = 0.25;
  faults.stall_ms = 1;
  faults.deadline_rate = 0.2;
  faults.evict_rate = 0.5;

  std::vector<std::string> streams;
  for (const unsigned workers : {1U, 4U}) {
    ServiceOptions options;
    options.workers = workers;
    options.faults = faults;
    AssessmentService service(options);
    streams.push_back(response_stream(replay(service, requests)));
  }
  EXPECT_EQ(streams[0], streams[1]);
  // The plan actually fired: some response must carry an injected fault.
  EXPECT_NE(streams[0].find("injected"), std::string::npos);
}

TEST(Replay, WindowThrottlingKeepsAdmissionBelowTheLimit) {
  const std::vector<std::string> requests = committed_log();
  ServiceOptions tiny;
  tiny.workers = 2;
  tiny.queue_limit = 2;  // smaller than the log
  AssessmentService service(tiny);
  const std::vector<std::string> responses = replay(service, requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (const std::string& r : responses) {
    EXPECT_EQ(r.find("\"code\": \"overload\""), std::string::npos) << r;
  }
  EXPECT_EQ(service.metrics().overloaded.value(), 0U);
}

TEST(Replay, SocketFrontEndReturnsTheSameBytes) {
  const std::vector<std::string> requests = committed_log();

  ServiceOptions options;
  options.workers = 2;
  AssessmentService reference_service(options);
  const std::vector<std::string> expected = replay(reference_service, requests);

  ServerOptions server_options;
  server_options.service = options;
  SocketServer server(server_options);
  std::thread accept_thread([&] { server.run(); });

  {
    SocketClient client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(client.roundtrip(requests[i]), expected[i]) << requests[i];
    }
  }
  server.stop();
  accept_thread.join();
}

TEST(Replay, OversizedFrameGetsStructuredParseErrorNotAHangup) {
  SocketServer server(ServerOptions{});
  std::thread accept_thread([&] { server.run(); });
  {
    SocketClient client("127.0.0.1", server.port());
    // A client-side oversized send is refused locally...
    EXPECT_THROW(client.roundtrip(std::string(kMaxFrameBytes + 1, 'x')),
                 PreconditionError);
  }
  {
    // ...and a request at the cap reaches the server and comes back as a
    // structured parse error (it is not valid JSON).
    SocketClient client("127.0.0.1", server.port());
    const std::string response = client.roundtrip(std::string(1024, 'x'));
    EXPECT_NE(response.find("\"code\": \"parse\""), std::string::npos) << response;
  }
  server.stop();
  accept_thread.join();
}

TEST(Replay, ReadRequestLogSkipsBlankLinesAndKeepsMalformedOnes) {
  const std::string path = "/tmp/ipass_replay_log_test.jsonl";
  {
    std::vector<std::string> lines = {R"({"id": "a", "kit_name": "pcb-fr4"})", "",
                                      "broken line", ""};
    std::string text;
    for (const std::string& l : lines) {
      text += l;
      text += '\n';
    }
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fwrite(text.data(), 1, text.size(), f);
    fclose(f);
  }
  const std::vector<std::string> requests = read_request_log(path);
  ASSERT_EQ(requests.size(), 2U);
  EXPECT_EQ(requests[1], "broken line");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipass::serve
