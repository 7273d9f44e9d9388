// Byte pins of the response writer: replaying a committed request log
// must reproduce its committed .responses file exactly — in-process at 1
// and 8 workers, and over the socket front-end.  The replay tests compare
// one build with itself; this file catches a response-format change that
// is consistent within one build.
//
// requests.log: 16 requests covering inline kits, sensitivity, pareto and
// error responses.  inline_kits.log: each kit corpus document sent as an
// inline kit (tools/gen_inline_kits_log.py), pinning the wire bytes of
// every kit-loader error a request can carry.
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/replay.hpp"
#include "serve/socket.hpp"

namespace ipass::serve {
namespace {

std::vector<std::string> committed_log(const char* stem = "requests") {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/" + stem + ".log");
}

std::string committed_responses(const char* stem = "requests") {
  const std::string path =
      std::string(IPASS_SERVE_LOG_DIR) + "/" + stem + ".responses";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_in_process_replay_matches(const char* stem) {
  const std::vector<std::string> requests = committed_log(stem);
  const std::string golden = committed_responses(stem);
  ASSERT_FALSE(golden.empty());

  ServiceOptions serial;
  AssessmentService service_1(serial);
  EXPECT_EQ(response_stream(replay(service_1, requests)), golden);

  ServiceOptions wide;
  wide.workers = 8;
  wide.eval_threads = 4;
  AssessmentService service_8(wide);
  EXPECT_EQ(response_stream(replay(service_8, requests)), golden);
}

void expect_socket_replay_matches(const char* stem) {
  const std::vector<std::string> requests = committed_log(stem);
  const std::string golden = committed_responses(stem);
  ASSERT_FALSE(golden.empty());

  ServerOptions server_options;
  server_options.service.workers = 2;
  SocketServer server(server_options);
  std::thread accept_thread([&] { server.run(); });
  std::vector<std::string> responses;
  {
    SocketClient client("127.0.0.1", server.port());
    for (const std::string& request : requests) {
      responses.push_back(client.roundtrip(request));
    }
  }
  server.stop();
  accept_thread.join();
  EXPECT_EQ(response_stream(responses), golden);
}

TEST(ResponseGolden, InProcessReplayMatchesCommittedBytes) {
  expect_in_process_replay_matches("requests");
}

TEST(ResponseGolden, SocketReplayMatchesCommittedBytes) {
  expect_socket_replay_matches("requests");
}

TEST(ResponseGolden, InlineKitCorpusInProcessReplayMatchesCommittedBytes) {
  EXPECT_EQ(committed_log("inline_kits").size(), 28U);
  expect_in_process_replay_matches("inline_kits");
}

TEST(ResponseGolden, InlineKitCorpusSocketReplayMatchesCommittedBytes) {
  expect_socket_replay_matches("inline_kits");
}

}  // namespace
}  // namespace ipass::serve
