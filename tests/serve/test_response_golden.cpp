// Byte pin of the response writer: replaying the committed request log
// must reproduce the committed tests/serve/requests.responses exactly —
// in-process at 1 and 8 workers, and over the socket front-end.  The
// replay tests compare one build with itself; this file catches a
// response-format change that is consistent within one build.  The 16
// requests cover inline kits, sensitivity, pareto and error responses.
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

std::vector<std::string> committed_log() {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
}

std::string committed_responses() {
  const std::string path = std::string(IPASS_SERVE_LOG_DIR) + "/requests.responses";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ResponseGolden, InProcessReplayMatchesCommittedBytes) {
  const std::vector<std::string> requests = committed_log();
  const std::string golden = committed_responses();
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

TEST(ResponseGolden, SocketReplayMatchesCommittedBytes) {
  const std::vector<std::string> requests = committed_log();
  const std::string golden = committed_responses();
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

}  // namespace
}  // namespace ipass::serve
