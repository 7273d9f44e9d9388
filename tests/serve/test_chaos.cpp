// Chaos soak: the ResilientClient must complete every request of the
// committed log through a fault-injecting proxy — torn frames, resets,
// garbage, split writes, delays — with every response byte-identical to a
// fault-free run, no duplicated side effects on the service, and a
// deterministic retry walk (same seed => same backoff schedule).
#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "serve/client.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace ipass::serve {
namespace {

std::vector<std::string> committed_requests() {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
}

// The fault-free truth: responses are pure functions of the request text
// and options, so an in-process replay is the reference for every
// transport-chaos run.
std::vector<std::string> reference_responses(const std::vector<std::string>& requests) {
  AssessmentService service;
  return replay(service, requests);
}

FaultPlan chaos_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.tear_rate = 0.06;
  plan.reset_rate = 0.06;
  plan.garbage_rate = 0.05;
  plan.split_rate = 0.20;
  plan.delay_rate = 0.10;
  plan.delay_ms = 1;
  return plan;
}

RetryPolicy soak_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  policy.backoff_seed = seed;
  policy.breaker_threshold = 0;  // soak wants exhaustive retries, not trips
  return policy;
}

struct SoakRun {
  std::vector<std::string> responses;
  std::vector<std::uint32_t> backoff_log;
  std::uint64_t attempts = 0;
  struct {
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
  } service_stats;
  ChaosStats chaos_stats;
};

SoakRun run_soak(const std::vector<std::string>& requests, std::uint64_t seed,
                 bool metrics_on = false) {
  ServerOptions server_options;
  server_options.service.workers = 2;
  if (metrics_on) {
    // Arm every observability path: slow-request tracing (threshold high
    // enough to stay quiet on stderr), a tiny trace ring that wraps many
    // times over the soak, and the engine profiling hooks.
    server_options.service.slow_request_ms = 3600000;
    server_options.service.trace_capacity = 4;
    metrics::set_profiling_enabled(true);
  }
  SocketServer server(server_options);
  std::thread server_thread([&] { server.run(); });

  ChaosOptions chaos_options;
  chaos_options.upstream_port = server.port();
  chaos_options.faults = chaos_plan(seed);
  ChaosTransport chaos(chaos_options);
  std::thread chaos_thread([&] { chaos.run(); });

  SoakRun run;
  {
    ResilientClient client("127.0.0.1", chaos.port(), soak_policy(seed));
    for (const std::string& request : requests) {
      run.responses.push_back(client.call(request));
    }
    run.backoff_log = client.backoff_log();
    run.attempts = client.stats().attempts;
  }
  chaos.stop();
  chaos_thread.join();
  run.chaos_stats = chaos.stats();
  run.service_stats = {server.service().metrics().admitted.value(),
                       server.service().metrics().completed.value()};
  server.stop();
  server_thread.join();
  if (metrics_on) metrics::set_profiling_enabled(false);
  return run;
}

TEST(ChaosSoak, EveryRequestCompletesByteIdenticalAcrossSeeds) {
  const std::vector<std::string> requests = committed_requests();
  const std::vector<std::string> reference = reference_responses(requests);
  ASSERT_EQ(reference.size(), requests.size());

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const SoakRun run = run_soak(requests, seed);
    ASSERT_EQ(run.responses.size(), requests.size()) << "seed " << seed;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(run.responses[i], reference[i])
          << "seed " << seed << " request " << i;
    }
    // No duplicated side effects: every admission completed exactly once
    // (retries are fresh admissions, never re-delivered work).
    EXPECT_EQ(run.service_stats.admitted, run.service_stats.completed)
        << "seed " << seed;
    EXPECT_GE(run.service_stats.admitted, requests.size()) << "seed " << seed;
    // The plan actually bit: a soak where nothing fails proves nothing.
    EXPECT_GT(run.chaos_stats.torn + run.chaos_stats.resets +
                  run.chaos_stats.garbage,
              0U)
        << "seed " << seed;
    EXPECT_GT(run.chaos_stats.split, 0U) << "seed " << seed;
    EXPECT_GT(run.attempts, requests.size()) << "seed " << seed;
  }
}

// Observability must never leak into the response bytes: the same 3-seed
// soak with tracing, slow-request logging and profiling hooks all armed
// produces exactly the metrics-off (= fault-free reference) stream.
TEST(ChaosSoak, ByteIdenticalWithMetricsAndTracingEnabled) {
  const std::vector<std::string> requests = committed_requests();
  const std::vector<std::string> reference = reference_responses(requests);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const SoakRun run = run_soak(requests, seed, /*metrics_on=*/true);
    ASSERT_EQ(run.responses.size(), requests.size()) << "seed " << seed;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(run.responses[i], reference[i])
          << "seed " << seed << " request " << i;
    }
  }
}

TEST(ChaosSoak, RetryWalkIsDeterministicForAFixedSeed) {
  const std::vector<std::string> requests = committed_requests();
  const SoakRun first = run_soak(requests, 1);
  const SoakRun second = run_soak(requests, 1);
  // Fault decisions are pure functions of (seed, connection, frame,
  // direction), so two identical soaks fail identically — and therefore
  // back off identically.
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.backoff_log, second.backoff_log);
  EXPECT_EQ(first.chaos_stats.connections, second.chaos_stats.connections);
  EXPECT_EQ(first.chaos_stats.torn, second.chaos_stats.torn);
  EXPECT_EQ(first.chaos_stats.resets, second.chaos_stats.resets);
  EXPECT_EQ(first.chaos_stats.garbage, second.chaos_stats.garbage);
  EXPECT_EQ(first.responses, second.responses);
}

// The Truncated frame status on the server side: a connection that dies
// mid-frame gets a structured parse error (best effort), never a silent
// hangup or a misparse.
TEST(ChaosSoak, TruncatedRequestFrameGetsStructuredParseError) {
  SocketServer server(ServerOptions{});
  std::thread server_thread([&] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Half a frame, then a half-close: the server must classify Truncated
  // (not a clean EOF) and answer with a structured error.
  const std::string wire = frame_bytes(R"({"id": "t1", "kit_name": "pcb-fr4"})");
  ASSERT_TRUE(write_bytes(fd, wire.data(), wire.size() / 2));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string response;
  FrameReader reader(fd);
  ASSERT_EQ(reader.next(response), FrameStatus::Ok);
  EXPECT_NE(response.find("\"code\": \"parse\""), std::string::npos) << response;
  EXPECT_NE(response.find("truncated request frame"), std::string::npos) << response;
  EXPECT_NE(response.find("was not processed"), std::string::npos) << response;
  ::close(fd);
  server.stop();
  server_thread.join();
}

}  // namespace
}  // namespace ipass::serve
