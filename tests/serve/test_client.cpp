// ResilientClient: deterministic backoff schedules (no wall clock — sleep
// and clock are injected), retry budget, deadline propagation across
// attempts, failure-mode classification and the circuit breaker cycle.
#include "serve/client.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/socket.hpp"

namespace ipass::serve {
namespace {

using Millis = std::chrono::milliseconds;

constexpr const char* kRequest = R"({"id": "c1", "kit_name": "pcb-fr4"})";

// A TCP port with nothing listening: bind an ephemeral listener, note the
// port, close it.  Connecting afterwards is refused immediately.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

// Deterministic time for the client: sleeps advance the clock, nothing
// else does.  Tests that use this never depend on real time.
struct FakeTime {
  std::chrono::steady_clock::time_point now{};
  std::vector<std::uint32_t> slept;

  ResilientClient::Sleep sleep() {
    return [this](Millis d) {
      slept.push_back(static_cast<std::uint32_t>(d.count()));
      now += d;
    };
  }
  ResilientClient::Clock clock() {
    return [this] { return now; };
  }
  void advance(std::uint32_t ms) { now += Millis(ms); }
};

RetryPolicy no_breaker_policy() {
  RetryPolicy policy;
  policy.breaker_threshold = 0;
  return policy;
}

TEST(ResilientClient, BackoffScheduleIsDeterministicPerSeed) {
  const std::uint16_t port = dead_port();
  const auto schedule = [&](std::uint64_t seed) {
    RetryPolicy policy = no_breaker_policy();
    policy.max_attempts = 6;
    policy.base_backoff_ms = 10;
    policy.max_backoff_ms = 2000;
    policy.backoff_seed = seed;
    FakeTime time;
    ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());
    EXPECT_THROW(client.call(kRequest), PreconditionError);
    EXPECT_EQ(client.stats().attempts, 6U);
    EXPECT_EQ(client.stats().connect_failures, 6U);
    EXPECT_EQ(client.backoff_log().size(), 5U);  // no sleep after the last try
    EXPECT_EQ(time.slept, client.backoff_log());
    return client.backoff_log();
  };
  const std::vector<std::uint32_t> run_a = schedule(42);
  const std::vector<std::uint32_t> run_b = schedule(42);
  EXPECT_EQ(run_a, run_b);
  EXPECT_NE(run_a, schedule(43));
}

TEST(ResilientClient, BackoffIsExponentialWithBoundedJitter) {
  const std::uint16_t port = dead_port();
  RetryPolicy policy = no_breaker_policy();
  policy.max_attempts = 10;
  policy.base_backoff_ms = 8;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.5;
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());
  EXPECT_THROW(client.call(kRequest), PreconditionError);
  ASSERT_EQ(client.backoff_log().size(), 9U);
  for (std::size_t i = 0; i < client.backoff_log().size(); ++i) {
    const double nominal =
        std::min<double>(policy.max_backoff_ms, policy.base_backoff_ms * (1U << i));
    const double v = client.backoff_log()[i];
    EXPECT_GT(v, nominal * (1.0 - policy.jitter) - 1.0) << "backoff " << i;
    EXPECT_LE(v, nominal) << "backoff " << i;
  }
}

TEST(ResilientClient, ZeroJitterGivesTheExactExponentialLadder) {
  const std::uint16_t port = dead_port();
  RetryPolicy policy = no_breaker_policy();
  policy.max_attempts = 6;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 50;
  policy.jitter = 0.0;
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());
  EXPECT_THROW(client.call(kRequest), PreconditionError);
  EXPECT_EQ(client.backoff_log(),
            (std::vector<std::uint32_t>{10, 20, 40, 50, 50}));
}

TEST(ResilientClient, RetryBudgetExhaustionNamesTheLastFailure) {
  const std::uint16_t port = dead_port();
  RetryPolicy policy = no_breaker_policy();
  policy.max_attempts = 3;
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());
  try {
    client.call(kRequest);
    FAIL() << "expected retry-budget exhaustion";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Overload);
    EXPECT_NE(std::string(e.what()).find("retry budget of 3 attempts"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResilientClient, DeadlineBoundsTheWholeCallIncludingBackoff) {
  const std::uint16_t port = dead_port();
  RetryPolicy policy = no_breaker_policy();
  policy.max_attempts = 10;
  policy.base_backoff_ms = 30;
  policy.jitter = 0.0;
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());
  try {
    client.call(kRequest, 50);
    FAIL() << "expected deadline expiry";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Deadline);
  }
  // Attempt 1 at t=0 fails; backoff 30 (full, budget 50 left).  Attempt 2
  // at t=30 fails; nominal backoff 60 capped to the 20 ms remaining.
  // Attempt 3 would start at t=50 with nothing left: deadline, after
  // exactly two attempts and two shrinking backoffs.
  EXPECT_EQ(client.stats().attempts, 2U);
  EXPECT_EQ(client.backoff_log(), (std::vector<std::uint32_t>{30, 20}));
}

TEST(ResilientClient, BreakerTripsFastFailsAndRecloses) {
  // A server we can kill and later resurrect on the same port.
  auto server = std::make_unique<SocketServer>(ServerOptions{});
  const std::uint16_t port = server->port();
  server->stop();
  server = nullptr;  // nothing listens on `port` now

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.breaker_threshold = 3;
  policy.breaker_cooldown_ms = 100;
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());

  // Trip: the third consecutive failure opens the breaker mid-call.
  try {
    client.call(kRequest);
    FAIL() << "expected the breaker to trip";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Overload);
    EXPECT_NE(std::string(e.what()).find("tripped after 3"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.stats().breaker_trips, 1U);
  EXPECT_EQ(client.stats().attempts, 3U);

  // Open + cooldown not elapsed: fast fail without touching the network.
  EXPECT_THROW(client.call(kRequest), PreconditionError);
  EXPECT_EQ(client.stats().breaker_fast_fails, 1U);
  EXPECT_EQ(client.stats().attempts, 3U);  // no attempt was made

  // Cooldown elapsed, upstream still dead: the single half-open probe
  // fails and re-opens the breaker.
  time.advance(150);
  EXPECT_THROW(client.call(kRequest), PreconditionError);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.stats().attempts, 4U);

  // Upstream resurrected on the same port: the next probe closes the
  // breaker and the call succeeds.
  ServerOptions revive;
  revive.port = port;
  SocketServer revived(revive);
  std::thread accept_thread([&] { revived.run(); });
  time.advance(150);
  const std::string response = client.call(kRequest);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
  EXPECT_FALSE(client.breaker_open());
  EXPECT_EQ(client.stats().successes, 1U);
  revived.stop();
  accept_thread.join();
}

// A scripted one-shot server: accepts one connection, reads one frame,
// then misbehaves in a chosen way.
void one_shot_server(int listen_fd, bool truncate_response) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  std::string request;
  FrameReader reader(fd);
  ASSERT_EQ(reader.next(request), FrameStatus::Ok);
  if (truncate_response) {
    // Half a frame header: the client must classify Truncated, not hang
    // or misparse.
    const std::string wire = frame_bytes("{\"status\": \"ok\"}");
    write_bytes(fd, wire.data(), 2);
  }
  ::close(fd);
}

TEST(ResilientClient, ClassifiesNoResponseVersusTruncatedResponse) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  RetryPolicy policy = no_breaker_policy();
  policy.max_attempts = 1;  // classify one failure per call
  FakeTime time;
  ResilientClient client("127.0.0.1", port, policy, time.sleep(), time.clock());

  {
    std::thread server(one_shot_server, listen_fd, false);
    EXPECT_THROW(client.call(kRequest), PreconditionError);
    server.join();
  }
  EXPECT_EQ(client.stats().no_response_failures, 1U);
  EXPECT_EQ(client.stats().truncated_responses, 0U);

  {
    std::thread server(one_shot_server, listen_fd, true);
    EXPECT_THROW(client.call(kRequest), PreconditionError);
    server.join();
  }
  EXPECT_EQ(client.stats().truncated_responses, 1U);
  ::close(listen_fd);
}

TEST(ResilientClient, PlainSuccessTakesOneAttempt) {
  SocketServer server(ServerOptions{});
  std::thread accept_thread([&] { server.run(); });
  ResilientClient client("127.0.0.1", server.port());
  const std::string response = client.call(kRequest);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
  // Reuses the connection: no reconnect, no backoff.
  EXPECT_NE(client.call(kRequest).find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(client.stats().attempts, 2U);
  EXPECT_EQ(client.stats().successes, 2U);
  EXPECT_TRUE(client.backoff_log().empty());
  server.stop();
  accept_thread.join();
}

}  // namespace
}  // namespace ipass::serve
