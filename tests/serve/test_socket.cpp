// Socket front-end resource bounds: the connection cap answers with a
// structured overload frame, handler threads are reused so any number of
// short connections leaves the thread count and address space flat, and a
// drain that races incoming connections answers every frame and returns.
#include "serve/socket.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace ipass::serve {
namespace {

constexpr const char* kHealth = R"({"kind": "health"})";

std::string field_str(const JsonValue& v, const char* key) {
  for (const auto& [k, val] : v.object) {
    if (k == key) return val.string;
  }
  return {};
}

// "ok", the error code of a structured error, or "malformed".
std::string outcome_of(const std::string& response) {
  try {
    const JsonValue v = parse_json(response, "response");
    return field_str(v, "status") == "ok" ? "ok" : field_str(v, "code");
  } catch (const std::exception&) {
    return "malformed";
  }
}

// A plain connected socket: reading the server's first frame without
// writing anything isolates the refusal from any client-side send error.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::size_t live_threads() {
  std::size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    ::closedir(dir);
  }
  return n;
}

std::size_t vm_size_kb() {
  std::size_t kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmSize: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb;
}

class RunningServer {
 public:
  explicit RunningServer(const ServerOptions& options,
                         metrics::MetricsRegistry* registry = nullptr)
      : server_(options, registry), accept_thread_([this] { server_.run(); }) {}
  ~RunningServer() { stop(); }

  SocketServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }
  void stop() {
    server_.stop();
    if (accept_thread_.joinable()) accept_thread_.join();
  }

 private:
  SocketServer server_;
  std::thread accept_thread_;
};

TEST(SocketServer, ConnectionAboveTheCapGetsStructuredOverloadFrame) {
  ServerOptions options;
  options.max_connections = 2;
  RunningServer running(options);
  // A completed roundtrip proves each connection holds a handler.
  auto first = std::make_unique<SocketClient>("127.0.0.1", running.port());
  auto second = std::make_unique<SocketClient>("127.0.0.1", running.port());
  EXPECT_EQ(field_str(parse_json(first->roundtrip(kHealth), "health"), "status"), "ok");
  EXPECT_EQ(field_str(parse_json(second->roundtrip(kHealth), "health"), "status"), "ok");

  const int fd = connect_raw(running.port());
  ASSERT_GE(fd, 0);
  std::string frame;
  FrameReader reader(fd);
  ASSERT_EQ(reader.next(frame), FrameStatus::Ok);
  const JsonValue refusal = parse_json(frame, "refusal");
  EXPECT_EQ(field_str(refusal, "status"), "error");
  EXPECT_EQ(field_str(refusal, "code"), "overload");
  EXPECT_NE(frame.find("too many connections"), std::string::npos) << frame;
  EXPECT_EQ(reader.next(frame), FrameStatus::Eof);  // then the server hangs up
  ::close(fd);

  // Closing a connection frees its slot: a new client is served again
  // once the handler has deregistered it.
  first.reset();
  bool served = false;
  for (int attempt = 0; attempt < 400 && !served; ++attempt) {
    SocketClient client("127.0.0.1", running.port());
    std::string response;
    served = client.try_roundtrip(kHealth, response) == TransportStatus::Ok &&
             response.find("too many") == std::string::npos;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(served);
}

TEST(SocketServer, ShortConnectionsReuseABoundedSetOfHandlerThreads) {
  ServerOptions options;
  options.max_connections = 4;
  const std::size_t threads_before = live_threads();
  RunningServer running(options);
  // Warm-up: max_connections concurrent connections start every handler
  // the cap allows, then a few sequential ones settle the heap.
  {
    std::vector<std::unique_ptr<SocketClient>> clients;
    for (unsigned i = 0; i < options.max_connections; ++i) {
      clients.push_back(std::make_unique<SocketClient>("127.0.0.1", running.port()));
      clients.back()->roundtrip(kHealth);
    }
  }
  for (int i = 0; i < 50; ++i) SocketClient("127.0.0.1", running.port()).roundtrip(kHealth);
  const std::size_t vm_warm_kb = vm_size_kb();

  // + 1 for the accept thread.
  const std::size_t thread_bound = threads_before + options.max_connections + 1;
  std::size_t threads_peak = 0;
  for (int i = 0; i < 2000; ++i) {
    SocketClient client("127.0.0.1", running.port());
    EXPECT_EQ(field_str(parse_json(client.roundtrip(kHealth), "health"), "status"),
              "ok");
    if (i % 50 == 0) threads_peak = std::max(threads_peak, live_threads());
  }
  EXPECT_LE(threads_peak, thread_bound);
  // One thread stack per connection would be 2000 x 8 MiB of address space;
  // reused handlers leave it flat.
  EXPECT_LE(vm_size_kb(), vm_warm_kb + 16 * 1024) << "warm " << vm_warm_kb << " kB";
}

// At the connection cap, a slot whose peer already hung up is one its
// handler is about to release: a new client waits for it instead of
// being refused.  With a cap of one, every connection races the previous
// connection's handler to its EOF.
TEST(SocketServer, ClosedPeersNeverCauseARefusal) {
  ServerOptions options;
  options.max_connections = 1;
  RunningServer running(options);
  for (int i = 0; i < 500; ++i) {
    SocketClient client("127.0.0.1", running.port());
    ASSERT_EQ(field_str(parse_json(client.roundtrip(kHealth), "health"), "status"),
              "ok")
        << "connection " << i;
  }
  EXPECT_EQ(running.server().service().metrics_registry()
                .counter("serve_socket_connections_refused_total")
                .value(),
            0U);
}

// One recv per request and one gather send per response: sequential
// roundtrips on one connection cost the server a recv each (plus the one
// that sees the EOF) and exactly one send each.
TEST(SocketServer, EachRoundtripTakesOneRecvAndOneSend) {
  constexpr int kRoundtrips = 200;
  metrics::MetricsRegistry registry;
  {
    RunningServer running(ServerOptions{}, &registry);
    SocketClient client("127.0.0.1", running.port());
    for (int i = 0; i < kRoundtrips; ++i) {
      ASSERT_EQ(field_str(parse_json(client.roundtrip(kHealth), "health"), "status"),
                "ok");
    }
  }  // the client hangs up first, then the server drains and joins
  const std::uint64_t recvs = registry.counter("serve_socket_recv_calls_total").value();
  const std::uint64_t sends = registry.counter("serve_socket_send_calls_total").value();
  EXPECT_GE(recvs, static_cast<std::uint64_t>(kRoundtrips));
  EXPECT_LE(static_cast<double>(recvs), 1.05 * kRoundtrips + 1);
  EXPECT_EQ(sends, static_cast<std::uint64_t>(kRoundtrips));
}

TEST(SocketServer, DrainWhileConnectingAnswersEveryFrameAndReturns) {
  ServerOptions options;
  options.service.workers = 2;
  options.max_connections = 4;
  RunningServer running(options);
  const std::uint16_t port = running.port();

  std::atomic<bool> done{false};
  std::atomic<int> ok{0};
  std::atomic<int> malformed{0};  // neither an answer nor an overload refusal
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      while (!done.load()) {
        std::unique_ptr<SocketClient> client;
        try {
          client = std::make_unique<SocketClient>("127.0.0.1", port);
        } catch (const PreconditionError&) {
          // The listener is gone once the drain started.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        for (int k = 0; k < 4; ++k) {
          std::string response;
          if (client->try_roundtrip(R"({"id": "c", "kit_name": "ltcc-ceramic"})",
                                    response) != TransportStatus::Ok) {
            break;
          }
          const std::string outcome = outcome_of(response);
          if (outcome == "ok") {
            ++ok;
          } else if (outcome != "overload") {  // cap or drain refusals are fine
            ++malformed;
          }
        }
      }
    });
  }
  for (int i = 0; i < 10000 && ok.load() < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ok.load(), 200);
  const auto stop_start = std::chrono::steady_clock::now();
  running.stop();  // returns only after the drain and every handler joined
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stop_start)
                           .count();
  done = true;
  for (std::thread& t : clients) t.join();

  EXPECT_LT(stop_ms, static_cast<long long>(options.drain_timeout_ms));
  EXPECT_EQ(malformed.load(), 0);
  const ServiceMetrics& stats = running.server().service().metrics();
  // Nothing admitted was dropped.
  EXPECT_EQ(stats.completed.value(), stats.admitted.value());
  EXPECT_GE(stats.ok.value(), static_cast<std::uint64_t>(ok.load()));
}

}  // namespace
}  // namespace ipass::serve
