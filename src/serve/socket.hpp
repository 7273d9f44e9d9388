// Dependency-free POSIX socket front-end for the assessment service.
//
// Framing: every message (request or response) is a 4-byte big-endian
// length followed by that many bytes of JSON — the same documents the
// in-process service consumes and produces, so a socket client and an
// in-process replay see identical bytes.  Frames above kMaxFrameBytes are
// answered with a structured parse error and the connection is closed
// (a hostile length header must not make the server allocate gigabytes).
// Each connection reads through one FrameReader, the only code that parses
// a frame header: one recv fills its buffer and every whole frame in it is
// yielded without another call, so a request costs one recv and pipelined
// requests share one.  write_frame sends the header and the payload with
// one gather call and no copy.
//
// The server is deliberately simple: each connection is served by one
// handler thread that runs its requests to completion, in order (responses
// come back in request order).  Handlers are started only when none is
// idle and are reused after their connection closes, so at most
// max_connections exist.  At that cap a new connection waits briefly when
// some open connection's peer has already hung up (its handler is about
// to release the slot) and is refused otherwise; admission control proper
// lives in the AssessmentService behind it.
//
// Shutdown is a graceful drain: stop() unblocks the accept loop, after
// which run() stops admitting (new frames get structured overload
// refusals), lets every admitted request finish (bounded by
// drain_timeout_ms), flushes the journal, and only then releases the
// connections — a SIGTERM never loses an in-flight response.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "serve/service.hpp"

namespace ipass::serve {

inline constexpr std::size_t kMaxFrameBytes = 1U << 20;  // 1 MiB

// Outcome of reading one frame.  Eof is a CLEAN end of stream — zero bytes
// after the previous frame; Truncated means the connection died mid-frame.
// The distinction matters on both sides: the server answers a truncated
// request with a structured parse error instead of silently hanging up,
// and a client that saw Eof knows no response byte was produced (a retry
// cannot double-consume anything) while Truncated means a response was
// partially consumed (still safe to retry here — responses are
// deterministic — but accounted separately).
enum class FrameStatus { Ok, Eof, Truncated, TooLarge };

// Reads the frames of one connection (it does not own the fd).  The buffer
// is allocated at the first read, small, and grows only to hold the
// largest frame seen; a length header above kMaxFrameBytes is refused
// before anything is allocated for it.  Shared by the server, the client
// and the chaos transport (POSIX only; on _WIN32 every read is Eof).
class FrameReader {
 public:
  static constexpr std::size_t kInitialBytes = 4096;

  FrameReader() = default;
  explicit FrameReader(int fd) : fd_(fd) {}

  // The next frame into `payload` (valid only for Ok).  Each refill is one
  // recv; a frame already whole in the buffer costs none.
  FrameStatus next(std::string& payload);

  // recv calls so far, the final one that saw EOF included.
  std::uint64_t recv_calls() const { return recv_calls_; }
  std::size_t capacity() const { return buf_.size(); }

 private:
  int fd_ = -1;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // unread bytes are [begin_, end_)
  std::size_t end_ = 0;
  std::uint64_t recv_calls_ = 0;
};

// One gather send per call of the 4-byte header and the payload, resumed
// after a partial send until the frame is out; adds its send calls to
// `send_calls` when given.  False when the connection failed.
bool write_frame(int fd, const std::string& payload,
                 std::uint64_t* send_calls = nullptr);
bool write_bytes(int fd, const char* data, std::size_t size);
// The exact wire form of a frame (header + payload) — what a fault
// injector tears or splits.
std::string frame_bytes(const std::string& payload);

struct ServerOptions {
  ServiceOptions service;
  std::uint16_t port = 0;  // 0 = ephemeral (read back via port())
  int backlog = 16;
  unsigned max_connections = 32;  // open connections and handler threads
  // How long a drain may wait for admitted requests before connections are
  // hard-closed anyway.
  std::uint32_t drain_timeout_ms = 5000;
};

// Server-side transport counters, resolved once from a registry
// (serve_socket_*).  Only SocketServer records here — the shared frame
// helpers stay metric-free (FrameReader and write_frame only report their
// recv and send call counts) so clients and tests don't pollute the
// server's picture of its own wire.  The syscall counts are in the metrics
// dump, not the stats probe.
struct SocketMetrics {
  explicit SocketMetrics(metrics::MetricsRegistry& registry);
  metrics::Counter& connections_accepted;
  metrics::Counter& connections_refused;
  metrics::Counter& frames_in;
  metrics::Counter& frames_out;
  metrics::Counter& bytes_in;
  metrics::Counter& bytes_out;
  metrics::Counter& truncated_frames;
  metrics::Counter& oversized_frames;
  metrics::Counter& recv_calls;
  metrics::Counter& send_calls;
};

class SocketServer {
 public:
  // Binds and listens on 127.0.0.1 immediately; throws PreconditionError
  // when the port is unavailable (or on platforms without POSIX sockets).
  // The server and its service record into `registry`, which must outlive
  // the server; given none, the service owns a fresh registry.
  explicit SocketServer(const ServerOptions& options,
                        metrics::MetricsRegistry* registry = nullptr);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  std::uint16_t port() const { return port_; }
  AssessmentService& service() { return *service_; }

  // Accept loop; returns after stop() and a graceful drain.  Call from a
  // dedicated thread (or let it be the main thread of a daemon).
  void run();

  // Unblock run() and stop accepting.  Async-signal-safe enough for a
  // SIGINT/SIGTERM handler: it only shuts down the listening socket and
  // sets a flag.  The drain itself happens on run()'s thread.
  void stop();

 private:
  // Handler thread: serves `fd`, then each connection handed to it.
  void serve_connections(int fd);

  const ServerOptions options_;
  std::unique_ptr<AssessmentService> service_;
  const SocketMetrics metrics_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  // Under conn_m_, handlers_.size() == idle_ + conn_fds_.size(): each
  // handler is idle or owns one open connection.
  std::mutex conn_m_;
  std::condition_variable conn_cv_;
  std::condition_variable released_cv_;  // a connection left conn_fds_
  std::vector<int> conn_fds_;  // open connections, for shutdown on stop
  std::vector<int> handoff_;   // accepted fds promised to idle handlers
  std::size_t idle_ = 0;
  bool closing_ = false;  // drained: idle handlers exit
  std::vector<std::thread> handlers_;
};

// How a client-side roundtrip failed (Ok = it did not).  NoResponse is a
// clean EOF before the first response byte; TruncatedResponse means the
// stream died mid-response — the caller may have to assume the response
// was (partially) consumed.
enum class TransportStatus {
  Ok,
  SendError,
  NoResponse,
  TruncatedResponse,
  OversizedResponse,
};

const char* transport_status_name(TransportStatus status);

// Client helpers (used by the replay tool's --connect mode, ResilientClient
// and the tests).  The constructor throws PreconditionError on connection
// failure.
class SocketClient {
 public:
  SocketClient(const std::string& host, std::uint16_t port);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  // One request frame out, one response frame back.  Throws
  // PreconditionError naming the failure mode.
  std::string roundtrip(const std::string& request);

  // Non-throwing variant for retry loops: returns the failure
  // classification instead (response is valid only for Ok).
  TransportStatus try_roundtrip(const std::string& request, std::string& response);

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace ipass::serve
