#include "serve/socket.hpp"

#include <algorithm>

#include "common/strfmt.hpp"

namespace ipass::serve {

const char* transport_status_name(TransportStatus status) {
  switch (status) {
    case TransportStatus::Ok: return "ok";
    case TransportStatus::SendError: return "send error (connection lost while sending)";
    case TransportStatus::NoResponse:
      return "no response (connection closed before any response byte)";
    case TransportStatus::TruncatedResponse:
      return "truncated response (connection lost mid-response)";
    case TransportStatus::OversizedResponse:
      return "oversized response frame";
  }
  return "?";
}

SocketMetrics::SocketMetrics(metrics::MetricsRegistry& registry)
    : connections_accepted(registry.counter("serve_socket_connections_accepted_total")),
      connections_refused(registry.counter("serve_socket_connections_refused_total")),
      frames_in(registry.counter("serve_socket_frames_in_total")),
      frames_out(registry.counter("serve_socket_frames_out_total")),
      bytes_in(registry.counter("serve_socket_bytes_in_total")),
      bytes_out(registry.counter("serve_socket_bytes_out_total")),
      truncated_frames(registry.counter("serve_socket_truncated_frames_total")),
      oversized_frames(registry.counter("serve_socket_oversized_frames_total")) {}

}  // namespace ipass::serve

#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace ipass::serve {

namespace {

// Reads until `size` bytes arrived, EOF, or an unrecoverable error; returns
// the byte count actually read.
std::size_t read_upto(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

bool write_bytes(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string frame_bytes(const std::string& payload) {
  std::string wire;
  wire.reserve(4 + payload.size());
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<char>(size >> 24));
  wire.push_back(static_cast<char>(size >> 16));
  wire.push_back(static_cast<char>(size >> 8));
  wire.push_back(static_cast<char>(size));
  wire += payload;
  return wire;
}

bool write_frame(int fd, const std::string& payload) {
  const std::string wire = frame_bytes(payload);
  return write_bytes(fd, wire.data(), wire.size());
}

FrameStatus read_frame(int fd, std::string& payload) {
  unsigned char header[4];
  const std::size_t header_got = read_upto(fd, reinterpret_cast<char*>(header), 4);
  if (header_got == 0) return FrameStatus::Eof;  // clean end of stream
  if (header_got < 4) return FrameStatus::Truncated;
  const std::uint32_t size = (static_cast<std::uint32_t>(header[0]) << 24) |
                             (static_cast<std::uint32_t>(header[1]) << 16) |
                             (static_cast<std::uint32_t>(header[2]) << 8) |
                             static_cast<std::uint32_t>(header[3]);
  if (size > kMaxFrameBytes) return FrameStatus::TooLarge;
  payload.resize(size);
  if (size > 0 && read_upto(fd, payload.data(), size) < size) {
    return FrameStatus::Truncated;
  }
  return FrameStatus::Ok;
}

SocketServer::SocketServer(const ServerOptions& options,
                           metrics::MetricsRegistry* registry)
    : options_(options),
      service_(std::make_unique<AssessmentService>(options.service, registry)),
      metrics_(service_->metrics_registry()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "SocketServer: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw PreconditionError(strf("SocketServer: cannot listen on port %u: %s",
                                 static_cast<unsigned>(options_.port),
                                 std::strerror(err)));
  }
  socklen_t len = sizeof(addr);
  require(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "SocketServer: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

SocketServer::~SocketServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketServer::run() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!stop_.load() && errno == EINTR) continue;
      break;  // stop() shut the listener down (or it failed terminally)
    }
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    // Without this, Nagle holds a small response back behind the peer's
    // delayed ACK on pipelined connections.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::unique_lock<std::mutex> lk(conn_m_);
    if (conn_fds_.size() >= options_.max_connections) {
      lk.unlock();
      // Refuse above the connection cap with a structured frame so the
      // client sees backpressure, not a silent hangup.
      metrics_.connections_refused.add();
      write_frame(fd, error_response("", ErrorCode::Overload,
                                     "too many connections; retry later"));
      ::close(fd);
      continue;
    }
    metrics_.connections_accepted.add();
    conn_fds_.push_back(fd);
    if (idle_ > 0) {
      --idle_;
      handoff_.push_back(fd);
      conn_cv_.notify_one();
    } else {
      handlers_.emplace_back([this, fd] { serve_connections(fd); });
    }
  }
  // Graceful drain: stop admitting (new frames on open connections get
  // structured refusals), let every already-admitted request finish, make
  // the journal durable, then release the connections.
  service_->begin_drain();
  const bool drained = service_->await_drained(
      std::chrono::milliseconds(options_.drain_timeout_ms));
  service_->flush_journal();
  {
    std::lock_guard<std::mutex> lk(conn_m_);
    for (const int fd : conn_fds_) {
      // A clean drain half-closes: pending response writes still go out and
      // the peer sees EOF on its next read.  A timed-out drain hard-closes.
      ::shutdown(fd, drained ? SHUT_RD : SHUT_RDWR);
    }
    closing_ = true;
  }
  conn_cv_.notify_all();
  for (std::thread& t : handlers_) t.join();
  handlers_.clear();
}

void SocketServer::stop() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void SocketServer::serve_connections(int fd) {
  std::string request;
  for (;;) {
    for (;;) {
      const FrameStatus status = read_frame(fd, request);
      if (status == FrameStatus::Eof) break;
      if (status == FrameStatus::Truncated) {
        // Best-effort: the peer may already be gone, but when only its write
        // side died the structured error tells it the request never reached
        // an engine (a retry is unconditionally safe).
        metrics_.truncated_frames.add();
        write_frame(fd, error_response("", ErrorCode::Parse,
                                       "truncated request frame: connection lost "
                                       "mid-frame; the request was not processed"));
        break;
      }
      if (status == FrameStatus::TooLarge) {
        metrics_.oversized_frames.add();
        write_frame(fd, error_response("", ErrorCode::Parse,
                                       strf("request frame exceeds %zu bytes",
                                            kMaxFrameBytes)));
        break;
      }
      metrics_.frames_in.add();
      metrics_.bytes_in.add(request.size());
      const std::string response = service_->handle(request);
      if (!write_frame(fd, response)) break;
      metrics_.frames_out.add();
      metrics_.bytes_out.add(response.size());
    }
    std::unique_lock<std::mutex> lk(conn_m_);
    // Deregister before closing, under the lock the drain shuts fds down
    // with: the drain must never shut down a reused fd number.
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    ::close(fd);
    ++idle_;
    conn_cv_.wait(lk, [&] { return closing_ || !handoff_.empty(); });
    if (handoff_.empty()) return;
    fd = handoff_.back();
    handoff_.pop_back();
  }
}

SocketClient::SocketClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, "SocketClient: cannot create socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw PreconditionError(
        strf("SocketClient: '%s' is not an IPv4 address", host.c_str()));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw PreconditionError(strf("SocketClient: cannot connect to %s:%u: %s",
                                 host.c_str(), static_cast<unsigned>(port),
                                 std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

TransportStatus SocketClient::try_roundtrip(const std::string& request,
                                            std::string& response) {
  require(request.size() <= kMaxFrameBytes, "SocketClient: request too large");
  if (!write_frame(fd_, request)) return TransportStatus::SendError;
  switch (read_frame(fd_, response)) {
    case FrameStatus::Ok: return TransportStatus::Ok;
    case FrameStatus::Eof: return TransportStatus::NoResponse;
    case FrameStatus::Truncated: return TransportStatus::TruncatedResponse;
    case FrameStatus::TooLarge: return TransportStatus::OversizedResponse;
  }
  return TransportStatus::NoResponse;
}

std::string SocketClient::roundtrip(const std::string& request) {
  std::string response;
  const TransportStatus status = try_roundtrip(request, response);
  require(status == TransportStatus::Ok,
          strf("SocketClient: %s", transport_status_name(status)));
  return response;
}

}  // namespace ipass::serve

#else  // _WIN32

namespace ipass::serve {

FrameStatus read_frame(int, std::string&) { return FrameStatus::Eof; }
bool write_frame(int, const std::string&) { return false; }
bool write_bytes(int, const char*, std::size_t) { return false; }
std::string frame_bytes(const std::string& payload) {
  std::string wire;
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<char>(size >> 24));
  wire.push_back(static_cast<char>(size >> 16));
  wire.push_back(static_cast<char>(size >> 8));
  wire.push_back(static_cast<char>(size));
  wire += payload;
  return wire;
}

SocketServer::SocketServer(const ServerOptions& options,
                           metrics::MetricsRegistry* registry)
    : options_(options),
      service_(std::make_unique<AssessmentService>(options.service, registry)),
      metrics_(service_->metrics_registry()) {
  throw PreconditionError("SocketServer: POSIX sockets unavailable on this platform");
}
SocketServer::~SocketServer() = default;
void SocketServer::run() {}
void SocketServer::stop() {}
void SocketServer::serve_connections(int) {}

SocketClient::SocketClient(const std::string&, std::uint16_t) {
  throw PreconditionError("SocketClient: POSIX sockets unavailable on this platform");
}
SocketClient::~SocketClient() = default;
std::string SocketClient::roundtrip(const std::string&) { return {}; }
TransportStatus SocketClient::try_roundtrip(const std::string&, std::string&) {
  return TransportStatus::NoResponse;
}

}  // namespace ipass::serve

#endif
