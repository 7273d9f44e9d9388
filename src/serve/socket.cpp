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
      oversized_frames(registry.counter("serve_socket_oversized_frames_total")),
      recv_calls(registry.counter("serve_socket_recv_calls_total")),
      send_calls(registry.counter("serve_socket_send_calls_total")) {}

}  // namespace ipass::serve

#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace ipass::serve {

namespace {

// How long the accept loop waits, at the connection cap, for the handler
// of a peer that already hung up to release its slot.
constexpr std::chrono::milliseconds kReleaseWait{200};

// How long the accept loop looks, at the connection cap, for a peer's
// hang-up to show.  A client that closes and at once reconnects can have
// its new connection accepted before the kernel has processed the old
// one's FIN (on loopback under load, the hang-up showed about 1 ms late);
// this is also how much later a refusal goes out when live peers hold
// every slot.
constexpr int kHangupGraceMs = 5;

// True when the peer of some connection in `fds` hung up, or does within
// `timeout_ms`: its handler holds the slot only until it reads the EOF.
bool any_peer_gone(const std::vector<int>& fds, int timeout_ms) {
  std::vector<pollfd> polls;
  polls.reserve(fds.size());
  for (const int fd : fds) polls.push_back({fd, POLLRDHUP, 0});
  if (::poll(polls.data(), polls.size(), timeout_ms) <= 0) return false;
  return std::any_of(polls.begin(), polls.end(), [](const pollfd& p) {
    return (p.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
  });
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

bool write_frame(int fd, const std::string& payload, std::uint64_t* send_calls) {
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  unsigned char header[4] = {static_cast<unsigned char>(size >> 24),
                             static_cast<unsigned char>(size >> 16),
                             static_cast<unsigned char>(size >> 8),
                             static_cast<unsigned char>(size)};
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (send_calls != nullptr) ++*send_calls;
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    // A partial send: drop the iovecs that went out, trim the next one.
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (sent > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

FrameStatus FrameReader::next(std::string& payload) {
  for (;;) {
    const std::size_t avail = end_ - begin_;
    std::size_t need = 4;  // the header, then the whole frame
    if (avail >= 4) {
      const auto* h = reinterpret_cast<const unsigned char*>(buf_.data() + begin_);
      const std::uint32_t size = (static_cast<std::uint32_t>(h[0]) << 24) |
                                 (static_cast<std::uint32_t>(h[1]) << 16) |
                                 (static_cast<std::uint32_t>(h[2]) << 8) |
                                 static_cast<std::uint32_t>(h[3]);
      if (size > kMaxFrameBytes) return FrameStatus::TooLarge;
      need = 4 + size;
      if (avail >= need) {
        payload.assign(buf_.data() + begin_ + 4, size);
        begin_ += need;
        if (begin_ == end_) begin_ = end_ = 0;
        return FrameStatus::Ok;
      }
    }
    // Room for the rest of the frame: grow to fit it exactly, or move the
    // partial frame to the front.
    if (need > buf_.size()) {
      std::vector<char> grown(std::max(need, kInitialBytes));
      if (avail > 0) std::memcpy(grown.data(), buf_.data() + begin_, avail);
      buf_.swap(grown);
      begin_ = 0;
      end_ = avail;
    } else if (begin_ + need > buf_.size()) {
      std::memmove(buf_.data(), buf_.data() + begin_, avail);
      begin_ = 0;
      end_ = avail;
    }
    const ssize_t n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    ++recv_calls_;
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // A clean end of stream only between frames.
      return avail == 0 ? FrameStatus::Eof : FrameStatus::Truncated;
    }
    end_ += static_cast<std::size_t>(n);
  }
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
      // A slot whose peer already hung up is released as soon as its
      // handler reads the EOF: wait for that rather than refuse a live
      // client on account of connections that are already gone.  The
      // handlers deregister under this lock, so the polled fds stay valid.
      const auto give_up = std::chrono::steady_clock::now() + kReleaseWait;
      while (conn_fds_.size() >= options_.max_connections &&
             any_peer_gone(conn_fds_, kHangupGraceMs) &&
             released_cv_.wait_until(lk, give_up) != std::cv_status::timeout) {
      }
    }
    if (conn_fds_.size() >= options_.max_connections) {
      lk.unlock();
      // Refuse above the connection cap with a structured frame so the
      // client sees backpressure, not a silent hangup.
      metrics_.connections_refused.add();
      std::uint64_t sends = 0;
      write_frame(fd,
                  error_response("", ErrorCode::Overload,
                                 "too many connections; retry later"),
                  &sends);
      metrics_.send_calls.add(sends);
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
    FrameReader reader(fd);
    std::uint64_t recvs_counted = 0;
    const auto send_frame = [&](const std::string& frame) {
      std::uint64_t sends = 0;
      const bool sent = write_frame(fd, frame, &sends);
      metrics_.send_calls.add(sends);
      return sent;
    };
    for (;;) {
      const FrameStatus status = reader.next(request);
      metrics_.recv_calls.add(reader.recv_calls() - recvs_counted);
      recvs_counted = reader.recv_calls();
      if (status == FrameStatus::Eof) break;
      if (status == FrameStatus::Truncated) {
        // Best-effort: the peer may already be gone, but when only its write
        // side died the structured error tells it the request never reached
        // an engine (a retry is unconditionally safe).
        metrics_.truncated_frames.add();
        send_frame(error_response("", ErrorCode::Parse,
                            "truncated request frame: connection lost "
                            "mid-frame; the request was not processed"));
        break;
      }
      if (status == FrameStatus::TooLarge) {
        metrics_.oversized_frames.add();
        send_frame(error_response("", ErrorCode::Parse,
                            strf("request frame exceeds %zu bytes", kMaxFrameBytes)));
        break;
      }
      metrics_.frames_in.add();
      metrics_.bytes_in.add(request.size());
      const std::string response = service_->handle(request);
      if (!send_frame(response)) break;
      metrics_.frames_out.add();
      metrics_.bytes_out.add(response.size());
    }
    std::unique_lock<std::mutex> lk(conn_m_);
    // Deregister before closing, under the lock the drain shuts fds down
    // with: the drain must never shut down a reused fd number.
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    ::close(fd);
    released_cv_.notify_one();
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
  reader_ = FrameReader(fd_);
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

TransportStatus SocketClient::try_roundtrip(const std::string& request,
                                            std::string& response) {
  require(request.size() <= kMaxFrameBytes, "SocketClient: request too large");
  if (!write_frame(fd_, request)) return TransportStatus::SendError;
  switch (reader_.next(response)) {
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

FrameStatus FrameReader::next(std::string&) { return FrameStatus::Eof; }
bool write_frame(int, const std::string&, std::uint64_t*) { return false; }
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
