#include "serve/chaos.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "serve/socket.hpp"

#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace ipass::serve {

namespace {

// Injection keys must be unique per (connection, frame, direction) and fit
// the u64 FaultPlan::fires key.  2^20 frames per connection is far beyond
// any soak.
constexpr std::uint64_t kFramesPerConnection = 1ULL << 20;

std::uint64_t fault_key(std::uint64_t conn, std::uint64_t frame, unsigned dir) {
  return conn * kFramesPerConnection + frame * 2 + dir;
}

// Kill a connection the rude way: SO_LINGER(0) turns close() into an RST,
// so the peer sees a reset instead of an orderly EOF — the harshest thing a
// real network does.
void hard_close(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

}  // namespace

ChaosTransport::ChaosTransport(const ChaosOptions& options) : options_(options) {
  require(options_.upstream_port != 0, "ChaosTransport: upstream_port required");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "ChaosTransport: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw PreconditionError(strf("ChaosTransport: cannot listen on port %u: %s",
                                 static_cast<unsigned>(options_.port),
                                 std::strerror(err)));
  }
  socklen_t len = sizeof(addr);
  require(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
          "ChaosTransport: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

ChaosTransport::~ChaosTransport() {
  stop();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ChaosTransport::run() {
  std::uint64_t conn_index = 0;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!stop_.load() && errno == EINTR) continue;
      break;
    }
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    const std::uint64_t index = conn_index++;
    {
      std::lock_guard<std::mutex> lk(conn_m_);
      conn_fds_.push_back(fd);
    }
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.connections;
    }
    threads_.emplace_back([this, fd, index] { pump_connection(fd, index); });
  }
  {
    std::lock_guard<std::mutex> lk(conn_m_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ChaosTransport::stop() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

ChaosStats ChaosTransport::stats() const {
  std::lock_guard<std::mutex> lk(stats_m_);
  return stats_;
}

bool ChaosTransport::forward(int fd, const std::string& payload,
                             std::uint64_t key) {
  const FaultPlan& plan = options_.faults;
  if (plan.fires(key, FaultKind::Reset)) {
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.resets;
    }
    return false;
  }
  if (plan.fires(key, FaultKind::Delay)) {
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.delayed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
  }
  if (plan.fires(key, FaultKind::Garbage)) {
    // Deterministic garbage where a frame belongs: a plausible-looking but
    // bogus length header followed by noise, then kill the link.  The
    // reader must fail with Truncated/TooLarge, never misparse.
    Pcg32 rng(plan.seed ^ (key * 0x9e3779b97f4a7c15ULL), 0xbadULL);
    std::string junk(16, '\0');
    for (char& c : junk) c = static_cast<char>(rng.next_u32() & 0xFF);
    write_bytes(fd, junk.data(), junk.size());
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.garbage;
    }
    return false;
  }
  if (plan.fires(key, FaultKind::TearFrame)) {
    // A strict prefix: at least 1 byte (the peer sees data arrive) and at
    // most all-but-one (the frame can never complete).
    const std::string wire = frame_bytes(payload);
    const std::size_t cut = std::max<std::size_t>(1, wire.size() / 2);
    write_bytes(fd, wire.data(), cut);
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.torn;
    }
    return false;
  }
  if (plan.fires(key, FaultKind::SplitWrite)) {
    // Many tiny writes exercise the peer's short-read reassembly.
    const std::string wire = frame_bytes(payload);
    constexpr std::size_t kChunk = 7;
    for (std::size_t at = 0; at < wire.size(); at += kChunk) {
      if (!write_bytes(fd, wire.data() + at, std::min(kChunk, wire.size() - at))) {
        return false;
      }
    }
    std::lock_guard<std::mutex> lk(stats_m_);
    ++stats_.split;
    ++stats_.frames;
    return true;
  }
  if (!write_frame(fd, payload)) return false;
  std::lock_guard<std::mutex> lk(stats_m_);
  ++stats_.frames;
  return true;
}

void ChaosTransport::pump_connection(int client_fd, std::uint64_t conn_index) {
  int up_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  bool killed = false;
  if (up_fd >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.upstream_port);
    if (::inet_pton(AF_INET, options_.upstream_host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(up_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(up_fd);
      up_fd = -1;
    } else {
      const int one = 1;
      ::setsockopt(up_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  if (up_fd >= 0) {
    FrameReader from_client(client_fd);
    FrameReader from_upstream(up_fd);
    std::string frame;
    for (std::uint64_t frame_index = 0;; ++frame_index) {
      if (from_client.next(frame) != FrameStatus::Ok) break;
      if (!forward(up_fd, frame, fault_key(conn_index, frame_index, 0))) {
        killed = true;
        break;
      }
      if (from_upstream.next(frame) != FrameStatus::Ok) break;
      if (!forward(client_fd, frame, fault_key(conn_index, frame_index, 1))) {
        killed = true;
        break;
      }
    }
    if (killed) {
      hard_close(up_fd);
    } else {
      ::close(up_fd);
    }
  }
  if (killed) {
    hard_close(client_fd);
  } else {
    ::close(client_fd);
  }
  std::lock_guard<std::mutex> lk(conn_m_);
  conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), client_fd));
}

}  // namespace ipass::serve

#else  // _WIN32

namespace ipass::serve {

ChaosTransport::ChaosTransport(const ChaosOptions& options) : options_(options) {
  throw PreconditionError("ChaosTransport: POSIX sockets unavailable on this platform");
}
ChaosTransport::~ChaosTransport() = default;
void ChaosTransport::run() {}
void ChaosTransport::stop() {}
ChaosStats ChaosTransport::stats() const { return {}; }
bool ChaosTransport::forward(int, const std::string&, std::uint64_t) { return false; }
void ChaosTransport::pump_connection(int, std::uint64_t) {}

}  // namespace ipass::serve

#endif
