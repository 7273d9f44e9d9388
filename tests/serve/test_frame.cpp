// Wire framing: FrameReader yields every whole frame a recv delivered, at
// any split of the byte stream, classifies each way a stream can end, and
// refuses a hostile length before allocating for it; write_frame's gather
// send resumes after a partial send.
#include "serve/socket.hpp"

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace ipass::serve {
namespace {

// A connected pair of AF_UNIX sockets, closed on scope exit.
struct SocketPair {
  explicit SocketPair(int type = SOCK_STREAM) {
    EXPECT_EQ(::socketpair(AF_UNIX, type, 0, fd), 0);
  }
  ~SocketPair() {
    for (const int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
  void close_writer() {
    ::close(fd[0]);
    fd[0] = -1;
  }
  int fd[2] = {-1, -1};  // [0] writes, [1] reads
};

void send_all(int fd, const std::string& bytes) {
  ASSERT_TRUE(write_bytes(fd, bytes.data(), bytes.size()));
}

// SOCK_SEQPACKET keeps message boundaries: each recv returns exactly one
// of the pieces sent, so the reader sees the stream split exactly there,
// whatever the scheduling.
TEST(FrameReader, FrameSplitAtEveryByteReassembles) {
  const std::string payload = R"({"id": "split"})";
  const std::string wire = frame_bytes(payload);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    SocketPair pair(SOCK_SEQPACKET);
    send_all(pair.fd[0], wire.substr(0, cut));
    send_all(pair.fd[0], wire.substr(cut));
    pair.close_writer();
    FrameReader reader(pair.fd[1]);
    std::string got;
    ASSERT_EQ(reader.next(got), FrameStatus::Ok) << "cut at " << cut;
    EXPECT_EQ(got, payload) << "cut at " << cut;
    EXPECT_EQ(reader.recv_calls(), 2U) << "cut at " << cut;
    EXPECT_EQ(reader.next(got), FrameStatus::Eof) << "cut at " << cut;
  }
}

TEST(FrameReader, FrameDeliveredOneByteAtATimeReassembles) {
  const std::string payload = "one byte per recv";
  const std::string wire = frame_bytes(payload);
  SocketPair pair(SOCK_SEQPACKET);
  for (const char c : wire) send_all(pair.fd[0], std::string(1, c));
  FrameReader reader(pair.fd[1]);
  std::string got;
  ASSERT_EQ(reader.next(got), FrameStatus::Ok);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(reader.recv_calls(), wire.size());
}

TEST(FrameReader, PipelinedFramesInOneRecvNeedNoOtherCall) {
  const std::vector<std::string> payloads = {"first", "", R"({"id": "third"})"};
  std::string wire;
  for (const std::string& p : payloads) wire += frame_bytes(p);
  SocketPair pair;
  send_all(pair.fd[0], wire);
  pair.close_writer();
  FrameReader reader(pair.fd[1]);
  std::string got;
  for (const std::string& p : payloads) {
    ASSERT_EQ(reader.next(got), FrameStatus::Ok);
    EXPECT_EQ(got, p);
  }
  EXPECT_EQ(reader.recv_calls(), 1U);
  EXPECT_EQ(reader.next(got), FrameStatus::Eof);
  EXPECT_EQ(reader.recv_calls(), 2U);
}

TEST(FrameReader, HostileLengthIsTooLargeWithoutAllocating) {
  for (const std::uint32_t size : {static_cast<std::uint32_t>(kMaxFrameBytes + 1),
                                   static_cast<std::uint32_t>(0xFFFFFFFFU)}) {
    SocketPair pair;
    std::string header = frame_bytes("");
    header[0] = static_cast<char>(size >> 24);
    header[1] = static_cast<char>(size >> 16);
    header[2] = static_cast<char>(size >> 8);
    header[3] = static_cast<char>(size);
    send_all(pair.fd[0], header + "some bytes that never form the frame");
    FrameReader reader(pair.fd[1]);
    std::string got;
    EXPECT_EQ(reader.next(got), FrameStatus::TooLarge) << size;
    EXPECT_EQ(reader.capacity(), FrameReader::kInitialBytes) << size;
  }
}

TEST(FrameReader, EofClassification) {
  const std::string wire = frame_bytes("0123456789");
  std::string got;
  {
    SocketPair pair;  // nothing at all
    pair.close_writer();
    FrameReader reader(pair.fd[1]);
    EXPECT_EQ(reader.next(got), FrameStatus::Eof);
  }
  {
    SocketPair pair;  // between frames
    send_all(pair.fd[0], wire);
    pair.close_writer();
    FrameReader reader(pair.fd[1]);
    EXPECT_EQ(reader.next(got), FrameStatus::Ok);
    EXPECT_EQ(reader.next(got), FrameStatus::Eof);
  }
  for (const std::size_t cut : {std::size_t{1}, std::size_t{3}}) {
    SocketPair pair;  // mid-header
    send_all(pair.fd[0], wire.substr(0, cut));
    pair.close_writer();
    FrameReader reader(pair.fd[1]);
    EXPECT_EQ(reader.next(got), FrameStatus::Truncated) << "cut at " << cut;
  }
  for (const std::size_t cut : {std::size_t{4}, std::size_t{9}, wire.size() - 1}) {
    SocketPair pair;  // mid-body, the header whole
    send_all(pair.fd[0], wire + wire.substr(0, cut));
    pair.close_writer();
    FrameReader reader(pair.fd[1]);
    EXPECT_EQ(reader.next(got), FrameStatus::Ok) << "cut at " << cut;
    EXPECT_EQ(reader.next(got), FrameStatus::Truncated) << "cut at " << cut;
  }
}

// The largest legal frame is read whole, and the buffer grows exactly to
// it, not beyond.
TEST(FrameReader, FrameOfExactlyTheCapIsAccepted) {
  std::string payload(kMaxFrameBytes, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 4093) {
    payload[i] = static_cast<char>(i);
  }
  SocketPair pair;
  bool sent = false;
  std::thread writer([&] {
    sent = write_frame(pair.fd[0], payload);
    pair.close_writer();
  });
  FrameReader reader(pair.fd[1]);
  std::string got;
  EXPECT_EQ(reader.next(got), FrameStatus::Ok);
  writer.join();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(got == payload);
  EXPECT_EQ(reader.capacity(), kMaxFrameBytes + 4);
  EXPECT_EQ(reader.next(got), FrameStatus::Eof);
}

void on_signal(int) {}

// A signal that lands while the sender is blocked mid-frame makes sendmsg
// return the bytes sent so far; write_frame must resume the gather from
// exactly there.
TEST(WriteFrame, ResumesAfterAPartialSend) {
  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the blocked send returns early
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  SocketPair pair;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.fd[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  std::string payload(1U << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) >> 7);
  }
  std::uint64_t send_calls = 0;
  std::atomic<bool> done{false};
  bool sent = false;
  std::thread writer([&] {
    sent = write_frame(pair.fd[0], payload, &send_calls);
    done = true;
  });
  // The receive side is idle, so the writer fills the socket buffers and
  // blocks; each signal then cuts its current send short.
  for (int i = 0; i < 3 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  FrameReader reader(pair.fd[1]);
  std::string got;
  EXPECT_EQ(reader.next(got), FrameStatus::Ok);
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
  EXPECT_TRUE(sent);
  EXPECT_GE(send_calls, 2U);
  EXPECT_TRUE(got == payload) << "resumed at the wrong offset";
}

}  // namespace
}  // namespace ipass::serve
