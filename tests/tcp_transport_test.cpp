// Wire-layer hardening suite over REAL sockets: the deadline semantics,
// peer-death behavior and payload framing of the shared fd transport
// (frame_io.hpp), plus the TCP worker host / factory pair end to end.
//
// The deadline pins are the load-bearing ones:
//   * a peer stalled MID-frame cannot wedge recv past its timeout — the
//     total wait is <= timeout + epsilon, and the desynced link is poisoned;
//   * a peer TRICKLING bytes cannot extend the wait either — every poll
//     uses the remaining time to the deadline anchored at entry, so
//     progress never re-arms the clock;
//   * a dead peer surfaces as a failed send (MSG_NOSIGNAL -> EPIPE), never
//     SIGPIPE — the process surviving these tests IS the assertion;
//   * a frame leaves in ONE write on both sides (a record-keeping
//     SOCK_SEQPACKET pair makes the number of writes visible), and arrives
//     whole when signals keep interrupting that write.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <thread>
#include <vector>

#include "runtime/frame_io.hpp"
#include "runtime/muscle_table.hpp"
#include "runtime/subprocess_backend.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/transport.hpp"

namespace askel {
namespace {

using namespace std::chrono_literals;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A connected AF_UNIX stream pair: [0] wrapped in FdTransport, [1] raw for
/// the test to play the (mis)behaving peer.
struct Pair {
  std::unique_ptr<FdTransport> transport;
  int peer = -1;

  Pair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    transport = std::make_unique<FdTransport>(sv[0]);
    peer = sv[1];
  }
  ~Pair() {
    if (peer >= 0) ::close(peer);
  }
};

// ------------------------------------------------------ deadline honoring --

TEST(FrameIo, CleanTimeoutLeavesTheLinkAlive) {
  Pair p;
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, 0.05));
  EXPECT_LT(seconds_since(t0), 0.5);
  // Nothing was consumed: the stream is still in sync, the link stays up.
  EXPECT_TRUE(p.transport->alive());
}

TEST(FrameIo, StalledMidFrameHonorsTheDeadlineAndPoisonsTheLink) {
  Pair p;
  // The peer writes HALF a frame and stalls (descheduled, wedged, hostile).
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
  ASSERT_EQ(::send(p.peer, bytes.data(), 10, MSG_NOSIGNAL), 10);
  WireFrame f;
  const double timeout = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, timeout));
  const double waited = seconds_since(t0);
  // The satellite pin: total wait <= timeout + epsilon (generous for CI
  // load), and it genuinely waited out the deadline rather than bailing.
  EXPECT_LE(waited, timeout + 0.3);
  EXPECT_GE(waited, timeout * 0.5);
  // A timeout MID-frame means the byte stream is desynced for good.
  EXPECT_FALSE(p.transport->alive());
}

TEST(FrameIo, TricklingPeerCannotExtendTheDeadline) {
  Pair p;
  // One byte every 20 ms: under a per-read re-armed timeout a whole frame
  // (33 bytes) would take ~0.66 s and recv would never time out at all.
  // The anchored deadline must cut it off at `timeout` regardless.
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    const WireFrameBytes bytes = encode_frame(
        WireFrame{WireFrameType::kComplete, 0, 1, 0, 0});
    std::size_t at = 0;
    while (!stop.load(std::memory_order_acquire) && at < bytes.size()) {
      if (::send(p.peer, bytes.data() + at, 1, MSG_NOSIGNAL) != 1) break;
      ++at;
      std::this_thread::sleep_for(20ms);
    }
  });
  WireFrame f;
  const double timeout = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, timeout));
  const double waited = seconds_since(t0);
  stop.store(true, std::memory_order_release);
  trickler.join();
  EXPECT_LE(waited, timeout + 0.3);     // progress never re-armed the clock
  EXPECT_FALSE(p.transport->alive());   // partial frame = desynced
}

TEST(FrameIo, ZeroTimeoutDeliversAFrameAlreadyBuffered) {
  // Transport::recv's contract: 0 = only what is already deliverable. A
  // deadline that has passed must still hand over a frame that is waiting
  // whole — a caller out of time books it instead of a loss.
  Pair p;
  const WireFrame sent{WireFrameType::kComplete, 2, 7, 0, 0};
  const WireFrameBytes bytes = encode_frame(sent);
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), bytes.size()));
  WireFrame f;
  ASSERT_TRUE(p.transport->recv(f, 0.0));
  EXPECT_EQ(f, sent);
  // With nothing waiting, zero is a clean timeout on a live link.
  EXPECT_FALSE(p.transport->recv(f, 0.0));
  EXPECT_TRUE(p.transport->alive());
}

// --------------------------------------------------------- peer death ------

TEST(FrameIo, DeadPeerFailsTheSendInsteadOfRaisingSigpipe) {
  Pair p;
  ::close(p.peer);
  p.peer = -1;
  // The first send may land in the kernel buffer of a half-closed pair;
  // by the second the RST/EPIPE is definitive. Surviving this loop at all
  // is the SIGPIPE regression assertion (MSG_NOSIGNAL on every send path).
  bool failed = false;
  for (int k = 0; k < 4 && !failed; ++k) {
    failed = !p.transport->send(WireFrame{WireFrameType::kHeartbeat, 0,
                                          static_cast<std::uint64_t>(k), 0, 0});
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(p.transport->alive());
}

TEST(FrameIo, PeerCloseSurfacesAsDeadLinkOnRecv) {
  Pair p;
  ::close(p.peer);
  p.peer = -1;
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.transport->recv(f, 5.0));
  EXPECT_LT(seconds_since(t0), 1.0);  // EOF is immediate, not a timeout
  EXPECT_FALSE(p.transport->alive());
}

// ----------------------------------------------------------- payload I/O ---

TEST(FrameIo, NamedFramesRoundTripPayloadOverARealSocket) {
  Pair p;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  const WireFrame f{WireFrameType::kSubmitNamed, 3, 9, 7,
                    static_cast<std::uint64_t>(payload.size())};
  ASSERT_TRUE(p.transport->send(f, payload.data(), payload.size()));
  WireFrame got;
  std::vector<std::uint8_t> got_payload;
  ASSERT_EQ(frame_io::read_frame(p.peer, 1.0, got, &got_payload),
            frame_io::ReadResult::kFrame);
  EXPECT_EQ(got, f);
  EXPECT_EQ(got_payload, payload);
}

TEST(FrameIo, PayloadlessRecvConsumesThePayloadToKeepSync) {
  Pair p;
  const std::vector<std::uint8_t> payload = {9, 9, 9, 9};
  ASSERT_TRUE(p.transport->send(
      WireFrame{WireFrameType::kResultNamed, 0, 1, 0, payload.size()},
      payload.data(), payload.size()));
  ASSERT_TRUE(p.transport->send(
      WireFrame{WireFrameType::kComplete, 0, 2, 0, 0}));
  // Reading the named frame through the frame-only overload must discard
  // the payload bytes, leaving the NEXT frame intact on the stream.
  WireFrame f;
  ASSERT_EQ(frame_io::read_frame(p.peer, 1.0, f, nullptr),
            frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kResultNamed);
  ASSERT_EQ(frame_io::read_frame(p.peer, 1.0, f, nullptr),
            frame_io::ReadResult::kFrame);
  EXPECT_EQ(f.type, WireFrameType::kComplete);
  EXPECT_EQ(f.seq, 2u);
}

TEST(FrameIo, OversizedAdvertisedPayloadPoisonsNeverAllocates) {
  Pair p;
  const WireFrameBytes bytes = encode_frame(
      WireFrame{WireFrameType::kSubmitNamed, 0, 1, 1, kMaxNamedPayload + 1});
  ASSERT_TRUE(frame_io::write_full(p.peer, bytes.data(), bytes.size()));
  WireFrame f;
  EXPECT_FALSE(p.transport->recv(f, 0.5));
  EXPECT_FALSE(p.transport->alive());  // hostile length = poisoned link
}

// ------------------------------------------------------ one write each ---

/// A connected AF_UNIX SOCK_SEQPACKET pair. It keeps record boundaries, so
/// one recv returns what one write sent: the number of writes a frame took
/// becomes visible. Reads on [1] give up after 5 s instead of hanging.
struct RecordPair {
  int fd[2] = {-1, -1};

  RecordPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fd), 0);
    const timeval patience{5, 0};
    EXPECT_EQ(::setsockopt(fd[1], SOL_SOCKET, SO_RCVTIMEO, &patience,
                           sizeof(patience)),
              0);
  }
  ~RecordPair() {
    for (const int s : fd) {
      if (s >= 0) ::close(s);
    }
  }
  using Record = std::array<std::uint8_t, 256>;

  /// The size of the next record on [1], copied into `buf`; -1 on error.
  ssize_t read_record(Record& buf) {
    ssize_t n;
    do {
      n = ::recv(fd[1], buf.data(), buf.size(), 0);
    } while (n < 0 && errno == EINTR);
    return n;
  }
};

TEST(FrameIo, PoolSendsHeaderAndPayloadInOneWrite) {
  RecordPair p;
  FdTransport pool(p.fd[0]);
  p.fd[0] = -1;  // the transport owns it now
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6};
  const WireFrame f{WireFrameType::kSubmitNamed, 0, 1, 7,
                    static_cast<std::uint64_t>(payload.size())};
  ASSERT_TRUE(pool.send(f, payload.data(), payload.size()));
  RecordPair::Record rec{};
  const ssize_t n = p.read_record(rec);
  ASSERT_EQ(n, static_cast<ssize_t>(kWireFrameSize + payload.size()));
  WireFrame got;
  ASSERT_TRUE(decode_frame(rec.data(), kWireFrameSize, got));
  EXPECT_EQ(got, f);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         rec.begin() + kWireFrameSize));
}

TEST(FrameIo, ServeRepliesWithHeaderAndPayloadInOneWrite) {
  RecordPair p;
  const frame_io::NamedHandler reverse =
      [](std::uint64_t, const std::uint8_t* arg, std::size_t size,
         std::vector<std::uint8_t>& result) {
        result.assign(arg, arg + size);
        std::reverse(result.begin(), result.end());
        return NamedStatus::kOk;
      };
  std::thread worker([&] { frame_io::serve(p.fd[0], 0, 1, 0, reverse); });
  RecordPair::Record hello{};
  const ssize_t hello_size = p.read_record(hello);
  // The call's header and payload arrive as two records, as a peer or TCP
  // segmentation may split them; the reply must still leave as one.
  const std::vector<std::uint8_t> arg = {1, 2, 3, 4, 5};
  const WireFrameBytes head = encode_frame(
      WireFrame{WireFrameType::kSubmitNamed, 0, 1, 9,
                static_cast<std::uint64_t>(arg.size())});
  const bool wrote = frame_io::write_full(p.fd[1], head.data(), head.size()) &&
                     frame_io::write_full(p.fd[1], arg.data(), arg.size());
  RecordPair::Record rec{};
  const ssize_t n = wrote ? p.read_record(rec) : -1;
  ::shutdown(p.fd[0], SHUT_RDWR);  // the serve loop wakes with EOF
  worker.join();

  ASSERT_EQ(hello_size, static_cast<ssize_t>(kWireFrameSize));
  WireFrame f;
  ASSERT_TRUE(decode_frame(hello.data(), kWireFrameSize, f));
  EXPECT_EQ(f.type, WireFrameType::kHello);
  ASSERT_TRUE(wrote);
  ASSERT_EQ(n, static_cast<ssize_t>(kWireFrameSize + arg.size()));
  ASSERT_TRUE(decode_frame(rec.data(), kWireFrameSize, f));
  EXPECT_EQ(f.type, WireFrameType::kResultNamed);
  EXPECT_EQ(f.seq, 1u);
  EXPECT_EQ(f.a, static_cast<std::uint64_t>(NamedStatus::kOk));
  EXPECT_EQ(f.b, arg.size());
  EXPECT_EQ(std::vector<std::uint8_t>(rec.begin() + kWireFrameSize,
                                      rec.begin() + n),
            (std::vector<std::uint8_t>{5, 4, 3, 2, 1}));
}

/// SIGUSR1 deliveries. A lock-free atomic is safe to touch in a handler.
std::atomic<int> g_interrupts{0};

TEST(FrameIo, SignalDuringAWriteStillDeliversTheWholeFrame) {
  // A send buffer far smaller than the frame keeps the writer blocked in
  // sendmsg while a slow reader drains it. SIGUSR1, installed without
  // SA_RESTART, cuts that write short (a partial count) or fails it with
  // EINTR, again and again; every resume must pick up at the first
  // unwritten byte, so the peer reads header and payload byte for byte.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;
  ASSERT_EQ(
      ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  const timeval patience{5, 0};
  ASSERT_EQ(::setsockopt(sv[1], SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof(patience)),
            0);
  struct sigaction on_usr1 {};
  struct sigaction saved {};
  on_usr1.sa_handler = [](int) {
    g_interrupts.fetch_add(1, std::memory_order_relaxed);
  };
  sigemptyset(&on_usr1.sa_mask);
  on_usr1.sa_flags = 0;  // no SA_RESTART: a blocked sendmsg returns early
  ASSERT_EQ(::sigaction(SIGUSR1, &on_usr1, &saved), 0);
  g_interrupts.store(0, std::memory_order_relaxed);

  FdTransport writer_end(sv[0]);
  std::vector<std::uint8_t> payload(kMaxNamedPayload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + i / 251);
  }
  const WireFrame f{WireFrameType::kSubmitNamed, 2, 5, 7,
                    static_cast<std::uint64_t>(payload.size())};
  std::atomic<bool> written{false};
  bool sent = false;
  std::thread writer([&] {
    sent = writer_end.send(f, payload.data(), payload.size());
    written.store(true, std::memory_order_release);
  });
  const pthread_t target = writer.native_handle();
  std::thread interrupter([&written, target] {
    while (!written.load(std::memory_order_acquire)) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(200us);
    }
  });
  // The slow reader: 1 KiB at a time with a pause between.
  std::vector<std::uint8_t> got;
  std::array<std::uint8_t, 1024> chunk{};
  while (got.size() < kWireFrameSize + payload.size()) {
    const ssize_t n = ::recv(sv[1], chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // timed out or EOF: the frame never completed
    got.insert(got.end(), chunk.begin(), chunk.begin() + n);
    std::this_thread::sleep_for(100us);
  }
  ::close(sv[1]);  // a writer still blocked fails with EPIPE instead of hanging
  interrupter.join();
  writer.join();
  // The writer thread is gone, so no SIGUSR1 is left pending for it.
  ::sigaction(SIGUSR1, &saved, nullptr);

  EXPECT_TRUE(sent);
  EXPECT_GT(g_interrupts.load(std::memory_order_relaxed), 0);
  ASSERT_EQ(got.size(), kWireFrameSize + payload.size());
  WireFrame head;
  ASSERT_TRUE(decode_frame(got.data(), kWireFrameSize, head));
  EXPECT_EQ(head, f);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         got.begin() + kWireFrameSize));
}

// ------------------------------------------------- host + factory, E2E -----

/// A raw loopback connection to `host` with its Hello already read: the
/// test plays the pool side byte by byte. -1 when the join fails.
int dial(const TcpWorkerHost& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(host.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  WireFrame hello;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      frame_io::read_frame(fd, 2.0, hello, nullptr) !=
          frame_io::ReadResult::kFrame ||
      hello.type != WireFrameType::kHello) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_frame(int fd, const WireFrame& f) {
  const WireFrameBytes bytes = encode_frame(f);
  return frame_io::write_full(fd, bytes.data(), bytes.size());
}

TEST(TcpTransport, ConnectJoinsAndServesTheLeaseProtocol) {
  TcpWorkerHost host;
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  TcpTransportFactory factory(cfg);
  TransportFactory::Connect c = factory.try_connect(0);
  ASSERT_FALSE(c.failed);
  ASSERT_NE(c.transport, nullptr);  // hello already consumed by the factory
  // Submit -> Complete, batch-transparent.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kSubmit, 0, 1, 0, 16}));
  WireFrame f;
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kComplete);
  EXPECT_EQ(f.seq, 1u);
  // Heartbeat -> ack.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kHeartbeat, 0, 2, 0, 0}));
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kHeartbeatAck);
  EXPECT_EQ(f.seq, 2u);
  // Retire -> retired.
  ASSERT_TRUE(c.transport->send(
      WireFrame{WireFrameType::kRetire, 0, 3, 0, 0}));
  ASSERT_TRUE(c.transport->recv(f, 2.0));
  EXPECT_EQ(f.type, WireFrameType::kRetired);
  const auto joins = factory.join_latencies_us();
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_GT(joins[0], 0.0);
  EXPECT_EQ(host.sessions_accepted(), 1u);
}

TEST(TcpTransport, ExecutesRegisteredMusclesAndAnswersProtocolErrors) {
  MuscleTable table;
  const WireMuscleId dbl = table.register_muscle(
      "double", [](const PodValue& v) {
        return PodValue::of_i64(v.as_i64() * 2);
      });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  TcpTransportFactory factory(cfg);
  TransportFactory::Connect c = factory.try_connect(0);
  ASSERT_NE(c.transport, nullptr);
  // kOk: the registered muscle really executed on the worker host.
  WireFrame reply;
  std::vector<std::uint8_t> result;
  {
    SCOPED_TRACE("ok");
    std::vector<std::uint8_t> wire_arg = encode_pod(PodValue::of_i64(21));
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 1, dbl,
                  static_cast<std::uint64_t>(wire_arg.size())},
        wire_arg.data(), wire_arg.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.type, WireFrameType::kResultNamed);
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kOk));
    PodValue out;
    ASSERT_TRUE(decode_pod(result.data(), result.size(), out));
    EXPECT_EQ(out.as_i64(), 42);
  }
  // kUnknownMuscle: a reply, not a torn link.
  {
    SCOPED_TRACE("unknown");
    std::vector<std::uint8_t> wire_arg = encode_pod(PodValue::of_void());
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 2, 999,
                  static_cast<std::uint64_t>(wire_arg.size())},
        wire_arg.data(), wire_arg.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kUnknownMuscle));
  }
  // kBadArgument: a payload that does not decode.
  {
    SCOPED_TRACE("bad-argument");
    const std::vector<std::uint8_t> garbage = {0xDE, 0xAD};
    ASSERT_TRUE(c.transport->send(
        WireFrame{WireFrameType::kSubmitNamed, 0, 3, dbl,
                  static_cast<std::uint64_t>(garbage.size())},
        garbage.data(), garbage.size()));
    ASSERT_TRUE(c.transport->recv(reply, result, 2.0));
    EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kBadArgument));
  }
  // The link survived every protocol error and still serves leases.
  ASSERT_TRUE(c.transport->send(WireFrame{WireFrameType::kSubmit, 0, 4, 0, 0}));
  ASSERT_TRUE(c.transport->recv(reply, 2.0));
  EXPECT_EQ(reply.type, WireFrameType::kComplete);
  EXPECT_EQ(host.named_calls(), 3u);
  EXPECT_EQ(host.named_errors(), 2u);
}

TEST(TcpTransport, ConnectToNobodyFailsWithinTheDeadline) {
  // Bind-then-close: the port is (almost surely) unserved again; loopback
  // refuses immediately, and try_connect must report failure, not hang.
  TcpBackendConfig cfg;
  {
    TcpWorkerHost ephemeral;
    ASSERT_TRUE(ephemeral.listening());
    cfg.port = ephemeral.port();
  }  // host gone: the port is closed again
  cfg.connect_timeout = 1.0;
  TcpTransportFactory factory(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const TransportFactory::Connect c = factory.try_connect(0);
  EXPECT_TRUE(c.failed);
  EXPECT_EQ(c.transport, nullptr);
  EXPECT_LT(seconds_since(t0), 2.0);
}

TEST(TcpBackend, NamedCallEndToEndThroughTheSessionMachine) {
  MuscleTable table;
  table.register_muscle("sum-bytes", [](const PodValue& v) {
    std::int64_t sum = 0;
    for (const char c : v.as_bytes()) sum += static_cast<unsigned char>(c);
    return PodValue::of_i64(sum);
  });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  cfg.max_workers = 2;
  TcpBackend backend(cfg);
  backend.bind([](int, bool) {});
  ASSERT_NE(backend.provision(0, 1), WorkerBackend::Provision::kFailed);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  const NamedCallResult ok =
      backend.call_named(0, 1, PodValue::of_bytes("\x01\x02\x03"));
  ASSERT_TRUE(ok.transported);
  EXPECT_EQ(ok.status, NamedStatus::kOk);
  EXPECT_EQ(ok.value.as_i64(), 6);
  const NamedCallResult unknown =
      backend.call_named(0, 42, PodValue::of_void());
  ASSERT_TRUE(unknown.transported);
  EXPECT_EQ(unknown.status, NamedStatus::kUnknownMuscle);
  const RemoteBackendStats s = backend.stats();
  EXPECT_EQ(s.named_calls, 2u);
  EXPECT_EQ(s.named_errors, 1u);
  EXPECT_EQ(s.leases, s.completes + s.losses_recovered);
  EXPECT_EQ(s.losses_recovered, 0u);
}

TEST(TcpWorkerHost, NamedPayloadArrivingLateStillGetsItsReply) {
  // askel writes a named call's header and payload in one write, but a
  // peer or TCP segmentation can still split them, and a descheduled writer
  // can leave a gap between the parts. Only the wait for a frame's FIRST
  // byte is unbounded — the payload gets the frame deadline, so a 150 ms
  // gap is a slow frame, not a torn link.
  MuscleTable table;
  const WireMuscleId dbl = table.register_muscle(
      "double", [](const PodValue& v) {
        return PodValue::of_i64(v.as_i64() * 2);
      });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  const int fd = dial(host);
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> arg = encode_pod(PodValue::of_i64(21));
  ASSERT_TRUE(write_frame(
      fd, WireFrame{WireFrameType::kSubmitNamed, 0, 1, dbl,
                    static_cast<std::uint64_t>(arg.size())}));
  std::this_thread::sleep_for(150ms);
  ASSERT_TRUE(frame_io::write_full(fd, arg.data(), arg.size()));
  WireFrame reply;
  std::vector<std::uint8_t> result;
  ASSERT_EQ(frame_io::read_frame(fd, 2.0, reply, &result),
            frame_io::ReadResult::kFrame);
  EXPECT_EQ(reply.type, WireFrameType::kResultNamed);
  EXPECT_EQ(reply.a, static_cast<std::uint64_t>(NamedStatus::kOk));
  PodValue out;
  ASSERT_TRUE(decode_pod(result.data(), result.size(), out));
  EXPECT_EQ(out.as_i64(), 42);
  // The session is still live.
  ASSERT_TRUE(
      write_frame(fd, WireFrame{WireFrameType::kHeartbeat, 0, 2, 0, 0}));
  ASSERT_EQ(frame_io::read_frame(fd, 2.0, reply, nullptr),
            frame_io::ReadResult::kFrame);
  EXPECT_EQ(reply.type, WireFrameType::kHeartbeatAck);
  EXPECT_EQ(reply.seq, 2u);
  ::close(fd);
}

TEST(TcpWorkerHost, HeaderWhosePayloadNeverArrivesEndsTheSession) {
  TcpWorkerHost host;
  ASSERT_TRUE(host.listening());
  const int fd = dial(host);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      write_frame(fd, WireFrame{WireFrameType::kSubmitNamed, 0, 1, 1, 8}));
  WireFrame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(frame_io::read_frame(fd, frame_io::kServeFrameDeadline + 5.0, f,
                                 nullptr),
            frame_io::ReadResult::kClosed);
  const double waited = seconds_since(t0);
  EXPECT_GE(waited, frame_io::kServeFrameDeadline * 0.5);
  EXPECT_LE(waited, frame_io::kServeFrameDeadline + 0.5);
  ::close(fd);
}

TEST(TcpWorkerHost, StopDoesNotWaitOutAFrameDeadline) {
  // One session idle, one stalled mid-frame (header in, payload never
  // sent): stop() shuts both sockets down, and neither serve loop may sit
  // out the rest of its frame deadline.
  TcpWorkerHost host;
  ASSERT_TRUE(host.listening());
  const int idle = dial(host);
  const int stalled = dial(host);
  ASSERT_GE(idle, 0);
  ASSERT_GE(stalled, 0);
  ASSERT_TRUE(
      write_frame(stalled, WireFrame{WireFrameType::kSubmitNamed, 0, 1, 1, 8}));
  std::this_thread::sleep_for(20ms);  // the host is inside that frame now
  const auto t0 = std::chrono::steady_clock::now();
  host.stop();
  EXPECT_LT(seconds_since(t0), frame_io::kServeFrameDeadline / 2);
  ::close(idle);
  ::close(stalled);
}

TEST(TcpBackend, NamedCallInsideALeasedTaskCreditsTheTaskBracket) {
  // The pool brackets every task with a lease on this same backend; the
  // named call inside the task reads the bracket's Complete first and must
  // credit it, so task_end returns without waiting out complete_timeout.
  MuscleTable table;
  const WireMuscleId inc =
      table.register_muscle("inc", [](const PodValue& v) {
        return PodValue::of_i64(v.as_i64() + 1);
      });
  TcpWorkerHost host(table);
  ASSERT_TRUE(host.listening());
  TcpBackendConfig cfg;
  cfg.port = host.port();
  cfg.max_workers = 1;
  TcpBackend backend(cfg);
  ResizableThreadPool pool(1, 1);
  pool.set_backend(&backend);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  std::atomic<int> ok{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 3; ++k) {
    pool.submit([&backend, &ok, inc, k] {
      const NamedCallResult res =
          backend.call_named(0, inc, PodValue::of_i64(k));
      if (res.transported && res.status == NamedStatus::kOk &&
          res.value.as_i64() == k + 1) {
        ++ok;
      }
    });
  }
  pool.wait_idle();
  const double took = seconds_since(t0);
  pool.set_backend(nullptr);
  EXPECT_EQ(ok.load(), 3);
  EXPECT_LT(took, cfg.complete_timeout / 2);
  const RemoteBackendStats s = backend.stats();
  EXPECT_EQ(s.leases, 6u);
  EXPECT_EQ(s.completes, 6u);
  EXPECT_EQ(s.losses_recovered, 0u);
  EXPECT_EQ(s.ignored_completes, 0u);
}

TEST(SubprocessNamed, ForkChildAnswersUnsupportedWithoutDesyncing) {
  // The fork child has no muscle table; it must consume the argument
  // payload (stream stays in sync) and answer kUnsupported — after which
  // the ordinary lease protocol still works on the same link.
  SubprocessBackendConfig cfg;
  cfg.max_workers = 1;
  SubprocessBackend backend(cfg);
  backend.bind([](int, bool) {});
  ASSERT_NE(backend.provision(0, 1), WorkerBackend::Provision::kFailed);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (backend.live_sessions() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(backend.live_sessions(), 1);
  const NamedCallResult res =
      backend.call_named(0, 1, PodValue::of_bytes("payload to consume"));
  ASSERT_TRUE(res.transported);
  EXPECT_EQ(res.status, NamedStatus::kUnsupported);
  // The link is intact: an ordinary lease still round-trips.
  const std::uint64_t lease = backend.task_begin(0, 0);
  ASSERT_NE(lease, 0u);
  backend.task_end(0, lease);
  const RemoteBackendStats s = backend.stats();
  EXPECT_EQ(s.leases, 2u);
  EXPECT_EQ(s.completes, 2u);
  EXPECT_EQ(s.losses_recovered, 0u);
}

}  // namespace
}  // namespace askel
