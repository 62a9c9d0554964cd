#include "runtime/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "runtime/frame_io.hpp"

namespace askel {

namespace {

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

}  // namespace

// ---- worker-host side -------------------------------------------------------

TcpWorkerHost::TcpWorkerHost(MuscleTable& table, TcpWorkerHostConfig cfg)
    : table_(table), cfg_(cfg) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpWorkerHost::~TcpWorkerHost() { stop(); }

void TcpWorkerHost::stop() {
  if (stop_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown is not defined for listeners everywhere; close() alone wakes
    // the acceptor's poll with POLLNVAL/err and it checks stop_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    // Kick every live session out of its read: shutdown delivers EOF; the
    // serve loop owns the close() itself. accept_loop registers a fd only
    // under mu_ after re-checking stop_, so none is missed.
    std::lock_guard lock(mu_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> sessions;
  {
    std::lock_guard lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& t : sessions) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

void TcpWorkerHost::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r;
    do {
      r = ::poll(&pfd, 1, 50);
    } while (r < 0 && errno == EINTR);
    if (stop_.load(std::memory_order_acquire)) return;
    if (r <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(mu_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    ++accepted_;
    session_fds_.push_back(fd);
    sessions_.emplace_back([this, fd] { serve(fd); });
  }
}

void TcpWorkerHost::serve(int fd) {
  frame_io::serve(
      fd, 0, static_cast<std::uint64_t>(::getpid()), cfg_.crash_after_tasks,
      [this](std::uint64_t id, const std::uint8_t* arg, std::size_t size,
             std::vector<std::uint8_t>& result) {
        return run_named(static_cast<WireMuscleId>(id), arg, size, result);
      });
  {
    std::lock_guard lock(mu_);
    std::erase(session_fds_, fd);
  }
  ::close(fd);
}

NamedStatus TcpWorkerHost::run_named(WireMuscleId id, const std::uint8_t* arg,
                                     std::size_t size,
                                     std::vector<std::uint8_t>& result) {
  PodValue value, out;
  NamedStatus status = NamedStatus::kOk;
  if (!decode_pod(arg, size, value)) {
    status = NamedStatus::kBadArgument;
  } else if (!table_.invoke(id, value, out)) {
    status = NamedStatus::kUnknownMuscle;
  } else {
    result = encode_pod(out);
    if (result.size() > kMaxNamedPayload) {
      // A result too large for the wire is the muscle's bug; answer it as a
      // protocol error rather than poisoning the link.
      status = NamedStatus::kBadArgument;
      result.clear();
    }
  }
  std::lock_guard lock(mu_);
  ++named_calls_;
  if (status != NamedStatus::kOk) ++named_errors_;
  return status;
}

std::uint64_t TcpWorkerHost::sessions_accepted() const {
  std::lock_guard lock(mu_);
  return accepted_;
}

std::uint64_t TcpWorkerHost::named_calls() const {
  std::lock_guard lock(mu_);
  return named_calls_;
}

std::uint64_t TcpWorkerHost::named_errors() const {
  std::lock_guard lock(mu_);
  return named_errors_;
}

// ---- pool side --------------------------------------------------------------

TcpTransportFactory::TcpTransportFactory(TcpBackendConfig cfg)
    : cfg_(std::move(cfg)) {}

TransportFactory::Connect TcpTransportFactory::try_connect(int worker) {
  if (worker >= cfg_.max_workers) return Connect{nullptr, true};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    return Connect{nullptr, true};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Connect{nullptr, true};
  // One deadline, anchored HERE, covers the nonblocking connect and the
  // hello wait — the same shape as the subprocess fork + hello join.
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration<double>(std::max(0.0, cfg_.connect_timeout));
  if (!set_nonblocking(fd, true)) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  if (rc != 0) {
    for (;;) {
      const double remaining_s =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      if (remaining_s <= 0.0) {
        ::close(fd);
        return Connect{nullptr, true};
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      int r;
      do {
        r = ::poll(&pfd, 1,
                   static_cast<int>(std::ceil(remaining_s * 1000.0)));
      } while (r < 0 && errno == EINTR);
      if (r > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Connect{nullptr, true};
    }
  }
  if (!set_nonblocking(fd, false)) {
    ::close(fd);
    return Connect{nullptr, true};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::make_unique<FdTransport>(fd);
  const double hello_wait =
      std::chrono::duration<double>(deadline - std::chrono::steady_clock::now())
          .count();
  WireFrame hello;
  if (!transport->recv(hello, std::max(0.0, hello_wait)) ||
      hello.type != WireFrameType::kHello) {
    return Connect{nullptr, true};  // transport dtor closes the socket
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    std::lock_guard lock(mu_);
    join_us_.push_back(us);
  }
  return Connect{std::move(transport), false};
}

std::vector<double> TcpTransportFactory::join_latencies_us() const {
  std::lock_guard lock(mu_);
  return join_us_;
}

}  // namespace askel
