#include "runtime/subprocess_backend.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

#include "runtime/frame_io.hpp"

namespace askel {
namespace {

// ---- the parent-side transport ---------------------------------------------

/// The shared FdTransport (frame_io.hpp) plus subprocess teardown: when the
/// fd closes, un-register it from the factory's inherit list and reap the
/// child. The frame I/O itself — MSG_NOSIGNAL sends, the anchored-deadline
/// recv — is the one audited copy in frame_io.cpp, identical to TCP's.
class PipeTransport final : public FdTransport {
 public:
  PipeTransport(int fd, pid_t pid, SubprocessTransportFactory* factory)
      : FdTransport(fd), pid_(pid), factory_(factory) {}
  // Close from the most-derived dtor so on_close_locked still sees a whole
  // PipeTransport (the base dtor's backstop close would not).
  ~PipeTransport() override { close(); }

 protected:
  void on_close_locked(int fd) override {
    // Pure teardown: the Retire frame (when one is due) is the session
    // layer's business (RemoteWorkerBackend::release); the fd close
    // delivers EOF, which the child also treats as "retire now".
    if (factory_ != nullptr) factory_->forget_parent_fd(fd);
    reap();
  }

 private:
  void reap() {
    if (pid_ <= 0) return;
    // close() can run under the pool's control mutex (shrink path), so the
    // grace period must stay tiny: a healthy child exits on Retire/EOF in
    // well under a millisecond, and after SIGKILL waitpid returns
    // immediately even for a wedged (e.g. stopped) child.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    for (;;) {
      const pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        pid_ = -1;
        return;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  pid_t pid_ = -1;
  SubprocessTransportFactory* factory_ = nullptr;  // outlives every session
};

}  // namespace

SubprocessTransportFactory::SubprocessTransportFactory(
    SubprocessBackendConfig cfg)
    : cfg_(cfg) {}

TransportFactory::Connect SubprocessTransportFactory::try_connect(int worker) {
  if (worker >= cfg_.max_workers) return Connect{nullptr, true};
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Connect{nullptr, true};
  }
  std::vector<int> inherited;
  {
    std::lock_guard lock(mu_);
    inherited = parent_fds_;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Connect{nullptr, true};
  }
  if (pid == 0) {
    // Drop every inherited sibling-session fd (reading the vector and
    // close() are async-signal-safe); keep only our own socket.
    for (const int fd : inherited) {
      if (fd != sv[1]) ::close(fd);
    }
    ::close(sv[0]);
    // Fork-without-exec: the parent is multi-threaded, so the child may only
    // run async-signal-safe code. frame_io::serve with no named handler
    // neither allocates nor locks, and answers named calls kUnsupported (a
    // muscle table's std::function could hold a lock some parent thread
    // owned at fork time).
    frame_io::serve(sv[1], static_cast<std::uint32_t>(worker),
                    static_cast<std::uint64_t>(::getpid()),
                    cfg_.crash_after_tasks, nullptr);
    _exit(0);
  }
  ::close(sv[1]);
  {
    std::lock_guard lock(mu_);
    parent_fds_.push_back(sv[0]);
  }
  auto transport = std::make_unique<PipeTransport>(sv[0], pid, this);
  WireFrame hello;
  if (!transport->recv(hello, cfg_.hello_timeout) ||
      hello.type != WireFrameType::kHello) {
    return Connect{nullptr, true};  // transport dtor retires + reaps the child
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

std::vector<double> SubprocessTransportFactory::join_latencies_us() const {
  std::lock_guard lock(mu_);
  return join_us_;
}

void SubprocessTransportFactory::forget_parent_fd(int fd) {
  std::lock_guard lock(mu_);
  std::erase(parent_fds_, fd);
}

}  // namespace askel
