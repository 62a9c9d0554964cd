#include "runtime/frame_io.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>

namespace askel {
namespace frame_io {

namespace {

/// Write every byte of `iov[0, count)` with one sendmsg per attempt, so a
/// frame's header and payload leave together. A partial write or EINTR
/// resumes at the first unwritten byte, across iovec boundaries; empty
/// iovecs are skipped. The entries are consumed in place.
bool write_iov(int fd, struct iovec* iov, std::size_t count) {
  struct msghdr msg {};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  std::size_t done = 0;  // bytes the last sendmsg wrote
  for (;;) {
    // Drop the iovecs the last write finished, then trim the one it cut.
    while (msg.msg_iovlen > 0 && done >= msg.msg_iov->iov_len) {
      done -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return true;
    msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + done;
    msg.msg_iov->iov_len -= done;
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      done = static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      done = 0;  // the progress so far is already in the iovecs
    } else {
      // n == 0: a blocking stream send never legitimately writes nothing;
      // treating it as retryable would spin forever on a broken socket.
      return false;
    }
  }
}

using Deadline = std::chrono::steady_clock::time_point;

Deadline deadline_after(Duration d) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(std::max(0.0, d)));
}

/// Fill `data[at, size)` before `deadline`. Each read tries the socket
/// first; only when nothing is waiting does it check the deadline and poll
/// with the REMAINING time (the deadline never re-arms — a trickling peer
/// cannot extend the total wait). So bytes already buffered are delivered
/// even once the deadline has passed. kFrame once all `size` bytes are in;
/// a timeout with nothing consumed is a clean kTimeout, one after a partial
/// read a kMidFrameStall.
ReadResult read_until_deadline(int fd, std::uint8_t* data, std::size_t size,
                               Deadline deadline, std::size_t at = 0) {
  while (at < size) {
    const ssize_t n = ::recv(fd, data + at, size - at, MSG_DONTWAIT);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return ReadResult::kClosed;  // EOF: the peer went away
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return ReadResult::kClosed;
    const double remaining_s =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining_s <= 0.0) {
      return at == 0 ? ReadResult::kTimeout : ReadResult::kMidFrameStall;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r;
    do {
      r = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining_s * 1000.0)));
    } while (r < 0 && errno == EINTR);
    // Readable, hung up or timed out: the next recv tells which, and the
    // loop re-checks the ORIGINAL deadline.
  }
  return ReadResult::kFrame;
}

/// One frame header before `deadline`, decoded, with a payload length past
/// the protocol ceiling rejected as garbage (never an allocation request).
/// `buf` may already hold the header's first `have` bytes.
ReadResult read_header(int fd, Deadline deadline, WireFrameBytes& buf,
                       std::size_t have, WireFrame& out) {
  const ReadResult r =
      read_until_deadline(fd, buf.data(), buf.size(), deadline, have);
  if (r != ReadResult::kFrame) return r;
  if (!decode_frame(buf.data(), buf.size(), out)) return ReadResult::kGarbage;
  if (frame_has_payload(out.type) && out.b > kMaxNamedPayload) {
    return ReadResult::kGarbage;
  }
  return ReadResult::kFrame;
}

/// The `size` payload bytes that follow a header, before `deadline`. The
/// header is already consumed, so any timeout is a mid-frame stall.
ReadResult read_payload(int fd, Deadline deadline, std::uint8_t* data,
                        std::size_t size) {
  const ReadResult r = read_until_deadline(fd, data, size, deadline);
  return r == ReadResult::kTimeout ? ReadResult::kMidFrameStall : r;
}

std::size_t payload_size(const WireFrame& f) {
  return frame_has_payload(f.type) ? static_cast<std::size_t>(f.b) : 0;
}

bool send_frame(int fd, const WireFrame& f,
                const std::uint8_t* payload = nullptr, std::size_t size = 0) {
  WireFrameBytes bytes = encode_frame(f);
  struct iovec iov[2] = {{bytes.data(), bytes.size()},
                         {const_cast<std::uint8_t*>(payload), size}};
  return write_iov(fd, iov, 2);
}

}  // namespace

bool write_full(int fd, const std::uint8_t* data, std::size_t size) {
  struct iovec iov = {const_cast<std::uint8_t*>(data), size};
  return write_iov(fd, &iov, 1);
}

ReadResult read_frame(int fd, Duration timeout, WireFrame& out,
                      std::vector<std::uint8_t>* payload) {
  if (fd < 0) return ReadResult::kClosed;
  // The deadline anchors HERE, once: the header read, the decode and the
  // payload read all spend from the same budget.
  const Deadline deadline = deadline_after(timeout);
  WireFrameBytes buf{};
  const ReadResult header = read_header(fd, deadline, buf, 0, out);
  if (header != ReadResult::kFrame) return header;
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t>& dst = payload != nullptr ? *payload : scratch;
  dst.assign(payload_size(out), 0);
  if (dst.empty()) return ReadResult::kFrame;
  return read_payload(fd, deadline, dst.data(), dst.size());
}

void serve(int fd, std::uint32_t worker, std::uint64_t pid,
           int crash_after_tasks, const NamedHandler& named) {
  // Hello first: the pool's try_connect waits for it before declaring the
  // join complete.
  if (!send_frame(fd, WireFrame{WireFrameType::kHello, worker, 0, pid, 0})) {
    return;
  }
  std::array<std::uint8_t, kMaxNamedPayload> arg{};
  std::vector<std::uint8_t> result;  // only a NamedHandler ever fills it
  int tasks = 0;
  for (;;) {
    // The wait for a frame's first byte is a blocking read with no
    // deadline; it ends with EOF when the pool goes away or the owner shuts
    // the socket down. The rest of the frame gets a fixed deadline from
    // that byte on, so a payload that a peer or TCP segmentation delivers
    // after its header is never mistaken for a torn frame.
    WireFrameBytes head{};
    ssize_t got;
    do {
      got = ::read(fd, head.data(), head.size());
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return;  // EOF: the pool left, or the owner shut fd down
    const Deadline deadline = deadline_after(kServeFrameDeadline);
    WireFrame f;
    if (read_header(fd, deadline, head, static_cast<std::size_t>(got), f) !=
        ReadResult::kFrame) {
      return;
    }
    const std::size_t size = payload_size(f);
    if (size > 0 &&
        read_payload(fd, deadline, arg.data(), size) != ReadResult::kFrame) {
      return;  // EOF, stall or garbage: the stream is gone
    }
    WireFrame reply{WireFrameType::kComplete, f.worker, f.seq, 0, 0};
    result.clear();
    switch (f.type) {
      case WireFrameType::kSubmit:
        // Crash hook: die BETWEEN Submit and Complete, so the pool holds an
        // open lease and must recover it off the EOF.
        if (crash_after_tasks > 0 && ++tasks >= crash_after_tasks) return;
        break;
      case WireFrameType::kHeartbeat:
        reply.type = WireFrameType::kHeartbeatAck;
        break;
      case WireFrameType::kSubmitNamed:
        reply.type = WireFrameType::kResultNamed;
        reply.a = static_cast<std::uint64_t>(
            named ? named(f.a, arg.data(), size, result)
                  : NamedStatus::kUnsupported);
        reply.b = result.size();
        break;
      case WireFrameType::kRetire:
        reply.type = WireFrameType::kRetired;
        send_frame(fd, reply);  // best effort
        return;
      default:
        continue;  // advisory (kStealHint) or pool-bound: ignore
    }
    if (!send_frame(fd, reply, result.data(), result.size())) return;
  }
}

}  // namespace frame_io

FdTransport::~FdTransport() {
  // Derived destructors normally call close() themselves (so their
  // on_close_locked hook runs while the derived object is still whole);
  // this is the backstop for the plain-FdTransport case.
  FdTransport::close();
}

bool FdTransport::send(const WireFrame& f) { return send(f, nullptr, 0); }

bool FdTransport::send(const WireFrame& f, const std::uint8_t* payload,
                       std::size_t size) {
  std::lock_guard lock(mu_);
  if (fd_ < 0) return false;
  if (!frame_io::send_frame(fd_, f, payload, size)) {
    alive_.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

bool FdTransport::recv(WireFrame& out, Duration timeout) {
  return recv_impl(out, nullptr, timeout);
}

bool FdTransport::recv(WireFrame& out, std::vector<std::uint8_t>& payload,
                       Duration timeout) {
  return recv_impl(out, &payload, timeout);
}

bool FdTransport::recv_impl(WireFrame& out,
                            std::vector<std::uint8_t>* payload,
                            Duration timeout) {
  if (fd_ < 0) return false;
  switch (frame_io::read_frame(fd_, timeout, out, payload)) {
    case frame_io::ReadResult::kFrame:
      return true;
    case frame_io::ReadResult::kTimeout:
      return false;  // stream still in sync; the link stays up
    case frame_io::ReadResult::kMidFrameStall:
    case frame_io::ReadResult::kGarbage:
    case frame_io::ReadResult::kClosed:
      alive_.store(false, std::memory_order_release);
      return false;
  }
  return false;
}

bool FdTransport::alive() const {
  return alive_.load(std::memory_order_acquire);
}

void FdTransport::close() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) {
    // shutdown first: a recv blocked in poll() on another thread wakes with
    // EOF instead of racing a recycled fd number.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    const int fd = fd_;
    fd_ = -1;
    alive_.store(false, std::memory_order_release);
    on_close_locked(fd);
    return;
  }
  alive_.store(false, std::memory_order_release);
}

}  // namespace askel
