#pragma once
// Shared fd-level frame I/O — the one copy of the short-write / short-read /
// EINTR / deadline logic every real (fd-backed) transport uses, and the one
// worker-side serve loop.
//
// Before this header existed, PipeTransport (subprocess_backend.cpp) carried
// a private write_full/read loop; growing a second fd transport (TCP) would
// have meant a second copy of exactly the code whose edge cases — a short
// write resumed after EINTR, send() returning 0, a peer stalling mid-frame —
// are the ones that only bite under real network load. The helpers here are
// that audit, factored once:
//
//   * one exact write per frame: a frame's header and payload leave in one
//     sendmsg() with MSG_NOSIGNAL (a dead peer must surface as EPIPE, never
//     SIGPIPE); a partial write or EINTR resumes at the first unwritten
//     byte, across the header/payload boundary, *without losing the
//     partial progress*; n == 0 is a hard error (a blocking stream send
//     never legitimately writes nothing — looping on it would spin
//     forever). write_full is the one-buffer form of the same loop;
//   * read_frame: the deadline-honoring parent-side read. It reads first
//     and polls, with the REMAINING time to the deadline computed once at
//     entry, only when nothing is waiting — so bytes already buffered are
//     delivered even under a zero timeout, and the timeout is never
//     re-armed after a partial read: a peer trickling one byte per poll
//     cannot extend the total wait past `timeout`
//     (tests/tcp_transport_test.cpp pins total wait <= timeout + epsilon).
//     The result distinguishes a clean timeout (nothing consumed, the
//     stream is still in sync) from a mid-frame stall (the stream is
//     desynced for good — the caller poisons the link);
//   * serve: the worker side of a session, run by the fork()ed subprocess
//     child and by every TcpWorkerHost connection alike.
//
// FdTransport wraps the pool-side helpers into the Transport contract over
// any connected stream fd; PipeTransport (socketpair to a fork child)
// derives from it to add its teardown hook, and TCP uses it as is.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "runtime/transport.hpp"
#include "util/clock.hpp"

namespace askel {
namespace frame_io {

/// Write exactly `size` bytes to a connected stream fd: the one-buffer form
/// of the frame write loop. MSG_NOSIGNAL on every sendmsg; a partial write
/// or EINTR resumes with the progress kept; n == 0 and every other error
/// return false. Async-signal-safe.
bool write_full(int fd, const std::uint8_t* data, std::size_t size);

enum class ReadResult {
  kFrame,         // one whole frame (and its payload, if any) decoded
  kTimeout,       // deadline passed with NOTHING consumed: stream in sync
  kMidFrameStall, // deadline passed mid-frame: stream desynced — poison it
  kClosed,        // EOF or hard error
  kGarbage,       // bytes arrived but did not decode / payload oversized
};

/// Deadline-honoring frame read, never a blocking read: read first, and
/// poll with the remaining time to the deadline anchored at entry only when
/// nothing is waiting (a zero timeout still delivers a frame already
/// buffered). A named
/// frame's payload (`out.b` bytes, bounded by kMaxNamedPayload) is read
/// under the same deadline; `payload` may be null, in which case the bytes
/// are consumed (keeping the stream in sync) and discarded.
ReadResult read_frame(int fd, Duration timeout, WireFrame& out,
                      std::vector<std::uint8_t>* payload);

/// How long the worker side gives the rest of a frame, header and payload,
/// once its first byte is readable. A peer silent for longer mid-frame has
/// desynced the stream, and the session ends.
inline constexpr Duration kServeFrameDeadline = 1.0;

/// The worker side's answer to one kSubmitNamed: the status, plus the
/// encoded result written to `result` (kOk only; it arrives empty).
using NamedHandler = std::function<NamedStatus(
    std::uint64_t id, const std::uint8_t* arg, std::size_t size,
    std::vector<std::uint8_t>& result)>;

/// Serve one worker session on `fd` until the peer retires or leaves it:
/// kHello{worker, a = pid} first, then
///   kSubmit -> kComplete (whatever `b` is), kHeartbeat -> kHeartbeatAck,
///   kSubmitNamed -> kResultNamed (`named`, or kUnsupported when it is
///   empty), kRetire -> kRetired and the session ends.
/// The crash_after_tasks hook (> 0) ends the session after reading that
/// many Submits, before answering the last. Each frame's first byte is a
/// blocking read with no deadline (an owner stops the loop by shutting `fd`
/// down, which wakes it with EOF); the rest of the frame gets
/// kServeFrameDeadline from that byte. With an empty `named` no path
/// allocates or locks, so the fork()ed child may run it: a named payload is
/// read into a fixed stack buffer of kMaxNamedPayload bytes. The caller
/// closes `fd`.
void serve(int fd, std::uint32_t worker, std::uint64_t pid,
           int crash_after_tasks, const NamedHandler& named);

}  // namespace frame_io

/// Transport over one connected stream fd — the shared body of
/// PipeTransport (socketpair to a fork child) and the TCP transport (socket
/// to a remote worker host). Locking: `mu_` serializes send/close against
/// each other; recv stays lease-owner-only (the session machine's contract), so
/// it reads the fd without the mutex — close() shuts the socket down before
/// closing so a concurrent recv wakes with EOF instead of touching a
/// recycled fd number.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override;

  bool send(const WireFrame& f) override;
  bool send(const WireFrame& f, const std::uint8_t* payload,
            std::size_t size) override;
  bool recv(WireFrame& out, Duration timeout) override;
  bool recv(WireFrame& out, std::vector<std::uint8_t>& payload,
            Duration timeout) override;
  bool alive() const override;
  void close() override;

 protected:
  /// Teardown hook, called once under mu_ with the fd already shut down and
  /// closed: PipeTransport reaps its child and un-registers the parent fd.
  virtual void on_close_locked(int fd) { (void)fd; }

 private:
  bool recv_impl(WireFrame& out, std::vector<std::uint8_t>* payload,
                 Duration timeout);

  int fd_ = -1;
  std::atomic<bool> alive_{true};
  std::mutex mu_;  // send/close vs each other
};

}  // namespace askel
