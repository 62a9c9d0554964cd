#pragma once
// SubprocessBackend: RemoteWorkerBackend over real worker processes.
//
// try_connect forks a worker child per pool-worker index and speaks the
// length-prefixed frame protocol (transport.hpp) over a socketpair. The
// child is fork-without-exec and may therefore only use async-signal-safe
// operations (raw read/write/_exit on fixed stack buffers — the parent is
// multi-threaded, so the child address space holds locks it must never
// touch). It runs frame_io::serve, the serve loop every TcpWorkerHost
// connection runs too, with no muscle table: named calls answer
// kUnsupported. It exits on Retire or EOF, and — as a test hook — after N
// tasks, to exercise the crash-recovery path with a real dead process.
//
// What is real here: fork/join latency (measured, not simulated), join
// failure (capacity cap, fork/socketpair errors), crash detection (EOF on
// the socket), retire round trips, and the full framing. What is proxied:
// the task's closure still executes in the pool worker (see
// remote_backend.hpp) — the lease round trip brackets it.

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/remote_backend.hpp"
#include "runtime/transport.hpp"

namespace askel {

struct SubprocessBackendConfig {
  /// Provisioning past this many worker processes fails.
  int max_workers = 64;
  /// How long try_connect waits for the child's Hello before declaring the
  /// join failed.
  Duration hello_timeout = 5.0;
  Duration complete_timeout = 2.0;
  Duration heartbeat_timeout = 1.0;
  /// Test hook: every worker process _exits after completing this many
  /// tasks (0 = never) — a real crash, detected as EOF. Counted in Submit
  /// frames, so under lease batching one batch window counts once.
  int crash_after_tasks = 0;
  /// Per-lease task batching (see RemoteBackendConfig::lease_batch): 1 =
  /// one Submit/Complete round trip per task (the legacy protocol), K > 1 =
  /// one per window of up to K tasks. The worker child is batch-transparent
  /// — it answers every Submit with one Complete regardless of `b`.
  int lease_batch = 1;
  /// Flush deadline for a partially filled batch window.
  Duration batch_flush = 0.005;
};

class SubprocessTransportFactory final : public TransportFactory {
 public:
  explicit SubprocessTransportFactory(SubprocessBackendConfig cfg = {});
  Connect try_connect(int worker) override;

  /// Observed fork -> Hello latencies (microseconds), in join order — the
  /// transport bench reports these against the simulated provision delay.
  std::vector<double> join_latencies_us() const;

  /// A session released its parent-side fd: stop telling future fork
  /// children to close it (the number may be reused for anything next).
  void forget_parent_fd(int fd);

 private:
  const SubprocessBackendConfig cfg_;
  mutable std::mutex mu_;
  std::vector<double> join_us_;
  /// Parent-side fds of the LIVE sessions. A fork child inherits them all;
  /// it closes this snapshot (minus its own socket) first thing, so
  /// per-child fd tables stay O(1) and an orphaned worker's EOF never
  /// depends on sibling children exiting first. PipeTransport::close()
  /// prunes its entry (forget_parent_fd), keeping the list bounded by live
  /// sessions under crash/re-provision churn.
  std::vector<int> parent_fds_;
};

namespace detail {
/// Base-from-member: the factory must outlive (construct before) the
/// RemoteWorkerBackend base that references it.
struct SubprocessFactoryHolder {
  explicit SubprocessFactoryHolder(const SubprocessBackendConfig& cfg)
      : factory(cfg) {}
  SubprocessTransportFactory factory;
};
}  // namespace detail

class SubprocessBackend : private detail::SubprocessFactoryHolder,
                          public RemoteWorkerBackend {
 public:
  explicit SubprocessBackend(SubprocessBackendConfig cfg = {})
      : detail::SubprocessFactoryHolder(cfg),
        RemoteWorkerBackend(factory, remote_config(cfg)) {}

  SubprocessTransportFactory& transport_factory() { return factory; }

 private:
  static RemoteBackendConfig remote_config(const SubprocessBackendConfig& cfg) {
    RemoteBackendConfig r;
    r.max_workers = cfg.max_workers;
    r.connect_timeout = cfg.hello_timeout + 1.0;
    r.complete_timeout = cfg.complete_timeout;
    r.heartbeat_timeout = cfg.heartbeat_timeout;
    r.lease_batch = cfg.lease_batch;
    r.batch_flush = cfg.batch_flush;
    r.name = "subprocess";
    return r;
  }
};

}  // namespace askel
