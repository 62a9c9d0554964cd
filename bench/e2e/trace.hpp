#pragma once
// In-memory span recorder for the traced run.
//
// Every span is timed from OUTSIDE the library, at a call into one layer's
// public API: a listener's handle() (through TimedListener), a muscle body
// (benchmark code), or a direct call such as pool.submit, record_latency,
// call_named, TrackerSet::snapshot or decide. Each recording thread owns a
// buffer (no lock and no shared cache line on the hot path); the buffers are
// merged only after the recording threads are quiescent.
//
// Per span kind the tracer keeps an exact count and total plus a
// log-bucketed histogram (1/32-octave buckets, <= 1.6% quantile error), for
// every span. Span records themselves — name, start, end, parent span,
// job/request id — are kept for each thread's first kMaxStoredSpans only,
// which bounds memory and the Chrome trace file size.
//
// The tracer is off unless enable(true) was called: a Span is then a single
// relaxed load, and the untraced runs install no TimedListener at all.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "events/event_bus.hpp"
#include "events/listener.hpp"

namespace e2e {

/// Layer-boundary span kinds. The display name of each is span_name(kind).
enum class SpanKind : int {
  kJob,             // one closed-loop job (or paper run), main thread
  kSplit,           // muscle fs body
  kExecute,         // muscle fe body
  kMerge,           // muscle fm body
  kSmOnEvent,       // TrackerSet listener handle()
  kAutonomicOnEvent,// AutonomicController listener handle()
  kAdgSnapshot,     // TrackerSet::snapshot on a finished job
  kAdgDecide,       // decide() on that snapshot
  kEstSnapshot,     // EstimateRegistry::snapshot
  kSubmit,          // ResizableThreadPool::submit from the generator
  kQueueWait,       // submit -> task start (SLO tenant)
  kRequest,         // service demand actually slept
  kRecordLatency,   // AutonomicController::record_latency
  kGenLate,         // scheduled arrival -> actual submit
  kCallNamed,       // RemoteWorkerBackend::call_named
  kHostExec,        // registered muscle body on the worker host
  kCodec,           // encode_pod + decode_pod round trip
  kCount
};

const char* span_name(SpanKind k);

/// Quantile histogram over nanosecond values.
class Hist {
 public:
  void add(std::int64_t ns);
  void merge(const Hist& other);
  std::uint64_t count() const { return count_; }
  double total_ns() const { return total_ns_; }
  /// Bucket-midpoint quantile (nearest rank); 0 when empty.
  double quantile_ns(double q) const;

 private:
  static constexpr int kSub = 32;                       // sub-buckets/octave
  static constexpr int kBuckets = (64 - 4) * kSub;
  static int bucket_of(std::uint64_t v);
  static double midpoint(int b);

  std::vector<std::uint64_t> buckets_;  // lazily sized to kBuckets
  std::uint64_t count_ = 0;
  double total_ns_ = 0.0;
};

/// Merged statistics of one span kind.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

class Tracer {
 public:
  /// Span records kept per recording thread.
  static constexpr std::size_t kMaxStoredSpans = 25000;

  static Tracer& instance();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }
  /// Nanoseconds on the tracer's steady clock.
  static std::int64_t now_ns();

  /// Record a finished top-level span (parent 0: the job or request named
  /// by `id`) on the calling thread.
  void record(SpanKind kind, std::int64_t t0_ns, std::int64_t t1_ns, long id);

  /// Merged per-kind statistics. Recording threads must be quiescent.
  SpanStats stats(SpanKind kind) const;
  /// Write the stored spans as Chrome trace-event JSON, with `metrics` under
  /// "otherData". Returns false when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::vector<std::pair<std::string, double>>& metrics) const;

  /// Job or request id attached to spans that do not name one (set by the
  /// closed-loop client before each job).
  static void set_current_id(long id) { current_id_.store(id, std::memory_order_relaxed); }
  static long current_id() { return current_id_.load(std::memory_order_relaxed); }

 private:
  friend class Span;
  struct Stored {
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    long id;
    std::uint64_t span;
    std::uint64_t parent;
    SpanKind kind;
  };
  struct ThreadBuf {
    int tid = 0;
    std::uint64_t next_span = 0;
    std::uint64_t open_span = 0;  // innermost open Span on this thread
    std::array<Hist, static_cast<std::size_t>(SpanKind::kCount)> hists;
    std::vector<Stored> spans;

    /// Globally unique span id (thread id in the high bits).
    std::uint64_t new_span() { return (static_cast<std::uint64_t>(tid) << 40) | ++next_span; }
    void add(const Stored& s) {
      hists[static_cast<std::size_t>(s.kind)].add(s.t1_ns - s.t0_ns);
      if (spans.size() < kMaxStoredSpans) spans.push_back(s);
    }
  };
  ThreadBuf& local();

  static thread_local ThreadBuf* local_;
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  // guards bufs_ (registration and merging)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::int64_t epoch_ns_ = now_ns();
  static std::atomic<long> current_id_;
};

/// RAII span on the calling thread; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(SpanKind kind, long id = Tracer::current_id());
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  SpanKind kind_;
  long id_;
  std::int64_t t0_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t parent_ = 0;
};

/// Listener decorator: forwards accepts() and handle() to `inner`, timing
/// each handle() as one span of `kind`.
class TimedListener final : public askel::Listener {
 public:
  TimedListener(askel::EventBus::ListenerPtr inner, SpanKind kind)
      : inner_(std::move(inner)), kind_(kind) {}
  bool accepts(const askel::Event& ev) const override { return inner_->accepts(ev); }
  std::any handle(std::any param, const askel::Event& ev) override {
    Span s(kind_);
    return inner_->handle(std::move(param), ev);
  }

 private:
  askel::EventBus::ListenerPtr inner_;
  SpanKind kind_;
};

/// `listener` itself untraced, or wrapped in a TimedListener when tracing.
askel::EventBus::ListenerPtr maybe_timed(askel::EventBus::ListenerPtr listener,
                                         SpanKind kind);

}  // namespace e2e
