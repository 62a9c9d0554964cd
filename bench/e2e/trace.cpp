#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>

namespace e2e {

namespace {

constexpr const char* kSpanNames[] = {
    "job",
    "muscle.fs",
    "muscle.fe",
    "muscle.fm",
    "sm.on_event",
    "autonomic.on_event",
    "adg.snapshot",
    "adg.decide",
    "est.snapshot",
    "runtime.submit",
    "runtime.queue_wait",
    "workload.request",
    "autonomic.record_latency",
    "workload.gen_late",
    "runtime.call_named",
    "runtime.host_exec",
    "runtime.codec",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanKind::kCount));

}  // namespace

const char* span_name(SpanKind k) { return kSpanNames[static_cast<int>(k)]; }

// ------------------------------------------------------------------ Hist --

int Hist::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int e = std::bit_width(v) - 1;  // >= 5
  const auto mantissa = static_cast<int>((v >> (e - 5)) & (kSub - 1));
  return (e - 4) * kSub + mantissa;
}

double Hist::midpoint(int b) {
  if (b < kSub) return b;
  const int e = b / kSub + 4;
  const int mantissa = b % kSub;
  const double width = std::ldexp(1.0, e - 5);
  return (kSub + mantissa) * width + width / 2.0;
}

void Hist::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns));
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[static_cast<std::size_t>(std::min(bucket_of(v), kBuckets - 1))];
  ++count_;
  total_ns_ += static_cast<double>(v);
}

void Hist::merge(const Hist& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ns_ += other.total_ns_;
}

double Hist::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return midpoint(static_cast<int>(i));
  }
  return midpoint(kBuckets - 1);
}

// ---------------------------------------------------------------- Tracer --

std::atomic<long> Tracer::current_id_{0};
thread_local Tracer::ThreadBuf* Tracer::local_ = nullptr;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::ThreadBuf& Tracer::local() {
  if (local_ == nullptr) {
    std::lock_guard lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    bufs_.back()->tid = static_cast<int>(bufs_.size());
    local_ = bufs_.back().get();
  }
  return *local_;
}

void Tracer::record(SpanKind kind, std::int64_t t0_ns, std::int64_t t1_ns, long id) {
  if (!enabled()) return;
  ThreadBuf& b = local();
  b.add(Stored{t0_ns, t1_ns, id, b.new_span(), 0, kind});
}

SpanStats Tracer::stats(SpanKind kind) const {
  Hist merged;
  {
    std::lock_guard lock(mu_);
    for (const auto& b : bufs_) merged.merge(b->hists[static_cast<std::size_t>(kind)]);
  }
  SpanStats s;
  s.count = merged.count();
  s.total_ms = merged.total_ns() / 1e6;
  s.p50_us = merged.quantile_ns(0.50) / 1e3;
  s.p99_us = merged.quantile_ns(0.99) / 1e3;
  return s;
}

bool Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& metrics) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  std::lock_guard lock(mu_);
  for (const auto& b : bufs_) {
    for (const Stored& s : b->spans) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << span_name(s.kind)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << b->tid
          << ", \"ts\": " << static_cast<double>(s.t0_ns - epoch_ns_) / 1e3
          << ", \"dur\": " << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"span\": " << s.span
          << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  out << "\n], \"otherData\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
        << "\": " << metrics[i].second;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------ Span --

Span::Span(SpanKind kind, long id) : kind_(kind), id_(id) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  buf_ = &t.local();
  span_ = buf_->new_span();
  parent_ = buf_->open_span;
  buf_->open_span = span_;
  t0_ = Tracer::now_ns();
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const std::int64_t t1 = Tracer::now_ns();
  buf_->open_span = parent_;
  buf_->add(Tracer::Stored{t0_, t1, id_, span_, parent_, kind_});
}

askel::EventBus::ListenerPtr maybe_timed(askel::EventBus::ListenerPtr listener,
                                         SpanKind kind) {
  if (!Tracer::instance().enabled()) return listener;
  return std::make_shared<TimedListener>(std::move(listener), kind);
}

}  // namespace e2e
