// Heap allocations the skeleton engine makes per fan-out element.
//
// The engine raises Before/After events on the muscle's own thread around
// every muscle, so its per-element cost is paid by every fine-grained
// workload. This binary replaces the global operator new/delete to count
// allocations (which is why it is a binary of its own), runs 256-element
// map, fork and d&C jobs on one worker, and pins the count per element with
// no listener and with one listener. The bounds are the measured counts
// plus one: an extra copy of a frame, a context or a continuation per
// element breaks them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>

#include "skel/typed.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line: inlined into a delete expression, a direct free() reads to
// GCC (-Wmismatched-new-delete) as freeing operator new's memory.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }

namespace askel {
namespace {

constexpr int kElements = 256;
constexpr int kJobs = 8;

// Per element: the element's task, its continuation and the nested seq's
// frame; d&C's element also opens its own frame and, as a leaf, a
// continuation holding a copy of it. Release, Debug, ASan and TSan builds
// count the same.
constexpr double kMapAllocs = 3.123;
constexpr double kDacAllocs = 6.123;

class EngineAlloc : public ::testing::TestWithParam<bool> {
 protected:
  EngineAlloc() : pool_(1, 1), engine_(pool_, bus_) {
    if (GetParam()) {
      bus_.add_listener(std::make_shared<GenericListener>(
          [](std::any p, const Event&) { return p; }));
    }
  }

  /// Mean heap allocations per element over kJobs runs of `skel` on `input`,
  /// after one warm-up run (pool thread, deque blocks, thread-locals).
  template <class P, class R>
  double allocs_per_element(const Skel<P, R>& skel, P input, R expected) {
    EXPECT_EQ(skel.input(input, engine_).get(), expected);
    pool_.wait_idle();
    g_allocs.store(0);
    g_counting.store(true);
    for (int j = 0; j < kJobs; ++j) {
      const R r = skel.input(input, engine_).get();
      pool_.wait_idle();
      EXPECT_EQ(r, expected);
    }
    g_counting.store(false);
    const double per = static_cast<double>(g_allocs.load()) / (kJobs * kElements);
    std::printf("[   info   ] %s: %.3f allocations per element\n",
                ::testing::UnitTest::GetInstance()->current_test_info()->name(), per);
    return per;
  }

  ResizableThreadPool pool_;
  EventBus bus_;
  Engine engine_;
};

SplitM<int, int> iota_split() {
  return split_muscle<int, int>("fs", [](int) {
    std::vector<int> v(kElements);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
}
ExecuteM<int, int> inc() {
  return execute_muscle<int, int>("fe", [](int x) { return x + 1; });
}
MergeM<int, int> sum() {
  return merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  });
}
constexpr int kSum = kElements * (kElements + 1) / 2;  // Σ (i + 1)

TEST_P(EngineAlloc, Map) {
  EXPECT_LE(allocs_per_element(Map(iota_split(), Seq(inc()), sum()), 0, kSum),
            kMapAllocs + 1);
}

TEST_P(EngineAlloc, Fork) {
  const auto fork = Fork(iota_split(), {Seq(inc()), Seq(inc())}, sum());
  EXPECT_LE(allocs_per_element(fork, 0, kSum), kMapAllocs + 1);
}

TEST_P(EngineAlloc, DaC) {
  // The root (-1) divides into 256 parts; each part is a leaf instance.
  const auto divide = condition_muscle<int>("fc", [](const int& x) { return x < 0; });
  const auto dac = DaC(divide, iota_split(), Seq(inc()), sum());
  EXPECT_LE(allocs_per_element(dac, -1, kSum), kDacAllocs + 1);
}

INSTANTIATE_TEST_SUITE_P(Listeners, EngineAlloc, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "OneListener" : "NoListener";
                         });

}  // namespace
}  // namespace askel
