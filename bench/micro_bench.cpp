// google-benchmark microbenchmarks of the framework's moving parts: event
// dispatch overhead, scheduler costs on growing ADGs, estimator updates, and
// pool resize latency. What skeletons, trackers and the controller cost on a
// real job is wct_algorithms --overhead's autonomic_overhead_ratio.
//
// These quantify the "very high level of adaptability" claim: per-event
// monitoring is only viable if event dispatch and re-estimation are cheap
// relative to muscle work.

#include <benchmark/benchmark.h>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "autonomic/decision.hpp"
#include "est/registry.hpp"
#include "skel/typed.hpp"
#include "workload/paper_example.hpp"

namespace askel {
namespace {

// ------------------------------------------------------------ event layer --

void BM_EventDispatch_NoListeners(benchmark::State& state) {
  EventBus bus;
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.dispatch(std::any(1), ev));
  }
}
BENCHMARK(BM_EventDispatch_NoListeners);

void BM_EventDispatch_Listeners(benchmark::State& state) {
  EventBus bus;
  for (int k = 0; k < state.range(0); ++k) {
    bus.add_listener(std::make_shared<ObserverListener>([](const Event&) {}));
  }
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.dispatch(std::any(1), ev));
  }
}
BENCHMARK(BM_EventDispatch_Listeners)->Arg(1)->Arg(4)->Arg(16);

// Contended dispatch: every worker thread of a skeleton fires Before/After
// events, so dispatch must not serialize the pool. The seed design took a
// mutex and heap-copied the listener list per event; the RCU design reads an
// atomic snapshot pointer.
void BM_EventDispatch_Contended(benchmark::State& state) {
  static EventBus* bus = nullptr;
  if (state.thread_index() == 0) {
    bus = new EventBus;
    for (int k = 0; k < 4; ++k) {
      bus->add_listener(std::make_shared<ObserverListener>([](const Event&) {}));
    }
  }
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus->dispatch(std::any(1), ev));
  }
  if (state.thread_index() == 0) {
    delete bus;
    bus = nullptr;
  }
}
BENCHMARK(BM_EventDispatch_Contended)->Threads(4)->UseRealTime();

// -------------------------------------------------------- analytic layers --

AdgSnapshot wide_dag(int width) {
  AdgSnapshot g;
  g.now = 0.0;
  const int split = g.add(make_pending(0, "fs", 1.0, {}));
  std::vector<int> fes;
  for (int k = 0; k < width; ++k) fes.push_back(g.add(make_pending(1, "fe", 1.0, {split})));
  g.add(make_pending(2, "fm", 1.0, fes));
  return g;
}

void BM_BestEffort(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_effort(g).wct);
  }
}
BENCHMARK(BM_BestEffort)->Arg(32)->Arg(256)->Arg(2048);

void BM_LimitedLp(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(limited_lp(g, 8).wct);
  }
}
BENCHMARK(BM_LimitedLp)->Arg(32)->Arg(256)->Arg(1024);

void BM_Decide(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decide(g, 2.0, 4, 24));
  }
}
BENCHMARK(BM_Decide)->Arg(32)->Arg(256);

void BM_TrackerSnapshot_PaperExample(benchmark::State& state) {
  PaperExampleReplay replay;
  replay.replay_until(70.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay.snapshot(70.0).size());
  }
}
BENCHMARK(BM_TrackerSnapshot_PaperExample);

void BM_EstimatorObserve(benchmark::State& state) {
  EstimateRegistry reg(0.5);
  long k = 0;
  for (auto _ : state) {
    reg.observe_duration(static_cast<int>(k % 8), 1.0);
    ++k;
  }
}
BENCHMARK(BM_EstimatorObserve);

// Contended observes: 4 threads record different muscles into ONE registry,
// all through its one mutex. No library path produces this traffic: the
// trackers, the only writers during a run, already hold TrackerSet::mu_, and
// each TrackerSet owns its registry. Kept to show what direct
// multi-threaded use of a registry costs; docs/perf.md records it.
void BM_EstimatorObserve_Contended(benchmark::State& state) {
  static EstimateRegistry* reg = nullptr;
  if (state.thread_index() == 0) reg = new EstimateRegistry(0.5);
  long k = 0;
  const int base = state.thread_index() * 4;
  for (auto _ : state) {
    reg->observe_duration(base + static_cast<int>(k % 4), 1.0);
    ++k;
  }
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_EstimatorObserve_Contended)->Threads(4)->UseRealTime();

// Controller decision loop cost: back-to-back snapshots with no intervening
// writes. The registry must return its previous snapshot (O(1)); the seed
// deep-copied the whole stats map every call.
void BM_EstimateSnapshot_Clean(benchmark::State& state) {
  EstimateRegistry reg(0.5, EstimationScope::kPerDepth);
  for (int m = 0; m < static_cast<int>(state.range(0)); ++m) {
    reg.observe_duration(m, /*depth=*/0, 1.0);
    reg.observe_cardinality(m, /*depth=*/0, 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot().size());
  }
}
BENCHMARK(BM_EstimateSnapshot_Clean)->Arg(16)->Arg(128)->Arg(1024);

// Write-then-snapshot with ONE dirty muscle: the rebuild touches only that
// muscle's fragment and splices the other kEstimateFragments-1 by shared_ptr
// bump — O(written fragments), not O(muscles).
void BM_EstimateSnapshot_Dirty(benchmark::State& state) {
  EstimateRegistry reg(0.5);
  for (int m = 0; m < static_cast<int>(state.range(0)); ++m) {
    reg.observe_duration(m, 1.0);
  }
  for (auto _ : state) {
    reg.observe_duration(0, 1.0);
    benchmark::DoNotOptimize(reg.snapshot().size());
  }
}
BENCHMARK(BM_EstimateSnapshot_Dirty)->Arg(16)->Arg(128);

// Every fragment dirty between snapshots (one write per fragment): the
// honest full-rebuild bound the incremental path degrades to when everything
// moved.
void BM_EstimateSnapshot_DirtyAll(benchmark::State& state) {
  EstimateRegistry reg(0.5);
  const int muscles = static_cast<int>(state.range(0));
  for (int m = 0; m < muscles; ++m) reg.observe_duration(m, 1.0);
  for (auto _ : state) {
    // Muscle id m lands in fragment m % kEstimateFragments, so ids
    // 0..kEstimateFragments-1 dirty every fragment.
    for (int m = 0; m < static_cast<int>(kEstimateFragments); ++m) {
      reg.observe_duration(m, 1.0);
    }
    benchmark::DoNotOptimize(reg.snapshot().size());
  }
}
BENCHMARK(BM_EstimateSnapshot_DirtyAll)->Arg(128);

// ---------------------------------------------------------------- runtime --

void BM_PoolResize(benchmark::State& state) {
  ResizableThreadPool pool(1, 16);
  int lp = 1;
  for (auto _ : state) {
    lp = lp == 1 ? 16 : 1;
    benchmark::DoNotOptimize(pool.set_target_lp(lp));
  }
}
BENCHMARK(BM_PoolResize);

void BM_PoolSubmitDrain(benchmark::State& state) {
  ResizableThreadPool pool(2, 2);
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) pool.submit([] {});
    pool.wait_idle();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PoolSubmitDrain);

// External injection under multi-producer contention: 4 threads push batches
// through the lock-free MPSC injection path and wait for the drain. The
// previous design serialized every external submit (and every worker's drain
// probe) on one inject mutex, so producers convoyed exactly here.
void BM_PoolInjectDrain_Contended(benchmark::State& state) {
  static ResizableThreadPool* pool = nullptr;
  if (state.thread_index() == 0) pool = new ResizableThreadPool(2, 2);
  for (auto _ : state) {
    for (int k = 0; k < 16; ++k) pool->submit([] {});
    pool->wait_idle();
  }
  state.SetItemsProcessed(state.iterations() * 16);
  if (state.thread_index() == 0) {
    delete pool;
    pool = nullptr;
  }
}
BENCHMARK(BM_PoolInjectDrain_Contended)->Threads(4)->UseRealTime();

// Task churn at a given LP: roots fan out children from inside worker
// threads, the shape of a Map/DaC expansion. With a single global mutex every
// push/pop serializes, so adding workers adds contention instead of
// throughput; per-worker deques + stealing keep the hot path local.
void BM_PoolChurn(benchmark::State& state) {
  const int lp = static_cast<int>(state.range(0));
  ResizableThreadPool pool(lp, lp);
  constexpr int kRoots = 16;
  constexpr int kChildren = 64;
  for (auto _ : state) {
    std::atomic<int> done{0};
    for (int r = 0; r < kRoots; ++r) {
      pool.submit([&pool, &done] {
        for (int c = 0; c < kChildren; ++c) {
          pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * kRoots * (kChildren + 1));
}
BENCHMARK(BM_PoolChurn)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace askel
