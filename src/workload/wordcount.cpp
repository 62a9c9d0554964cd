#include "workload/wordcount.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "runtime/subprocess_backend.hpp"

namespace askel {
namespace {

/// Deterministic per-slice jitter in [0.6, 1.4] (mean 1.0).
double slice_weight(std::uint64_t seed, std::size_t begin, std::size_t end) {
  if (seed == 0) return 1.0;
  std::uint64_t h = seed ^ (begin * 0x9E3779B97F4A7C15ull) ^ (end * 0xBF58476D1CE4E5B9ull);
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  const double u = static_cast<double>(h % 10000) / 10000.0;
  return 0.6 + 0.8 * u;
}

/// Split [begin, end) into `parts` near-equal sub-ranges.
std::vector<std::pair<std::size_t, std::size_t>> partition(std::size_t begin,
                                                           std::size_t end,
                                                           int parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t n = end - begin;
  std::size_t at = begin;
  for (int k = 0; k < parts; ++k) {
    const std::size_t len = n / parts + (static_cast<std::size_t>(k) < n % parts);
    out.emplace_back(at, at + len);
    at += len;
  }
  return out;
}

}  // namespace

Counts count_tokens(const TweetDoc& doc) {
  Counts counts;
  for (std::size_t i = doc.begin; i < doc.end; ++i) {
    for (std::string& token : extract_tags_and_mentions((*doc.tweets)[i])) {
      ++counts[std::move(token)];
    }
  }
  return counts;
}

WordcountSkeleton make_wordcount_skeleton(const PaperTimings& t,
                                          std::uint64_t jitter_seed) {
  // fs: "splits the input file on smaller chunks". Shared between levels; the
  // level-0 call models the 6.4 s single-threaded file read, level-1 calls
  // the ≈7× faster in-memory chunk splits.
  auto fs = split_muscle<TweetDoc, TweetDoc>(
      "fs", [t, jitter_seed](TweetDoc doc) {
        const bool outer = doc.level == 0;
        simulate_work(outer ? t.scaled_outer_split() : t.scaled_inner_split());
        const int parts = outer ? t.outer_chunks : t.inner_chunks;
        std::vector<TweetDoc> chunks;
        chunks.reserve(parts);
        for (const auto& [b, e] : partition(doc.begin, doc.end, parts)) {
          TweetDoc c;
          c.tweets = doc.tweets;
          c.begin = b;
          c.end = e;
          c.level = doc.level + 1;
          c.weight = doc.level + 1 == 2 ? slice_weight(jitter_seed, b, e) : 1.0;
          chunks.push_back(std::move(c));
        }
        return chunks;
      });

  // fe: "produces a hash map of words (hashtags and commented-users) and its
  // corresponding partial count".
  auto fe = execute_muscle<TweetDoc, CountsPart>("fe", [t](TweetDoc doc) {
    simulate_work(t.scaled_execute() * doc.weight);
    return CountsPart{count_tokens(doc), doc.level};
  });

  // fm: "merges partial counts into a global count". Shared between levels.
  auto fm = merge_muscle<CountsPart, CountsPart>(
      "fm", [t](std::vector<CountsPart> parts) {
        int level = 2;
        for (const CountsPart& p : parts) level = std::min(level, p.level);
        simulate_work(level >= 2 ? t.scaled_inner_merge() : t.scaled_outer_merge());
        CountsPart out;
        out.level = std::max(0, level - 1);
        for (CountsPart& p : parts) {
          for (auto& [token, n] : p.counts) out.counts[token] += n;
        }
        return out;
      });

  Skel<TweetDoc, CountsPart> inner = Map(fs, Seq(fe), fm);
  Skel<TweetDoc, CountsPart> outer = Map(fs, inner, fm);
  return WordcountSkeleton{outer, fs.m, fe.m, fm.m};
}

NamedEstimates export_named_estimates(const EstimateRegistry& reg,
                                      const SkelNode& root) {
  std::unordered_map<int, std::string> names;
  for (const Muscle* m : tree_muscles(root)) names[m->id()] = m->name();
  NamedEstimates out;
  const Estimates snap = reg.snapshot();
  snap.for_each([&](std::int64_t key, const Estimates::Entry& entry) {
    const auto it = names.find(estimate_key_muscle(key));
    if (it == names.end()) return;
    const int depth = estimate_key_depth(key);
    // Aggregate entries export under the bare name; per-depth entries under
    // "name@depth" (both are restored by init_named_estimates).
    const std::string k =
        depth == kAnyDepth ? it->second : it->second + "@" + std::to_string(depth);
    out[k] = entry;
  });
  return out;
}

void init_named_estimates(EstimateRegistry& reg, const SkelNode& root,
                          const NamedEstimates& named) {
  std::unordered_map<std::string, int> ids;
  for (const Muscle* m : tree_muscles(root)) ids[m->name()] = m->id();
  for (const auto& [key, entry] : named) {
    const std::size_t at = key.find('@');
    const std::string name = key.substr(0, at);
    const int depth =
        at == std::string::npos ? kAnyDepth : std::stoi(key.substr(at + 1));
    const auto it = ids.find(name);
    if (it == ids.end()) continue;
    if (entry.t) reg.init_duration(it->second, depth, *entry.t);
    if (entry.card) reg.init_cardinality(it->second, depth, *entry.card);
  }
}

ScenarioResult run_wordcount_scenario(const ScenarioConfig& cfg,
                                      const NamedEstimates* init) {
  auto tweets =
      std::make_shared<const std::vector<std::string>>(generate_tweets(cfg.corpus));
  WordcountSkeleton ws = make_wordcount_skeleton(cfg.timings, cfg.jitter_seed);

  // Private pool by default; a multi-tenant caller passes the shared one (and
  // then gauge/lp_history series mix all tenants sharing it). A coordinator
  // always runs on its own pool — grants actuate there, so running anywhere
  // else (including a mismatched shared_pool) would leave the executing pool
  // stuck at initial_lp. The subprocess backend is declared before the pool:
  // the pool's destructor cancels pending provisions against it.
  std::optional<SubprocessBackend> subprocess_backend;
  std::optional<ResizableThreadPool> own_pool;
  ResizableThreadPool* shared =
      cfg.coordinator != nullptr ? &cfg.coordinator->pool() : cfg.shared_pool;
  if (shared == nullptr) {
    own_pool.emplace(cfg.initial_lp, cfg.max_lp);
    if (cfg.backend == ScenarioBackend::kSubprocess) {
      SubprocessBackendConfig sub;
      sub.max_workers = cfg.max_lp;
      subprocess_backend.emplace(sub);
      own_pool->set_backend(&*subprocess_backend);
    }
  }
  ResizableThreadPool& pool = shared != nullptr ? *shared : *own_pool;
  EventBus bus;
  EstimateRegistry reg(cfg.rho, cfg.scope);
  TrackerSet trackers(reg);
  bus.add_listener(trackers.as_listener());
  ControllerConfig ccfg;
  ccfg.min_interval = std::max(0.0, cfg.controller_min_interval * cfg.timings.scale);
  AutonomicController controller(pool, trackers, &default_clock(), ccfg);
  bus.add_listener(controller.as_listener());
  if (init != nullptr) init_named_estimates(reg, *ws.skeleton.node(), *init);

  int tenant = 0;
  if (cfg.coordinator != nullptr) {
    tenant = cfg.coordinator->register_tenant("wordcount");
    controller.set_sla_weight(cfg.sla_weight);
    controller.bind_coordinator(cfg.coordinator, tenant);
  }
  // A muscle exception propagates out of fut.get() below; the tenant's grant
  // and registration must return to the budget on that path too (disarm and
  // unregister are idempotent, so the normal path may also run them early).
  struct TenantGuard {
    AutonomicController& ctl;
    LpBudgetCoordinator* coord;
    int tenant;
    ~TenantGuard() {
      ctl.disarm();
      if (coord != nullptr) coord->unregister_tenant(tenant);
    }
  } guard{controller, cfg.coordinator, tenant};
  Engine engine(pool, bus);
  engine.set_tenant(tenant);
  TweetDoc doc;
  doc.tweets = tweets;
  doc.begin = 0;
  doc.end = tweets->size();
  doc.level = 0;

  ScenarioResult res;
  res.goal = cfg.wct_goal * cfg.timings.scale;
  const TimePoint t0 = default_clock().now();
  controller.arm(res.goal, cfg.max_lp);
  Future<CountsPart> fut = ws.skeleton.input(doc, engine);
  CountsPart out = fut.get();
  const TimePoint t1 = default_clock().now();
  controller.disarm();

  res.wct = t1 - t0;
  res.goal_met = res.wct <= res.goal;
  res.peak_busy = pool.gauge().peak();
  res.final_lp = pool.target_lp();
  for (const Sample& s : pool.gauge().series().samples()) {
    if (s.t >= t0 && s.t <= t1) res.busy_series.push_back(Sample{s.t - t0, s.value});
  }
  for (const Sample& s : pool.lp_history().samples()) {
    res.lp_series.push_back(Sample{std::max(0.0, s.t - t0), s.value});
  }
  res.actions = controller.actions();
  for (auto& a : res.actions) a.t -= t0;
  res.counts = std::move(out.counts);
  res.expected = count_tokens(doc);
  res.final_estimates = export_named_estimates(reg, *ws.skeleton.node());
  res.controller_evaluations = controller.evaluations();
  return res;  // guard unregisters the tenant
}

}  // namespace askel
