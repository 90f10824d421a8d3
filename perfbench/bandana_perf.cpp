// bandana_perf — the repository benchmark program.
//
//   bandana_perf --workload <paper_4pct|hot_cluster|retrain_drift>
//                --seed <n> --seconds <s> --trace <0|1> [--short]
//
// One process runs one workload, serving from one client thread. After the
// inputs (traces and embedding values generated from --seed, not timed)
// every run makes setup_repeats rounds of:
//
//   setup    train + build a store from scratch; setup_s is the median
//            over the rounds;
//   replay   first round only: a fixed-length, single-threaded pass at the
//            workload's fixed offered rate on the simulated clock. Every
//            simulated and counted metric comes from here, so they repeat
//            exactly for a seed; the sim_max_kreq_s search replays its
//            per-request block reads through the library's device model
//            (NvmIoEngine). Later rounds serve the same requests untimed
//            instead, as warm-up;
//   timed    closed-loop serving for --seconds / setup_repeats; only the
//            serving calls are timed, output checks run between them.
//
// Every served vector is compared with the benchmark's own copy of the
// values; a failed check counts as a failed operation and the run exits 1.
// The last stdout line is one JSON object: with --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer metrics derived from the
// benchmark's spans and the library's counters. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/router.h"
#include "cluster/store_cluster.h"
#include "core/bandana.h"
#include "nvm/io_engine.h"
#include "span_trace.h"
#include "trace/paper_workload.h"

namespace perf {
namespace {

using namespace bandana;
using Clock = std::chrono::steady_clock;

// Fixed thread and shard counts: no count is left to a
// hardware_concurrency() default, so runs on hosts with different core
// counts do the same work.
constexpr std::size_t kTrainThreads = 2;
constexpr std::uint32_t kCacheShards = 4;
constexpr unsigned kRingCount = 1;       // AsyncFile: one serving thread.
constexpr unsigned kFallbackThreads = 2; // AsyncFile pread fallback pool.
// Requests per window of the timed phase. kreq_per_s is the median of the
// windows' throughputs and wall_p99_us the median of their p99s (a window
// has ~10 samples beyond its p99), so a stretch of host contention moves a
// few windows, not the run's figure.
constexpr std::size_t kWindowRequests = 1024;

struct WorkloadSpec {
  std::string name;
  double scale = 0.25;             ///< paper_tables scale (1.0 = 1.1 M).
  std::size_t train_queries = 0;   ///< Per table, for the offline trainer.
  std::size_t warm_requests = 0;   ///< Replay warm-up, not measured.
  std::size_t measured_requests = 0;
  double dram_share = 0.04;        ///< DRAM cache / model vectors.
  double interarrival_us = 100.0;  ///< Fixed offered rate on the sim clock.
  double latency_limit_us = 250.0; ///< sim p99 limit of sim_max_kreq_s.
  int setup_repeats = 3;
};

WorkloadSpec workload_spec(const std::string& name, bool short_mode) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_4pct") {
    w.train_queries = 20'000;
    w.warm_requests = 3'000;
    w.measured_requests = 8'000;
    w.dram_share = 0.04;
    w.interarrival_us = 100.0;
    w.latency_limit_us = 250.0;
  } else if (name == "hot_cluster") {
    w.train_queries = 20'000;
    w.warm_requests = 3'000;
    w.measured_requests = 6'000;
    w.dram_share = 1.0;
    w.interarrival_us = 100.0;
    w.latency_limit_us = 100.0;
  } else if (name == "retrain_drift") {
    w.train_queries = 20'000;
    w.warm_requests = 3'000;
    w.measured_requests = 2'000;  // Per post-swap window; see run_retrain.
    w.dram_share = 0.04;
    w.interarrival_us = 200.0;
    w.latency_limit_us = 500.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_4pct, hot_cluster, retrain_drift)");
  }
  if (short_mode) {
    w.scale = 0.02;
    w.train_queries = 2'000;
    w.warm_requests = 300;
    w.measured_requests = 600;
    w.setup_repeats = 1;
  }
  return w;
}

// ---------------------------------------------------------------- inputs

struct Model {
  std::vector<TableWorkloadConfig> cfgs;
  std::vector<std::unique_ptr<TraceGenerator>> gens;
  std::vector<Trace> train;
  std::vector<EmbeddingTable> values;
  std::vector<std::uint32_t> sizes;
  std::uint64_t total_vectors = 0;
  std::size_t vector_bytes = 0;
};

Model make_model(const WorkloadSpec& w, std::uint64_t seed) {
  Model m;
  PaperWorkloadOptions opts;
  opts.scale = w.scale;
  m.cfgs = paper_tables(opts);
  for (std::size_t i = 0; i < m.cfgs.size(); ++i) {
    m.gens.push_back(std::make_unique<TraceGenerator>(
        m.cfgs[i], splitmix64(seed * 131 + i)));
    m.train.push_back(m.gens.back()->generate(w.train_queries));
    m.values.push_back(m.gens.back()->make_embeddings());
    m.sizes.push_back(m.cfgs[i].num_vectors);
    m.total_vectors += m.cfgs[i].num_vectors;
  }
  m.vector_bytes = m.cfgs[0].vector_bytes();
  return m;
}

/// The next `n` requests of the model's streams: request q reads query q of
/// every table.
std::vector<MultiGetRequest> draw_requests(Model& m, std::size_t n) {
  std::vector<Trace> traces;
  for (auto& g : m.gens) traces.push_back(g->generate(n));
  std::vector<MultiGetRequest> reqs(n);
  for (std::size_t q = 0; q < n; ++q) {
    for (std::size_t t = 0; t < traces.size(); ++t) {
      reqs[q].add(static_cast<TableId>(t), traces[t].query(q));
    }
  }
  return reqs;
}

/// A second set of values for every table (what a retrained model pushes):
/// the same generators' values under a different seed.
std::vector<EmbeddingTable> retrained_values(const Model& m,
                                             std::uint64_t seed) {
  std::vector<EmbeddingTable> out;
  for (std::size_t i = 0; i < m.cfgs.size(); ++i) {
    out.push_back(TraceGenerator(m.cfgs[i], splitmix64(~seed * 977 + i))
                      .make_embeddings());
  }
  return out;
}

StoreConfig store_config() {
  StoreConfig c;
  c.cache_shards = kCacheShards;
  return c;
}

TrainerConfig trainer_config(const WorkloadSpec& w, const Model& m) {
  TrainerConfig c;
  c.total_cache_vectors = static_cast<std::uint64_t>(
      std::llround(w.dram_share * static_cast<double>(m.total_vectors)));
  return c;
}

// ---------------------------------------------------------------- checks

class Checker {
 public:
  void fail(const std::string& what) {
    if (failed_ < 8) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    ++failed_;
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t failed_ = 0;
};

/// Maps (table, vector) to a key unique to the storage block holding it.
using BlockKeyFn = std::function<std::uint64_t(TableId, VectorId)>;

/// Checks one served request, recording the first mismatch. Every vector
/// must equal `expect[t]`'s bytes, or `alt[t]`'s when `alt` is given; per
/// get, hits + misses == ids; per request, block_reads <= the distinct
/// blocks its ids live in.
void check_result(const MultiGetRequest& req, const MultiGetResult& res,
                  const std::vector<EmbeddingTable>& expect,
                  const std::vector<EmbeddingTable>* alt,
                  const BlockKeyFn& block_key, std::size_t vector_bytes,
                  Checker& checker) {
  if (res.vectors.size() != req.gets.size() ||
      res.per_table.size() != req.gets.size()) {
    checker.fail("result shape differs from the request");
    return;
  }
  std::vector<std::uint64_t> keys;
  for (std::size_t g = 0; g < req.gets.size(); ++g) {
    const auto& get = req.gets[g];
    const auto& bytes = res.vectors[g];
    const auto& st = res.per_table[g];
    if (bytes.size() != get.ids.size() * vector_bytes) {
      checker.fail("table " + std::to_string(get.table) + ": " +
                   std::to_string(bytes.size()) + " bytes served for " +
                   std::to_string(get.ids.size()) + " ids");
      return;
    }
    if (st.hits + st.misses != get.ids.size()) {
      checker.fail("hits + misses != ids on table " +
                   std::to_string(get.table));
      return;
    }
    for (std::size_t i = 0; i < get.ids.size(); ++i) {
      const VectorId v = get.ids[i];
      const std::byte* got = bytes.data() + i * vector_bytes;
      if (std::memcmp(got, expect[get.table].vector_bytes_view(v).data(),
                      vector_bytes) == 0) {
        continue;
      }
      if (alt != nullptr &&
          std::memcmp(got, (*alt)[get.table].vector_bytes_view(v).data(),
                      vector_bytes) == 0) {
        continue;
      }
      checker.fail("table " + std::to_string(get.table) + " vector " +
                   std::to_string(v) + ": served bytes match no stored copy");
      return;
    }
    for (const VectorId v : get.ids) keys.push_back(block_key(get.table, v));
  }
  std::sort(keys.begin(), keys.end());
  const auto distinct = static_cast<std::uint64_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  if (res.block_reads > distinct) {
    checker.fail(std::to_string(res.block_reads) + " block reads for " +
                 std::to_string(distinct) + " distinct blocks");
  }
}

BlockKeyFn store_block_key(const Store& store) {
  return [&store](TableId t, VectorId v) {
    return (std::uint64_t{t} << 40) | store.table(t).layout().block_of(v);
  };
}

/// Mean distinct blocks per table-query under `layouts` (the partition
/// quality the paper's SHP optimises).
struct FanoutSum {
  double blocks = 0.0;
  std::uint64_t queries = 0;
  void add(const MultiGetRequest& req,
           const std::function<const BlockLayout&(TableId)>& layout_of) {
    std::vector<BlockId> b;
    for (const auto& get : req.gets) {
      if (get.ids.empty()) continue;
      const BlockLayout& l = layout_of(get.table);
      b.clear();
      for (const VectorId v : get.ids) b.push_back(l.block_of(v));
      std::sort(b.begin(), b.end());
      blocks += static_cast<double>(std::unique(b.begin(), b.end()) -
                                    b.begin());
      ++queries;
    }
  }
  double mean() const {
    return queries ? blocks / static_cast<double>(queries) : 0.0;
  }
};

// ---------------------------------------------------------------- metrics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------- device replay

/// One replay pass's per-request device demand: block reads per node (a
/// bare store is one node) and trickle write blocks issued just before the
/// request (node 0).
struct Demand {
  std::uint32_t nodes = 1;
  std::vector<std::uint32_t> reads;   ///< reads[r * nodes + n]
  std::vector<std::uint32_t> writes;  ///< writes[r]
  std::size_t requests() const { return writes.size(); }
  void add(std::span<const std::uint32_t> node_reads, std::uint32_t w) {
    reads.insert(reads.end(), node_reads.begin(), node_reads.end());
    writes.push_back(w);
  }
};

struct RateProbe {
  double kreq_s;
  double p99_us;
  bool ok;
};

/// Replays `d` open loop at `kreq_s` through fresh device models with the
/// serving stores' seeds. A rate is sustainable when the p99 of all
/// requests AND of the last quarter (a growing backlog shows there first)
/// stay within the limit.
RateProbe probe_rate(const NvmDeviceConfig& dev,
                     const std::vector<std::uint64_t>& seeds, const Demand& d,
                     double kreq_s, double limit_us) {
  std::vector<NvmIoEngine> engines;
  for (const auto s : seeds) engines.emplace_back(dev, s);
  const double gap_us = 1e3 / kreq_s;
  const std::size_t n = d.requests();
  std::vector<double> all, tail;
  all.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double at = static_cast<double>(r) * gap_us;
    if (d.writes[r] > 0) {
      engines[0].submit_wave(at, d.writes[r], nullptr, IoKind::kWrite);
    }
    double lat = 0.0;
    for (std::uint32_t k = 0; k < d.nodes; ++k) {
      const std::uint32_t c = d.reads[r * d.nodes + k];
      if (c > 0) lat = std::max(lat, engines[k].submit_wave(at, c) - at);
    }
    all.push_back(lat);
    if (4 * r >= 3 * n) tail.push_back(lat);
  }
  const double p99 = percentile(all, 0.99);
  return {kreq_s, p99, p99 <= limit_us && percentile(tail, 0.99) <= limit_us};
}

/// Highest offered rate (kreq/s) the demand sustains within the limit:
/// bracket by doubling from the workload's fixed rate, then bisect in log
/// space to 0.05 %.
double search_max_rate(const NvmDeviceConfig& dev,
                       const std::vector<std::uint64_t>& seeds,
                       const Demand& d, double start_kreq_s, double limit_us,
                       Checker& checker) {
  std::vector<RateProbe> probes;
  auto probe = [&](double r) {
    probes.push_back(probe_rate(dev, seeds, d, r, limit_us));
    return probes.back().ok;
  };
  double lo = start_kreq_s, hi = start_kreq_s;
  if (probe(start_kreq_s)) {
    while (probe(hi *= 2.0)) {
      lo = hi;
      if (hi > 1e6) break;
    }
  } else {
    while (!probe(lo /= 2.0)) {
      hi = lo;
      if (lo < 1e-3) {
        checker.fail("no offered rate meets the latency limit");
        return lo;
      }
    }
  }
  while (hi / lo > 1.0005) {
    const double mid = std::sqrt(lo * hi);
    (probe(mid) ? lo : hi) = mid;
  }
  // The device model routes each IO to the channel whose queue drains
  // first and draws its service time from that channel's stream, so at a
  // higher rate the same IOs can draw shorter service times: p99 is not
  // monotone in the rate at fine resolution. Report the inversions.
  std::sort(probes.begin(), probes.end(),
            [](const RateProbe& a, const RateProbe& b) {
              return a.kreq_s < b.kreq_s;
            });
  std::size_t inversions = 0;
  double worst_drop = 0.0;
  for (std::size_t i = 1; i < probes.size(); ++i) {
    const double drop = probes[i - 1].p99_us - probes[i].p99_us;
    if (drop > 0.0) {
      ++inversions;
      worst_drop = std::max(worst_drop, drop);
    }
  }
  std::printf("# sim_max search: %zu probes, %zu where p99 fell as the rate "
              "rose (largest fall %.3f us)\n",
              probes.size(), inversions, worst_drop);
  return lo;
}

// -------------------------------------------------------------- the run

/// What every workload measures; the workload functions fill it in.
struct RunData {
  // setup (one entry per repeat)
  std::vector<double> setup_s, train_s, tune_s, build_s;
  std::uint64_t peak_training_bytes = 0;
  // replay pass
  std::vector<double> sim_us;
  Demand demand;
  std::vector<std::uint64_t> engine_seeds;
  std::uint64_t lookups = 0, block_reads = 0;
  TableMetrics cache;  ///< Counter deltas over the measured replay.
  TableMetrics cache_total;  ///< Counters from store creation to its end.
  StoreMetrics store_delta;
  FanoutSum fanout;
  double space_amp = 0.0;
  double sim_max_kreq_s = 0.0;
  // timed phase
  std::vector<double> call_us;      ///< Wall of each serving call.
  std::vector<double> window_kreq;  ///< Throughput per kWindowRequests.
  std::vector<double> window_p99;   ///< Call-wall p99 per window.
  double pump_us = 0.0;             ///< Pump calls inside the timed phase.
  std::uint64_t timed_requests = 0;
  // workload-specific per-layer values (name -> value, unit)
  std::map<std::string, std::pair<double, std::string>> extra;
  std::uint64_t attempted = 0;
};

/// Accumulates the timed phase: per-call wall, pump wall, and the
/// throughput of each window of kWindowRequests requests.
class TimedLoop {
 public:
  explicit TimedLoop(RunData& d) : d_(d) {}

  void record(double call_us, double pump_us) {
    d_.call_us.push_back(call_us);
    d_.pump_us += pump_us;
    window_us_ += call_us + pump_us;
    ++d_.timed_requests;
    if (d_.call_us.size() - window_start_ == kWindowRequests) {
      d_.window_kreq.push_back(static_cast<double>(kWindowRequests) * 1e3 /
                               window_us_);
      d_.window_p99.push_back(percentile(
          {d_.call_us.begin() + static_cast<std::ptrdiff_t>(window_start_),
           d_.call_us.end()},
          0.99));
      window_start_ = d_.call_us.size();
      window_us_ = 0.0;
    }
  }

 private:
  RunData& d_;
  std::size_t window_start_ = 0;
  double window_us_ = 0.0;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Trainer::train on the model's traces with a fixed-size pool.
StorePlan train_plan(const WorkloadSpec& w, const Model& m, Tracer& tracer,
                     RunData& d) {
  ThreadPool pool(kTrainThreads);
  std::vector<const EmbeddingTable*> vals;
  for (const auto& v : m.values) vals.push_back(&v);
  TrainerStats stats;
  StorePlan plan;
  {
    Tracer::Scope s(tracer, SpanKind::kTrain);
    plan = Trainer(store_config(), trainer_config(w, m))
               .train(m.train, m.sizes, &pool, vals, &stats);
  }
  d.train_s.push_back(stats.partition_us / 1e6);
  d.tune_s.push_back((stats.curve_us + stats.tune_us) / 1e6);
  d.peak_training_bytes = std::max(d.peak_training_bytes,
                                   stats.peak_training_bytes);
  return plan;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t plan_blocks(const StorePlan& plan) {
  std::uint64_t b = 0;
  for (const auto& t : plan.tables) b += t.layout.num_blocks();
  return b;
}

double model_bytes(const Model& m) {
  return static_cast<double>(m.total_vectors) *
         static_cast<double>(m.vector_bytes);
}

/// Counter deltas over the measured replay (before: c0/s0, after: c1/s1).
void note_counters(RunData& d, const TableMetrics& c0, const TableMetrics& c1,
                   const StoreMetrics& s0, const StoreMetrics& s1) {
  d.cache_total = c1;
  d.cache = c1;
  d.cache.lookups -= c0.lookups;
  d.cache.hits -= c0.hits;
  d.cache.prefetch_inserted -= c0.prefetch_inserted;
  d.cache.prefetch_hits -= c0.prefetch_hits;
  d.cache.nvm_block_reads -= c0.nvm_block_reads;
  d.store_delta = s1;
  d.store_delta.deferred_lookups -= s0.deferred_lookups;
  d.store_delta.retry_waves -= s0.retry_waves;
  d.store_delta.staged_blocks -= s0.staged_blocks;
}

std::chrono::steady_clock::time_point slice_deadline(const WorkloadSpec& w,
                                                     double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                seconds / w.setup_repeats));
}

// The timed serving is split into one slice per setup round: spread across
// the run, it averages over more of the shared host's load changes than one
// contiguous stretch would.

// ---------------------------------------------------------- paper_4pct

void run_paper(const WorkloadSpec& w, std::uint64_t seed, double seconds,
               Tracer& tracer, Checker& checker, RunData& d) {
  Model m = make_model(w, seed);
  const auto warm = draw_requests(m, w.warm_requests);
  const auto measured = draw_requests(m, w.measured_requests);
  std::vector<const MultiGetRequest*> cycle;
  for (const auto& r : warm) cycle.push_back(&r);
  for (const auto& r : measured) cycle.push_back(&r);
  const StoreConfig cfg = store_config();
  const std::uint64_t store_seed = splitmix64(seed ^ 0x5107E);
  d.engine_seeds = {store_seed};
  auto factory = tracer.enabled()
                     ? timed_factory(memory_storage_factory(), tracer)
                     : memory_storage_factory();

  std::optional<Store> store;
  TimedLoop loop(d);
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    tracer.set_phase(Phase::kSetup);
    store.reset();
    const auto t0 = Clock::now();
    const StorePlan plan = train_plan(w, m, tracer, d);
    const auto t1 = Clock::now();
    {
      Tracer::Scope s(tracer, SpanKind::kBuild);
      store.emplace(StoreBuilder(cfg)
                        .seed(store_seed)
                        .storage(factory)
                        .add_plan(plan, m.values)
                        .build());
    }
    d.build_s.push_back(seconds_since(t1));
    d.setup_s.push_back(seconds_since(t0));

    const BlockKeyFn key = store_block_key(*store);
    auto serve = [&](const MultiGetRequest& req, bool timed) {
      store->advance_time_us(w.interarrival_us);
      MultiGetResult res;
      const auto c0 = Clock::now();
      {
        Tracer::Scope s(tracer, SpanKind::kMultiGet);
        res = store->multi_get(req);
      }
      if (timed) loop.record(us_between(c0, Clock::now()), 0.0);
      ++d.attempted;
      check_result(req, res, m.values, nullptr, key, m.vector_bytes, checker);
      return res;
    };

    if (rep == 0) {
      // Replay: warm-up, then the measured pass at the fixed offered rate.
      tracer.set_phase(Phase::kReplay);
      for (const auto& req : warm) serve(req, false);
      const TableMetrics c0 = store->total_metrics();
      const StoreMetrics s0 = store->store_metrics();
      for (const auto& req : measured) {
        const MultiGetResult res = serve(req, false);
        d.sim_us.push_back(res.service_latency_us);
        const auto reads = static_cast<std::uint32_t>(res.block_reads);
        d.demand.add({&reads, 1}, 0);
        d.block_reads += res.block_reads;
        d.lookups += res.lookups();
        d.fanout.add(req, [&](TableId t) -> const BlockLayout& {
          return plan.tables[t].layout;
        });
      }
      note_counters(d, c0, store->total_metrics(), s0, store->store_metrics());
      checker.expect(store->storage().num_blocks() == plan_blocks(plan),
                     "storage blocks differ from the plan's block count");
      d.space_amp = static_cast<double>(store->storage().num_blocks()) *
                    static_cast<double>(cfg.block_bytes) / model_bytes(m);
    } else {
      for (const auto* req : cycle) serve(*req, false);
    }

    tracer.set_phase(Phase::kTimed);
    const auto deadline = slice_deadline(w, seconds);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      serve(*cycle[i % cycle.size()], true);
    }
  }
}

// ---------------------------------------------------------- hot_cluster

ClusterConfig cluster_config(const WorkloadSpec& w, std::uint64_t seed) {
  ClusterConfig c;
  c.nodes = 4;
  c.replicas = 2;
  c.hot_tables = 4;
  c.placement = PlacementKind::kPlanAware;
  // The three largest paper tables (table 3, 4 and 8) are range-split.
  c.split_min_vectors = static_cast<std::uint32_t>(200'000 * w.scale);
  c.seed = splitmix64(seed ^ 0xC1057E);
  c.store = store_config();
  return c;
}

void run_cluster(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                 Tracer& tracer, Checker& checker, RunData& d) {
  Model m = make_model(w, seed);
  const auto warm = draw_requests(m, w.warm_requests);
  const auto measured = draw_requests(m, w.measured_requests);
  std::vector<const MultiGetRequest*> cycle;
  for (const auto& r : warm) cycle.push_back(&r);
  for (const auto& r : measured) cycle.push_back(&r);
  const ClusterConfig ccfg = cluster_config(w, seed);
  for (std::uint32_t n = 0; n < ccfg.nodes; ++n) {
    d.engine_seeds.push_back(cluster_node_seed(ccfg.seed, n));
  }
  d.demand.nodes = ccfg.nodes;
  auto factory = tracer.enabled()
                     ? timed_factory(memory_storage_factory(), tracer)
                     : memory_storage_factory();

  std::unique_ptr<StoreCluster> cluster;
  TimedLoop loop(d);
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    tracer.set_phase(Phase::kSetup);
    cluster.reset();
    const auto t0 = Clock::now();
    const StorePlan plan = train_plan(w, m, tracer, d);
    const auto t1 = Clock::now();
    {
      Tracer::Scope s(tracer, SpanKind::kBuild);
      cluster = std::make_unique<StoreCluster>(ccfg, plan, m.values, factory);
    }
    d.build_s.push_back(seconds_since(t1));
    d.setup_s.push_back(seconds_since(t0));

    const std::uint32_t nodes = cluster->num_nodes();
    const PlacementMap& pm = cluster->placement();
    const BlockKeyFn key = [&](TableId t, VectorId v) {
      const std::size_t ri = pm.range_index_of(t, v);
      const auto& r = pm.tables[t][ri];
      const BlockId b = cluster->node(r.nodes[0])
                            .table(r.local_ids[0])
                            .layout()
                            .block_of(v - r.lo);
      return (std::uint64_t{t} << 48) | (std::uint64_t{ri} << 32) | b;
    };
    ClusterRouter& router = cluster->router();
    auto serve = [&](const MultiGetRequest& req, bool timed) {
      cluster->advance_time_us(w.interarrival_us);
      ClusterMultiGetResult res;
      const auto c0 = Clock::now();
      {
        Tracer::Scope s(tracer, SpanKind::kRouterMultiGet);
        res = router.multi_get(req);
      }
      if (timed) loop.record(us_between(c0, Clock::now()), 0.0);
      ++d.attempted;
      checker.expect(res.failed_lookups == 0, "cluster lookups failed");
      check_result(req, res.result, m.values, nullptr, key, m.vector_bytes,
                   checker);
      return res;
    };

    if (rep == 0) {
      tracer.set_phase(Phase::kReplay);
      for (const auto& req : warm) serve(req, false);
      const ClusterMetrics c0 = cluster->metrics();
      std::vector<std::uint64_t> node_reads(nodes);
      std::vector<std::uint32_t> per_node(nodes);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        node_reads[n] = cluster->node(n).total_metrics().nvm_block_reads;
      }
      std::uint64_t sub_requests = 0;
      for (const auto& req : measured) {
        const ClusterMultiGetResult res = serve(req, false);
        d.sim_us.push_back(res.result.service_latency_us);
        for (std::uint32_t n = 0; n < nodes; ++n) {
          const std::uint64_t r =
              cluster->node(n).total_metrics().nvm_block_reads;
          per_node[n] = static_cast<std::uint32_t>(r - node_reads[n]);
          node_reads[n] = r;
        }
        d.demand.add(per_node, 0);
        d.block_reads += res.result.block_reads;
        d.lookups += res.result.lookups();
        sub_requests += res.sub_requests;
        d.fanout.add(req, [&](TableId t) -> const BlockLayout& {
          return plan.tables[t].layout;
        });
      }
      const ClusterMetrics c1 = cluster->metrics();
      note_counters(d, c0.tables, c1.tables, c0.store, c1.store);
      checker.expect(c1.router.failed_lookups == 0, "cluster lookups failed");

      double max_lookups = 0.0, sum_lookups = 0.0;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        const double l = static_cast<double>(c1.per_node_tables[n].lookups -
                                             c0.per_node_tables[n].lookups);
        max_lookups = std::max(max_lookups, l);
        sum_lookups += l;
      }
      d.extra["cluster.sub_requests_per_req"] = {
          static_cast<double>(sub_requests) /
              static_cast<double>(measured.size()),
          "count"};
      d.extra["cluster.node_lookup_skew"] = {
          sum_lookups > 0 ? max_lookups * nodes / sum_lookups : 0.0, "ratio"};

      // Space: every node's allocated blocks (replicas included) against
      // the logical model, recomputed from each range's sliced layout.
      std::uint64_t allocated = 0, expected = 0;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        allocated += cluster->node(n).storage().num_blocks();
      }
      for (const auto& ranges : pm.tables) {
        for (const auto& r : ranges) {
          for (std::size_t k = 0; k < r.nodes.size(); ++k) {
            expected +=
                cluster->node(r.nodes[k]).table(r.local_ids[k]).num_blocks();
          }
        }
      }
      checker.expect(allocated == expected,
                     "cluster storage blocks differ from the placed layouts");
      d.space_amp = static_cast<double>(allocated) *
                    static_cast<double>(ccfg.store.block_bytes) /
                    model_bytes(m);
    } else {
      for (const auto* req : cycle) serve(*req, false);
    }

    tracer.set_phase(Phase::kTimed);
    const auto deadline = slice_deadline(w, seconds);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      serve(*cycle[i % cycle.size()], true);
    }
    d.extra["cluster.failovers"].first +=
        static_cast<double>(router.metrics().failovers);
    d.extra["cluster.failovers"].second = "count";
  }
}

// -------------------------------------------------------- retrain_drift

/// Trickle rate limit: per table session, blocks per interval of sim time.
constexpr RepublishConfig kTrickle{/*blocks_per_interval=*/1,
                                   /*interval_us=*/200.0};
/// Drift event: every profile re-drawn (the trained co-access layout goes
/// stale) and a quarter of the popularity head re-ranked.
constexpr double kDriftProfiles = 1.0;
constexpr double kDriftPopularity = 0.25;

void run_retrain(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                 Tracer& tracer, Checker& checker, RunData& d,
                 const std::filesystem::path& dir) {
  Model m = make_model(w, seed);
  const std::vector<EmbeddingTable> fresh = retrained_values(m, seed);
  const auto warm = draw_requests(m, w.warm_requests);
  const StoreConfig cfg = store_config();
  const std::uint64_t store_seed = splitmix64(seed ^ 0xD21F7);
  d.engine_seeds = {store_seed};
  const std::string blocks = (dir / "blocks.bin").string();
  const std::string manifest = (dir / "store.manifest").string();
  AsyncFileBlockStorage::Options aopt;
  aopt.ring_count = kRingCount;
  aopt.fallback_threads = kFallbackThreads;
  aopt.wave_buffer_blocks = cfg.device.queue_depth * cfg.device.channels;
  auto factory = [&]() {
    auto f = async_file_storage_factory(blocks, aopt, manifest);
    return tracer.enabled() ? timed_factory(std::move(f), tracer) : f;
  };
  RetrainerConfig rcfg;
  rcfg.sampler.reservoir_queries = 4096;
  rcfg.sampler.sampling_rate = 1.0;
  rcfg.sampler.seed = splitmix64(seed ^ 0x5A3B1E);
  rcfg.republish = kTrickle;
  rcfg.min_sampled_queries = 0;  // retrain_now only; no background thread.

  std::optional<Store> store;
  StorePlan plan;
  std::vector<TablePlan> retrained;    // The replay's retrained plan.
  std::vector<MultiGetRequest> cycle;  // Drifted traffic of the timed slices.
  BlockKeyFn key;
  auto serve = [&](const MultiGetRequest& req,
                   const std::vector<EmbeddingTable>& expect,
                   const std::vector<EmbeddingTable>* alt) {
    MultiGetResult res;
    {
      Tracer::Scope sc(tracer, SpanKind::kMultiGet);
      res = store->multi_get(req);
    }
    ++d.attempted;
    check_result(req, res, expect, alt, key, m.vector_bytes, checker);
    return res;
  };
  auto serve_next = [&](const MultiGetRequest& req,
                        const std::vector<EmbeddingTable>& expect,
                        const std::vector<EmbeddingTable>* alt) {
    store->advance_time_us(w.interarrival_us);
    return serve(req, expect, alt);
  };

  TimedLoop loop(d);
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    tracer.set_phase(Phase::kSetup);
    store.reset();
    const auto t0 = Clock::now();
    plan = train_plan(w, m, tracer, d);
    const auto t1 = Clock::now();
    {
      Tracer::Scope s(tracer, SpanKind::kBuild);
      store.emplace(StoreBuilder(cfg)
                        .seed(store_seed)
                        .storage(factory())
                        .manifest(manifest)
                        .add_plan(plan, m.values)
                        .build());
    }
    d.build_s.push_back(seconds_since(t1));
    d.setup_s.push_back(seconds_since(t0));
    key = store_block_key(*store);

    std::size_t next_plan = 1;  // A fresh build serves the setup plan.
    if (rep == 0) {
      tracer.set_phase(Phase::kReplay);
      const auto* af = dynamic_cast<const AsyncFileBlockStorage*>(
          &unwrap(store->storage()));
      std::printf("# backend: AsyncFile, io_uring %s, rings %u, fallback "
                  "threads %u, registered buffers %s\n",
                  af && af->io_uring_active() ? "active"
                                              : "inactive (pread pool)",
                  kRingCount, kFallbackThreads,
                  af && af->registered_buffers_active() ? "yes" : "no");
      auto retrainer = std::make_unique<OnlineRetrainer>(
          *store, rcfg,
          [&](TableId t) -> const EmbeddingTable& { return fresh[t]; });

      // 1. Pre-drift traffic warms the cache on the trained layout.
      for (const auto& req : warm) serve_next(req, m.values, nullptr);

      // 2. Traffic drifts; the stale layout serves a drifted window, which
      //    is also the sampler's retraining window.
      for (auto& g : m.gens) g->apply_drift(kDriftProfiles, kDriftPopularity);
      retrainer->sampler().drain();
      const auto drifted = draw_requests(m, 2 * w.measured_requests);
      std::uint64_t before_reads = 0, before_lookups = 0;
      for (std::size_t i = 0; i < drifted.size(); ++i) {
        const MultiGetResult res = serve_next(drifted[i], m.values, nullptr);
        if (i >= w.measured_requests) {
          before_reads += res.block_reads;
          before_lookups += res.lookups();
        }
      }

      // 3. Retrain on the drifted window and trickle the new plan and
      //    values out while serving; every request from here is measured.
      const StoreMetrics s0 = store->store_metrics();
      const TableMetrics c0 = store->total_metrics();
      const auto r0 = Clock::now();
      std::size_t opened = 0;
      {
        Tracer::Scope s(tracer, SpanKind::kRetrain);
        opened = retrainer->retrain_now();
      }
      d.extra["core.retrain_s"] = {seconds_since(r0), "s"};
      ++d.attempted;
      checker.expect(opened > 0, "retrain opened no trickle session");
      const RetrainerStats rs0 = retrainer->stats();

      std::uint64_t writes_before = store->store_metrics().write_blocks;
      auto measure = [&](const MultiGetResult& res) {
        const std::uint64_t wb = store->store_metrics().write_blocks;
        const auto reads = static_cast<std::uint32_t>(res.block_reads);
        d.demand.add({&reads, 1},
                     static_cast<std::uint32_t>(wb - writes_before));
        writes_before = wb;
        d.sim_us.push_back(res.service_latency_us);
        d.block_reads += res.block_reads;
        d.lookups += res.lookups();
      };
      std::size_t trickle_requests = 0;
      while (retrainer->republishing()) {
        // The pump's write wave and the request's reads arrive together.
        store->advance_time_us(w.interarrival_us);
        {
          Tracer::Scope s(tracer, SpanKind::kPump);
          retrainer->pump();
        }
        const std::vector<MultiGetRequest> one = draw_requests(m, 1);
        key = store_block_key(*store);
        measure(serve(one[0], m.values, &fresh));
        d.fanout.add(one[0], [&](TableId t) -> const BlockLayout& {
          return store->table(t).layout();
        });
        if (++trickle_requests > 200'000) {
          checker.fail("trickle did not finish");
          break;
        }
      }
      const RetrainerStats rs = retrainer->stats();
      checker.expect(rs.swaps > 0, "no mapping swap happened");

      // 4. After the swaps every vector holds the new values; a post-swap
      //    window warms the new layout, the next is compared with the
      //    stale layout's.
      const auto after_warm = draw_requests(m, w.measured_requests);
      const auto after = draw_requests(m, w.measured_requests);
      std::uint64_t after_reads = 0, after_lookups = 0;
      key = store_block_key(*store);
      for (const auto& req : after_warm) {
        measure(serve_next(req, fresh, nullptr));
      }
      for (const auto& req : after) {
        const MultiGetResult res = serve_next(req, fresh, nullptr);
        measure(res);
        after_reads += res.block_reads;
        after_lookups += res.lookups();
      }
      const double before_rate = 1e3 * static_cast<double>(before_reads) /
                                 static_cast<double>(before_lookups);
      const double after_rate = 1e3 * static_cast<double>(after_reads) /
                                static_cast<double>(after_lookups);
      std::printf("# drifted traffic: %.3f block reads/klookup on the stale "
                  "layout, %.3f after retraining\n",
                  before_rate, after_rate);
      checker.expect(after_rate < before_rate,
                     "retraining did not lower NVM reads on drifted traffic");
      const StoreMetrics s1 = store->store_metrics();
      note_counters(d, c0, store->total_metrics(), s0, s1);

      // Space: the plan's blocks plus the trickle's replacement blocks (the
      // first push recycles nothing, so every written block is new).
      const std::uint64_t expected_blocks =
          plan_blocks(plan) + rs.blocks_written;
      checker.expect(store->storage().num_blocks() == expected_blocks,
                     "storage blocks " +
                         std::to_string(store->storage().num_blocks()) +
                         " != plan + replacement blocks " +
                         std::to_string(expected_blocks));
      d.space_amp = static_cast<double>(store->storage().num_blocks()) *
                    static_cast<double>(cfg.block_bytes) / model_bytes(m);
      d.extra["core.retrain_train_s"] = {
          static_cast<double>(rs0.train_us) / 1e6, "s"};
      d.extra["core.retrain_diff_s"] = {
          static_cast<double>(rs0.diff_us) / 1e6, "s"};
      d.extra["core.trickle_blocks_written"] = {
          static_cast<double>(rs.blocks_written), "count"};
      d.extra["core.trickle_blocks_skipped"] = {
          static_cast<double>(rs.blocks_skipped), "count"};
      d.extra["core.trickle_waves"] = {static_cast<double>(rs.waves),
                                       "count"};
      d.extra["core.manifest_commits"] = {
          static_cast<double>(s1.manifest_commits), "count"};
      d.extra["core.retired_states"] = {
          static_cast<double>(store->retired_states()), "count"};

      // 5. Warm restart from the manifest: same layouts, new values.
      for (std::size_t t = 0; t < store->num_tables(); ++t) {
        auto snap = store->table(static_cast<TableId>(t)).mapping_snapshot();
        retrained.push_back({std::move(snap.layout),
                             std::move(snap.access_counts), snap.policy, 0.0});
      }
      retrainer.reset();
      store.reset();
      const auto o0 = Clock::now();
      {
        Tracer::Scope s(tracer, SpanKind::kOpen);
        store.emplace(Store::open(cfg, manifest, factory(), store_seed));
      }
      d.extra["core.open_s"] = {seconds_since(o0), "s"};
      ++d.attempted;
      for (std::size_t t = 0; t < store->num_tables(); ++t) {
        checker.expect(
            store->table(static_cast<TableId>(t)).layout().order() ==
                retrained[t].layout.order(),
            "reopened layout differs on table " + std::to_string(t));
      }
      key = store_block_key(*store);
      for (const auto& req : after) serve_next(req, fresh, nullptr);
      cycle = draw_requests(m, w.measured_requests);
      next_plan = 0;  // The reopened store serves the retrained plan.
    } else {
      for (const auto& req : cycle) serve_next(req, m.values, nullptr);
    }

    // Timed slice: the setup plan and the retrained plan are pushed
    // alternately as rate-limited trickles, so block writes, mapping swaps
    // and manifest commits run beside the reads throughout. Serving calls
    // and pumps are timed; opening a push (its plan diff) is not a serving
    // call.
    const std::vector<TablePlan>* plans[2] = {&plan.tables, &retrained};
    std::vector<TrickleRepublish> sessions;
    tracer.set_phase(Phase::kTimed);
    const auto deadline = slice_deadline(w, seconds);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      if (sessions.empty()) {
        for (std::size_t t = 0; t < store->num_tables(); ++t) {
          sessions.push_back(store->begin_trickle_republish(
              static_cast<TableId>(t), fresh[t], (*plans[next_plan])[t],
              kTrickle));
        }
        next_plan ^= 1;
      }
      store->advance_time_us(w.interarrival_us);
      const auto c0 = Clock::now();
      {
        Tracer::Scope s(tracer, SpanKind::kPump);
        for (auto& session : sessions) session.pump();
      }
      const auto c1 = Clock::now();
      MultiGetResult res;
      {
        Tracer::Scope s(tracer, SpanKind::kMultiGet);
        res = store->multi_get(cycle[i % cycle.size()]);
      }
      loop.record(us_between(c1, Clock::now()), us_between(c0, c1));
      ++d.attempted;
      key = store_block_key(*store);
      check_result(cycle[i % cycle.size()], res, fresh, &m.values, key,
                   m.vector_bytes, checker);
      std::erase_if(sessions,
                    [](const TrickleRepublish& s) { return s.done(); });
    }
  }
  store.reset();
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(k) + " needs a value");
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--short") {
      a.short_mode = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(k));
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Per-layer metrics of a traced run, from the spans and the counters.
/// Serving-path timings come from the timed phase; storage write and sync
/// counts from the replay phase, whose work is fixed for a seed.
void per_layer(const WorkloadSpec& w, const RunData& d,
               const std::vector<Span>& spans, Report& r) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& sp : spans) {
    if (sp.parent >= 0) {
      child_us[static_cast<std::size_t>(sp.parent)] += sp.us();
    }
  }
  double read_calls = 0, read_blocks = 0, read_us = 0;
  double write_calls = 0, write_blocks = 0, write_us = 0;
  double sync_calls = 0, sync_us = 0;
  std::vector<double> router_us, self_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const bool timed = sp.phase == Phase::kTimed;
    const bool replay = sp.phase == Phase::kReplay;
    switch (sp.kind) {
      case SpanKind::kReadBlock:
      case SpanKind::kReadBlocks:
        // Reads under a serving call; not the reads of pumps or of
        // unparented storage work such as a trickle's plan diff.
        if (timed && sp.parent >= 0 &&
            spans[static_cast<std::size_t>(sp.parent)].kind !=
                SpanKind::kPump) {
          ++read_calls;
          read_blocks += sp.blocks;
          read_us += sp.us();
        }
        break;
      case SpanKind::kWriteBlock:
      case SpanKind::kWriteBlocks:
        if (replay) {
          ++write_calls;
          write_blocks += sp.blocks;
          write_us += sp.us();
        }
        break;
      case SpanKind::kSync:
        if (replay) {
          ++sync_calls;
          sync_us += sp.us();
        }
        break;
      case SpanKind::kMultiGet:
      case SpanKind::kRouterMultiGet:
        if (timed) {
          if (sp.kind == SpanKind::kRouterMultiGet) {
            router_us.push_back(sp.us());
          }
          self_us.push_back(sp.us() - child_us[i]);
        }
        break;
      default:
        break;
    }
  }
  const double reqs = static_cast<double>(self_us.size());
  const double per_req = reqs > 0 ? 1.0 / reqs : 0.0;
  const double klookups = static_cast<double>(d.cache.lookups) / 1e3;
  const NvmDeviceConfig dev = store_config().device;
  const double peak_blocks_s = dev.peak_bandwidth_bytes_per_s() /
                               static_cast<double>(dev.block_bytes);
  const double offered_blocks_s =
      d.sim_us.empty() ? 0.0
                       : static_cast<double>(d.block_reads) /
                             static_cast<double>(d.sim_us.size()) * 1e6 /
                             w.interarrival_us;
  auto extra = [&](const char* name, const char* unit) {
    const auto it = d.extra.find(name);
    r.add(name, it == d.extra.end() ? 0.0 : it->second.first, unit);
  };
  r.add("partition.train_s", median(d.train_s), "s");
  r.add("partition.fanout", d.fanout.mean(), "blocks/query");
  r.add("partition.peak_training_mib",
        static_cast<double>(d.peak_training_bytes) / (1024.0 * 1024.0), "MiB");
  r.add("cache.tune_s", median(d.tune_s), "s");
  r.add("cache.hit_rate", d.cache.hit_rate(), "ratio");
  r.add("cache.prefetch_inserts_per_klookup",
        klookups > 0 ? static_cast<double>(d.cache.prefetch_inserted) / klookups
                     : 0.0,
        "count/klookup");
  // A prefetched entry counts one hit at most, but may have been inserted
  // before the measured requests: the ratio uses the replay's totals.
  r.add("cache.prefetch_useful",
        d.cache_total.prefetch_inserted
            ? static_cast<double>(d.cache_total.prefetch_hits) /
                  static_cast<double>(d.cache_total.prefetch_inserted)
            : 0.0,
        "ratio");
  r.add("nvm.read_calls_per_req", read_calls * per_req, "count");
  r.add("nvm.blocks_per_read_call",
        read_calls > 0 ? read_blocks / read_calls : 0.0, "blocks");
  r.add("nvm.read_us_per_req", read_us * per_req, "us");
  r.add("nvm.staged_blocks_per_req",
        d.sim_us.empty() ? 0.0
                         : static_cast<double>(d.store_delta.staged_blocks) /
                               static_cast<double>(d.sim_us.size()),
        "blocks");
  r.add("nvm.deferred_lookups",
        static_cast<double>(d.store_delta.deferred_lookups), "count");
  r.add("nvm.retry_waves", static_cast<double>(d.store_delta.retry_waves),
        "count");
  r.add("nvm.write_calls", write_calls, "count");
  r.add("nvm.write_blocks", write_blocks, "count");
  r.add("nvm.write_us", write_us, "us");
  r.add("nvm.sync_calls", sync_calls, "count");
  r.add("nvm.sync_us", sync_us, "us");
  r.add("nvm.device_util", offered_blocks_s / peak_blocks_s, "ratio");
  r.add("core.build_s", median(d.build_s), "s");
  r.add("core.multi_get_self_us", median(self_us), "us");
  extra("core.retrain_s", "s");
  extra("core.retrain_train_s", "s");
  extra("core.retrain_diff_s", "s");
  r.add("core.pump_us_per_req",
        d.timed_requests ? d.pump_us / static_cast<double>(d.timed_requests)
                         : 0.0,
        "us");
  extra("core.trickle_blocks_written", "count");
  extra("core.trickle_blocks_skipped", "count");
  extra("core.trickle_waves", "count");
  extra("core.manifest_commits", "count");
  extra("core.retired_states", "count");
  extra("core.open_s", "s");
  r.add("cluster.router_us_p50", median(router_us), "us");
  extra("cluster.sub_requests_per_req", "count");
  extra("cluster.node_lookup_skew", "ratio");
  extra("cluster.failovers", "count");
  r.add("trace.kreq_per_s", median(d.window_kreq), "kreq/s");
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec w = workload_spec(args.workload, args.short_mode);
  const StoreConfig sc = store_config();
  std::printf("# workload %s, seed %llu, %.3g s timed, trace %d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              args.short_mode ? ", short mode" : "");
  std::printf("# build %s, compiler %s, nproc %u\n", BANDANA_PERF_BUILD_TYPE,
              BANDANA_PERF_COMPILER, std::thread::hardware_concurrency());
  std::printf("# threads: serving 1, training %zu, retraining 1; cache "
              "shards %u; device channels %u x queue depth %u\n",
              kTrainThreads, kCacheShards, sc.device.channels,
              sc.device.queue_depth);
  std::printf("# model: paper tables at scale %.3g, %.0f%% DRAM, %zu train "
              "queries/table; offered rate %.4g kreq/s, sim p99 limit %.4g "
              "us\n",
              w.scale, 100.0 * w.dram_share, w.train_queries,
              1e3 / w.interarrival_us, w.latency_limit_us);
  std::fflush(stdout);

  Tracer tracer(args.trace);
  Checker checker;
  RunData d;
  const std::filesystem::path work =
      std::filesystem::path(".bench_work") /
      (w.name + "-" + std::to_string(::getpid()));
  if (w.name == "paper_4pct") {
    run_paper(w, args.seed, args.seconds, tracer, checker, d);
  } else if (w.name == "hot_cluster") {
    std::printf("# cluster: %u nodes, %u replicas of %u hot tables, "
                "plan-aware placement\n",
                cluster_config(w, 0).nodes, cluster_config(w, 0).replicas,
                cluster_config(w, 0).hot_tables);
    run_cluster(w, args.seed, args.seconds, tracer, checker, d);
  } else {
    std::filesystem::create_directories(work);
    try {
      run_retrain(w, args.seed, args.seconds, tracer, checker, d, work);
    } catch (...) {
      std::filesystem::remove_all(work);
      throw;
    }
    std::filesystem::remove_all(work);
  }

  d.sim_max_kreq_s =
      search_max_rate(sc.device, d.engine_seeds, d.demand,
                      1e3 / w.interarrival_us, w.latency_limit_us, checker);
  const double reads_per_klookup =
      1e3 * static_cast<double>(d.block_reads) / static_cast<double>(d.lookups);
  std::printf("# replay: %zu measured requests, %llu lookups; timed: %llu "
              "requests in %zu windows\n",
              d.sim_us.size(), static_cast<unsigned long long>(d.lookups),
              static_cast<unsigned long long>(d.timed_requests),
              d.window_kreq.size());
  // The simulated and counted metrics, printed in both modes: they must
  // repeat exactly for a seed, traced or not.
  std::printf("# deterministic {\"sim_p50_us\": %.17g, \"sim_p99_us\": %.17g, "
              "\"sim_max_kreq_s\": %.17g, \"nvm_reads_per_klookup\": %.17g, "
              "\"space_amp\": %.17g}\n",
              percentile(d.sim_us, 0.50), percentile(d.sim_us, 0.99),
              d.sim_max_kreq_s, reads_per_klookup, d.space_amp);

  Report r;
  if (!args.trace) {
    double busy_us = 0.0;
    for (const double u : d.call_us) busy_us += u;
    r.add("setup_s", median(d.setup_s), "s");
    r.add("kreq_per_s", median(d.window_kreq), "kreq/s");
    r.add("wall_p50_us", percentile(d.call_us, 0.50), "us");
    r.add("wall_p99_us", median(d.window_p99), "us");
    r.add("sim_p50_us", percentile(d.sim_us, 0.50), "us");
    r.add("sim_p99_us", percentile(d.sim_us, 0.99), "us");
    r.add("sim_max_kreq_s", d.sim_max_kreq_s, "kreq/s");
    r.add("nvm_reads_per_klookup", reads_per_klookup, "blocks/klookup");
    r.add("space_amp", d.space_amp, "ratio");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    std::vector<double> wk = d.window_kreq;
    std::sort(wk.begin(), wk.end());
    std::printf("# windows of %zu requests: kreq/s min %.4g, q1 %.4g, median "
                "%.4g, q3 %.4g, max %.4g\n",
                kWindowRequests, percentile(wk, 0.0), percentile(wk, 0.25),
                percentile(wk, 0.5), percentile(wk, 0.75), percentile(wk, 1.0));
    std::printf("# timed: %.4f kreq/s over all calls (%.3f s inside calls, "
                "%.3f s pumping)\n",
                static_cast<double>(d.timed_requests) * 1e3 /
                    (busy_us + d.pump_us),
                busy_us / 1e6, d.pump_us / 1e6);
  } else {
    std::filesystem::create_directories(".bench_work");
    const std::string path = ".bench_work/spans-" + w.name + "-" +
                             std::to_string(args.seed) + ".tsv";
    // The metrics use every span; the file keeps the first kSpansWritten
    // (setup, replay and the start of the timed phase) to bound its size.
    constexpr std::size_t kSpansWritten = 250'000;
    const std::vector<Span> spans = tracer.spans();
    if (!tracer.write(path, kSpansWritten)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::printf("# %zu spans recorded, the first %zu written to %s\n",
                  spans.size(), std::min(spans.size(), kSpansWritten),
                  path.c_str());
    }
    per_layer(w, d, spans, r);
  }
  const bool correct = checker.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(d.attempted),
              static_cast<unsigned long long>(checker.failed()),
              r.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    return perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bandana_perf: %s\n", e.what());
    return 2;
  }
}
