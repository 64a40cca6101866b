#include "workloads.h"

#include <utility>

#include "common/rng.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"

namespace perfbench {

namespace {

using blend::Result;
using blend::Rng;
using blend::Status;
using blend::Table;
using blend::core::Plan;
namespace tasks = blend::core::tasks;

/// Every plan of every workload asks for the top 10 tables.
constexpr int kTopK = 10;

/// Query inputs come from a stream independent of the lake generator's, so
/// changing a query count never regenerates the lake.
Rng QueryRng(uint64_t seed) { return Rng(seed ^ 0x9e3779b97f4a7c15ULL); }

/// Query threads of the single-client workloads' serving Blend: half the
/// 4 vCPUs the benchmark was tuned on. A statement waits for its slowest
/// morsel, so with a worker on every vCPU any outside process preempts one
/// and the tail measures the host's scheduler: under two bursty CPU hogs,
/// plan_ms_p99 of feature_discovery rose by ~45% on 4 workers, ~5% on 2.
constexpr int kSingleClientThreads = 2;

/// The plan a tasks::Add* helper filled in, or the helper's error.
Result<Plan> Finish(Plan plan, const Result<std::string>& sink) {
  if (!sink.ok()) return sink.status();
  return plan;
}

// union_serving: many short SC statements (~55 IN values each) from four
// clients; rendering, parsing, IN-list resolution, the fused scan->aggregate
// path, dedup-top-k, the Counter combiner and the shared scheduler under
// contention are most of the work.
constexpr size_t kUnionTables = 2000;
constexpr size_t kUnionPlans = 256;
constexpr int kUnionClients = 4;

Workload MakeUnionServing(uint64_t seed) {
  blend::lakegen::JoinLakeSpec spec;
  spec.num_tables = kUnionTables;
  spec.seed = seed;
  auto lake = std::make_shared<blend::DataLake>(blend::lakegen::MakeJoinLake(spec));

  Rng rng = QueryRng(seed);
  auto queries = std::make_shared<std::vector<Table>>();
  for (size_t t : rng.SampleIndices(lake->NumTables(), kUnionPlans)) {
    queries->push_back(lake->table(static_cast<blend::TableId>(t)));
  }

  Workload w;
  w.name = "union_serving";
  w.clients = kUnionClients;
  w.lake = std::move(lake);
  w.num_plans = queries->size();
  w.make_plan = [queries](size_t i) -> Result<Plan> {
    Plan plan;
    auto sink = tasks::AddUnionSearch(&plan, (*queries)[i], kTopK);
    return Finish(std::move(plan), sink);
  };
  return w;
}

// feature_discovery: few, heavy statements (correlation joins over the
// composite-key lake, NOT IN / IN rewrites, MC phase-1 join). The optimizer
// runs the two collinearity seekers first and the target seeker with
// NOT IN (their union), so the key domain needs well over their fetch of
// 10*k tables: with fewer, the Difference empties every sink and the MC step
// runs on `TableId IN (-1)`. One domain of 160 tables keeps every sink
// non-empty on every seed tried, and small numeric columns and 30 query keys
// keep a plan near 4 ms, so each timed round completes > 1000 plans.
constexpr size_t kFeatureTables = 160;
constexpr size_t kFeatureNumericColsMin = 1;
constexpr size_t kFeatureNumericColsMax = 2;
constexpr size_t kFeatureRunMax = 2;
constexpr size_t kFeaturePlans = 64;
constexpr size_t kFeatureQueryKeys = 30;
constexpr size_t kFeatureKeyTuples = 10;

struct FeatureInput {
  std::vector<std::string> keys;
  std::vector<double> target;
  std::vector<std::vector<double>> features;
  std::vector<std::vector<std::string>> key_tuples;
};

Workload MakeFeatureDiscovery(uint64_t seed) {
  blend::lakegen::CorrLakeSpec spec;
  spec.num_tables = kFeatureTables;
  spec.num_key_domains = 1;
  spec.numeric_key_frac = 0.0;
  spec.composite_key = true;
  spec.num_cols_min = kFeatureNumericColsMin;
  spec.num_cols_max = kFeatureNumericColsMax;
  spec.run_max = kFeatureRunMax;
  spec.seed = seed;
  auto corr = blend::lakegen::MakeCorrLake(spec);

  Rng rng = QueryRng(seed);
  auto inputs = std::make_shared<std::vector<FeatureInput>>();
  for (size_t q = 0; q < kFeaturePlans; ++q) {
    auto query = blend::lakegen::MakeCorrQuery(spec, /*domain=*/0, false,
                                               kFeatureQueryKeys, &rng);
    FeatureInput in;
    in.keys = std::move(query.keys);
    in.target = std::move(query.targets);
    in.features.resize(2);
    for (double t : in.target) {
      in.features[0].push_back(0.9 * t + 0.2 * rng.Normal());
      in.features[1].push_back(-0.8 * t + 0.3 * rng.Normal());
    }
    // Composite-key tuples: (key, key2) rows of one lake table.
    const Table& source = corr.lake.table(
        static_cast<blend::TableId>(rng.Uniform(corr.lake.NumTables())));
    for (size_t r : rng.SampleIndices(source.NumRows(), kFeatureKeyTuples)) {
      in.key_tuples.push_back({source.At(r, 0), source.At(r, 1)});
    }
    inputs->push_back(std::move(in));
  }

  Workload w;
  w.name = "feature_discovery";
  w.clients = 1;
  w.options.query_threads = kSingleClientThreads;
  w.lake = std::make_shared<blend::DataLake>(std::move(corr.lake));
  w.num_plans = inputs->size();
  w.make_plan = [inputs](size_t i) -> Result<Plan> {
    const FeatureInput& in = (*inputs)[i];
    Plan plan;
    auto sink = tasks::AddFeatureDiscovery(&plan, in.keys, in.target, in.features,
                                           in.key_tuples, kTopK);
    return Finish(std::move(plan), sink);
  };
  return w;
}

// mc_snapshot: negative-example search (MC \ MC) served from a
// compressed-codec snapshot: the only path through snapshot load, compressed
// posting decode, galloping intersection and MC Bloom + exact validation.
constexpr size_t kMcTables = 2000;
constexpr size_t kMcPlans = 128;
constexpr size_t kMcPositives = 12;
constexpr size_t kMcNegatives = 12;

struct NegativeInput {
  std::vector<std::vector<std::string>> positives;
  std::vector<std::vector<std::string>> negatives;
};

Workload MakeMcSnapshot(uint64_t seed) {
  blend::lakegen::McLakeSpec spec;
  spec.num_tables = kMcTables;
  spec.seed = seed;
  auto mc = blend::lakegen::MakeMcLake(spec);

  Rng rng = QueryRng(seed);
  auto inputs = std::make_shared<std::vector<NegativeInput>>();
  for (size_t q = 0; q < kMcPlans; ++q) {
    // Plans cycle through the pair domains, so every seed mixes them alike.
    const int domain = static_cast<int>(q % spec.num_pair_domains);
    NegativeInput in;
    in.positives = blend::lakegen::MakeMcQuery(spec, domain, kMcPositives, &rng);
    in.negatives = blend::lakegen::MakeMcQuery(spec, domain, kMcNegatives, &rng);
    inputs->push_back(std::move(in));
  }

  Workload w;
  w.name = "mc_snapshot";
  w.clients = 1;
  w.options.query_threads = kSingleClientThreads;
  w.lake = std::make_shared<blend::DataLake>(std::move(mc.lake));
  w.options.snapshot_codec = blend::PostingCodec::kCompressed;
  w.from_snapshot = true;
  w.num_plans = inputs->size();
  w.make_plan = [inputs](size_t i) -> Result<Plan> {
    const NegativeInput& in = (*inputs)[i];
    Plan plan;
    auto sink =
        tasks::AddNegativeExampleSearch(&plan, in.positives, in.negatives, kTopK);
    return Finish(std::move(plan), sink);
  };
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "union_serving") return MakeUnionServing(seed);
  if (name == "feature_discovery") return MakeFeatureDiscovery(seed);
  if (name == "mc_snapshot") return MakeMcSnapshot(seed);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace perfbench
