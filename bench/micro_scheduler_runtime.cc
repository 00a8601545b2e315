// Ablation A5: scheduler runtime scaling (Propositions 5.1 / 5.2 and the
// Section 7 selection cost), measured with google-benchmark.
//
//   OPERATORSCHEDULE:  O(M P (M + log P))
//   TREESCHEDULE:      O(J P (J + log P))
//   GF selection:      O(M P log M)
//
// plus the batch scheduling engine: BM_BatchSchedule reports queries/sec
// (items_per_second) for a generated batch at 1/2/4/8 worker threads —
// the speedup column of the ROADMAP's throughput story — and
// BM_BatchSchedule_NoCache isolates the memoized parallelize cache.
// BM_TreeScheduleToJson times the serialize layer alone (the schedule JSON
// a served request carries), the micro counterpart of perfbench's traced
// io.serialize_ms.

#include <benchmark/benchmark.h>

#include "core/malleable.h"
#include "core/operator_schedule.h"
#include "core/tree_schedule.h"
#include "exec/batch_scheduler.h"
#include "io/schedule_export.h"
#include "workload/experiment.h"

namespace mrs {
namespace {

ExperimentConfig ConfigFor(int joins, int sites) {
  ExperimentConfig config;
  config.workload.num_joins = joins;
  config.machine.num_sites = sites;
  config.granularity = 0.7;
  config.overlap = 0.5;
  return config;
}

void BM_TreeSchedule(benchmark::State& state) {
  const int joins = static_cast<int>(state.range(0));
  const int sites = static_cast<int>(state.range(1));
  ExperimentConfig config = ConfigFor(joins, sites);
  auto artifacts = PrepareQuery(config, 0);
  if (!artifacts.ok()) {
    state.SkipWithError("query preparation failed");
    return;
  }
  const OverlapUsageModel usage(config.overlap);
  TreeScheduleOptions options;
  options.granularity = config.granularity;
  for (auto _ : state) {
    auto result = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                               artifacts->costs, config.cost, config.machine,
                               usage, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("J=" + std::to_string(joins) +
                 " P=" + std::to_string(sites));
}
BENCHMARK(BM_TreeSchedule)
    ->Args({10, 32})
    ->Args({20, 32})
    ->Args({40, 32})
    ->Args({80, 32})
    ->Args({40, 16})
    ->Args({40, 64})
    ->Args({40, 140});

void BM_TreeScheduleToJson(benchmark::State& state) {
  const int joins = static_cast<int>(state.range(0));
  const int sites = static_cast<int>(state.range(1));
  ExperimentConfig config = ConfigFor(joins, sites);
  auto artifacts = PrepareQuery(config, 0);
  if (!artifacts.ok()) {
    state.SkipWithError("query preparation failed");
    return;
  }
  const OverlapUsageModel usage(config.overlap);
  TreeScheduleOptions options;
  options.granularity = config.granularity;
  auto result = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                             artifacts->costs, config.cost, config.machine,
                             usage, options);
  if (!result.ok()) {
    state.SkipWithError("TreeSchedule failed");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = TreeScheduleToJson(*result);
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.counters["kb"] = static_cast<double>(bytes) / 1024.0;
  state.SetLabel("J=" + std::to_string(joins) +
                 " P=" + std::to_string(sites));
}
BENCHMARK(BM_TreeScheduleToJson)
    ->Args({10, 32})
    ->Args({10, 140})
    ->Args({40, 32})
    ->Args({40, 140})
    ->Unit(benchmark::kMicrosecond);

void BM_TreeScheduleMalleable(benchmark::State& state) {
  const int joins = static_cast<int>(state.range(0));
  ExperimentConfig config = ConfigFor(joins, 64);
  auto artifacts = PrepareQuery(config, 0);
  if (!artifacts.ok()) {
    state.SkipWithError("query preparation failed");
    return;
  }
  const OverlapUsageModel usage(config.overlap);
  TreeScheduleOptions options;
  options.policy = ParallelizationPolicy::kMalleable;
  for (auto _ : state) {
    auto result = TreeSchedule(artifacts->op_tree, artifacts->task_tree,
                               artifacts->costs, config.cost, config.machine,
                               usage, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TreeScheduleMalleable)->Arg(10)->Arg(20)->Arg(40);

void BM_SynchronousBaseline(benchmark::State& state) {
  const int joins = static_cast<int>(state.range(0));
  ExperimentConfig config = ConfigFor(joins, 64);
  auto artifacts = PrepareQuery(config, 0);
  if (!artifacts.ok()) {
    state.SkipWithError("query preparation failed");
    return;
  }
  const OverlapUsageModel usage(config.overlap);
  for (auto _ : state) {
    auto result = RunScheduler(SchedulerKind::kSynchronous,
                               &artifacts.value(), config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynchronousBaseline)->Arg(10)->Arg(20)->Arg(40);

void BM_OperatorScheduleOnly(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int sites = static_cast<int>(state.range(1));
  const OverlapUsageModel usage(0.5);
  const CostParams params;
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < m; ++i) {
    OperatorCost cost;
    cost.op_id = i;
    cost.processing =
        WorkVector({500.0 + 13.0 * (i % 7), 400.0 + 29.0 * (i % 5), 0.0});
    cost.data_bytes = 30000.0 * (1 + i % 4);
    auto op = ParallelizeFloating(cost, params, usage, 0.7, sites);
    if (!op.ok()) {
      state.SkipWithError("parallelization failed");
      return;
    }
    ops.push_back(std::move(op).value());
  }
  for (auto _ : state) {
    auto schedule = OperatorSchedule(ops, sites, 3);
    benchmark::DoNotOptimize(schedule);
  }
  state.SetLabel("M=" + std::to_string(m) + " P=" + std::to_string(sites));
}
BENCHMARK(BM_OperatorScheduleOnly)
    ->Args({16, 32})
    ->Args({64, 32})
    ->Args({256, 32})
    ->Args({64, 8})
    ->Args({64, 128});

// Batch scheduling engine throughput: one batch of `range(1)` generated
// queries per iteration on `range(0)` worker threads. items_per_second is
// queries/sec; divide across thread counts for the speedup vs. 1 thread.
void BM_BatchSchedule(benchmark::State& state, bool use_cache) {
  const int threads = static_cast<int>(state.range(0));
  const int queries = static_cast<int>(state.range(1));
  BatchSchedulerOptions options;
  options.num_threads = threads;
  options.overlap_eps = 0.5;
  options.tree.granularity = 0.7;
  options.use_cost_cache = use_cache;
  WorkloadParams workload;
  workload.num_joins = 10;
  CostParams params;
  MachineConfig machine;
  machine.num_sites = 32;
  BatchScheduler engine(params, machine, options);
  int failed = 0;
  for (auto _ : state) {
    BatchOutput output = engine.ScheduleGenerated(workload, 9607, queries);
    failed += queries - output.NumOk();
    benchmark::DoNotOptimize(output);
  }
  if (failed > 0) {
    state.SkipWithError("batch items failed");
    return;
  }
  state.SetItemsProcessed(state.iterations() * queries);
  state.SetLabel("K=" + std::to_string(threads) +
                 " Q=" + std::to_string(queries) +
                 (use_cache ? " cache" : " nocache"));
}

void BM_BatchScheduleCached(benchmark::State& state) {
  BM_BatchSchedule(state, /*use_cache=*/true);
}
void BM_BatchScheduleNoCache(benchmark::State& state) {
  BM_BatchSchedule(state, /*use_cache=*/false);
}

BENCHMARK(BM_BatchScheduleCached)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({4, 1000})
    ->Args({8, 1000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchScheduleNoCache)
    ->Args({1, 1000})
    ->Args({8, 1000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mrs
