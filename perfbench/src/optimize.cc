// The optimize workload: scheduler-in-the-loop join-order search.
// OptimizeJoinOrder (TREE engine, pruning on; timed at 1 thread, checked
// against 4 threads) over a fixed set of 12 seeded graphs: chain, cycle
// and random-tree shapes at J in {6, 7, 8} and stars at J in {5, 6, 7},
// on sched_cli --optimize's default 16-site machine.
//
// Stars stop at J = 7: at J = 8 the compositional pruning collapses (one
// seeded star scheduled 917,010 of 3,695,760 plans and took 169 s), a
// known defect that needs its own workload once it is fixed.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compile.h"
#include "core/tree_schedule.h"
#include "inputs.h"
#include "io/plan_text.h"
#include "optimizer/optimizer.h"
#include "resource/machine.h"
#include "resource/usage_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kThreads = 4;
/// The graph set is fixed: one graph's search cost moves ~10x with its
/// seeded relation sizes (two seeded 12-graph sets measured 1.77 and 0.67
/// queries/s), so a per-run set would measure the seed, not the optimizer.
/// --seed only rotates the order each pass visits the graphs in.
constexpr uint64_t kGraphSetSeed = 1;
constexpr double kMinQueryMs = 1500.0;

struct Outcome {
  bool ok = false;
  double ms = 0.0;
  double makespan = 0.0;
  double seed_makespan = 0.0;
  uint64_t plan_id = 0;
  std::string plan_text;
  mrs::OptimizerStats stats;
  std::unique_ptr<mrs::PlanTree> plan;
};

Outcome Optimize(const GraphInput& g, int threads) {
  mrs::OptimizerOptions options;
  options.num_threads = threads;
  const auto start = Clock::now();
  auto result = mrs::OptimizeJoinOrder(*g.catalog, *g.graph, mrs::CostParams{},
                                       mrs::MachineConfig{},
                                       mrs::OverlapUsageModel(0.5), options);
  Outcome out;
  out.ms = MsSince(start);
  if (!result.ok()) return out;
  out.ok = true;
  out.makespan = result->makespan;
  out.seed_makespan = result->seed_makespan;
  out.plan_id = result->plan_id;
  out.stats = result->stats;
  auto text = mrs::WritePlanText(*g.catalog, *result->plan);
  if (text.ok()) out.plan_text = std::move(text).value();
  out.plan = std::move(result->plan);
  return out;
}

/// TREESCHEDULE response time of the returned plan, scheduled from
/// scratch with the optimizer's defaults.
double Reschedule(const mrs::PlanTree& plan, Tracer* tracer, int64_t req) {
  const mrs::MachineConfig machine;
  const mrs::CostParams params;
  Compiled compiled;
  if (!Compile(plan, params, machine.dims, &compiled, tracer, req)) return -1;
  ScopedSpan span(tracer, "core.tree_schedule", req);
  auto result = mrs::TreeSchedule(compiled.op_tree, compiled.task_tree,
                                  compiled.costs, params, machine,
                                  mrs::OverlapUsageModel(0.5));
  return result.ok() ? result->response_time : -1;
}

std::string Name(const GraphInput& g) {
  return g.shape + " J=" + std::to_string(g.joins);
}

void CheckOutcome(const GraphInput& g, const Outcome& o, Report* report) {
  if (!o.ok) {
    report->CheckFailed(Name(g) + ": OptimizeJoinOrder failed");
    return;
  }
  const double rescheduled = Reschedule(*o.plan, nullptr, -1);
  report->Check(std::abs(rescheduled - o.makespan) <=
                    1e-9 * std::max(1.0, o.makespan),
                Name(g) + ": makespan differs from TreeSchedule of the plan");
  report->Check(o.makespan <= o.seed_makespan,
                Name(g) + ": makespan above the greedy seed's");
}

void CheckSame(const GraphInput& g, const Outcome& a, const Outcome& b,
               Report* report) {
  report->Check(a.ok && b.ok && a.makespan == b.makespan &&
                    a.plan_id == b.plan_id && a.plan_text == b.plan_text,
                Name(g) + ": 1-thread and 4-thread results differ");
}

}  // namespace

void RunOptimize(const RunOptions& options, Report* report) {
  std::vector<GraphInput> graphs = OptimizeGraphs(kGraphSetSeed);
  std::rotate(graphs.begin(),
              graphs.begin() + static_cast<ptrdiff_t>(options.seed % graphs.size()),
              graphs.end());

  if (options.trace) {
    Tracer tracer;
    double ms_1t = 0.0;
    double ms_4t = 0.0;
    double traced_1t = 0.0;
    uint64_t scheduled = 0;
    uint64_t pruned = 0;
    uint64_t considered = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (size_t i = 0; i < graphs.size(); ++i) {
      const int64_t req = static_cast<int64_t>(i);
      const Outcome one = Optimize(graphs[i], 1);
      const Outcome four = Optimize(graphs[i], kThreads);
      Outcome traced;
      {
        ScopedSpan span(&tracer, "optimizer.optimize", req);
        traced = Optimize(graphs[i], 1);
      }
      CheckOutcome(graphs[i], four, report);
      CheckSame(graphs[i], one, four, report);
      report->Count(3, 0);
      ms_1t += one.ms;
      ms_4t += four.ms;
      traced_1t += traced.ms;
      scheduled += one.stats.plans_scheduled;
      pruned += one.stats.plans_pruned;
      considered += one.stats.plans_considered;
      hits += four.stats.cache_hits;
      misses += four.stats.cache_misses;
      if (four.ok) Reschedule(*four.plan, &tracer, req);
      report->Info("optimizer." + graphs[i].shape + std::to_string(graphs[i].joins) +
                       ".ms_1t_4t",
                   one.ms, "ms", "4 threads: " + std::to_string(four.ms) +
                                     " ms, scheduled " +
                                     std::to_string(one.stats.plans_scheduled));
    }
    tracer.WriteJsonLines(options.workdir + "/spans_optimize.jsonl");
    const auto self = tracer.SelfMsByName();
    const auto count = tracer.CountByName();
    auto per_call = [&](const std::string& name) {
      const auto c = count.find(name);
      return c == count.end() ? 0.0
                              : self.at(name) / static_cast<double>(c->second);
    };
    const double n = static_cast<double>(graphs.size());
    report->Metric("optimizer.optimize_ms_1t", ms_1t / n, "ms");
    report->Metric("optimizer.speedup_4t", ms_1t / ms_4t, "x");
    report->Metric("optimizer.plans_scheduled", static_cast<double>(scheduled),
                   "count");
    report->Metric("optimizer.prune_ratio",
                   considered > 0 ? static_cast<double>(pruned) / considered
                                  : 0.0,
                   "ratio");
    report->Metric("optimizer.ms_per_scheduled_plan",
                   scheduled > 0 ? ms_1t / static_cast<double>(scheduled) : 0.0,
                   "ms");
    report->Metric("cost.cache_hit_ratio",
                   hits + misses > 0
                       ? static_cast<double>(hits) / (hits + misses)
                       : 0.0,
                   "ratio");
    report->Metric("plan.expand_ms", per_call("plan.expand"), "ms");
    report->Metric("cost.cost_all_ms", per_call("cost.cost_all"), "ms");
    report->Metric("core.tree_schedule_ms", per_call("core.tree_schedule"),
                   "ms");
    report->Metric("trace.overhead_ms", (traced_1t - ms_1t) / n, "ms");
    return;
  }

  const std::string input_path = options.workdir + "/optimize_graphs.txt";
  {
    std::ofstream out(input_path);
    for (const GraphInput& g : graphs) out << g.text << "# ----\n";
  }
  const double setup_s = MedianSetupSeconds(
      options.self_exe, {"setup", "optimize", input_path}, report);

  // Timed: whole 1-thread passes over the 12 graphs while at least half
  // another pass fits in --seconds (at least one). One thread, because the
  // parallelism this benchmark's shared 4-vCPU host actually grants swings
  // from minute to minute; the 4-thread time is reported beside it. A
  // query's time is the median of back-to-back runs adding up to at least
  // kMinQueryMs, so the 30 ms queries are timed as steadily as the
  // multi-second ones.
  std::vector<double> query_ms;
  std::vector<double> ratio;
  std::vector<Outcome> first;
  double total_ms = 0.0;
  double pass_ms = 0.0;
  const auto start = Clock::now();
  do {
    const auto pass_start = Clock::now();
    for (size_t i = 0; i < graphs.size(); ++i) {
      std::vector<double> runs;
      double spent_ms = 0.0;
      do {
        Outcome o = Optimize(graphs[i], 1);
        runs.push_back(o.ms);
        spent_ms += o.ms;
        report->Count(1, 0);
        if (first.size() == i) {
          CheckOutcome(graphs[i], o, report);
          if (o.ok) ratio.push_back(o.makespan / o.seed_makespan);
          first.push_back(std::move(o));
        } else {
          report->Check(o.ok && o.makespan == first[i].makespan &&
                            o.plan_id == first[i].plan_id,
                        Name(graphs[i]) + ": result changed between runs");
        }
      } while (spent_ms < kMinQueryMs);
      query_ms.push_back(Median(runs));
      report->Info("optimize." + graphs[i].shape +
                       std::to_string(graphs[i].joins) + "_ms",
                   query_ms.back(), "ms",
                   "median of " + std::to_string(runs.size()) + " runs");
      total_ms += query_ms.back();
    }
    pass_ms = MsSince(pass_start);
  } while (MsSince(start) + 0.5 * pass_ms < options.seconds * 1e3);
  // Thread-count determinism, untimed for the metrics: every graph again
  // at 4 threads must give the 1-thread answer.
  double four_ms = 0.0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Outcome four = Optimize(graphs[i], kThreads);
    four_ms += four.ms;
    CheckSame(graphs[i], first[i], four, report);
    report->Count(1, 0);
  }

  std::vector<double> sorted = query_ms;
  std::sort(sorted.begin(), sorted.end());
  const Tail tail = TailOf(query_ms);
  const double rate = static_cast<double>(query_ms.size()) / (total_ms / 1e3);
  report->Metric("setup_s", setup_s, "s");
  report->Metric("throughput_per_s", rate, "1/s");
  report->Metric("p50_ms", Median(sorted), "ms");
  report->Metric("quality_ratio", Geomean(ratio), "ratio");
  report->Info("optimize.queries_per_s", rate, "queries/s",
               std::to_string(query_ms.size()) + " queries, 1 thread");
  report->Info("optimize.queries_per_s.4t",
               static_cast<double>(graphs.size()) / (four_ms / 1e3),
               "queries/s", "one pass, 4 threads");
  report->Info("optimize.p50_ms", Median(sorted), "ms",
               "n=" + std::to_string(sorted.size()));
  report->Info("optimize.tail_ms", tail.value, "ms", TailNote(tail));
  report->Info("optimize.makespan_vs_seed", Geomean(ratio), "ratio",
               "geomean optimized / greedy-seed makespan");
}

}  // namespace perfbench
