// The batch workload: offline compile-time scheduling with no I/O. All-
// distinct generated plans at J in {10, 20, 30, 40, 50} go through
// BatchScheduler::ScheduleAll (timed at 1 thread, checked against 4), once
// at P = 32 and once at P = 140 (either side of PlacementIndex's 64-site
// leaf-scan/tree switch), then one at a time through pipelined
// LISTSCHEDULE as `sched_cli --engine=list --pipeline` runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "compile.h"
#include "core/list_schedule.h"
#include "core/opt_bound.h"
#include "core/tree_schedule.h"
#include "exec/batch_scheduler.h"
#include "inputs.h"
#include "io/plan_text.h"
#include "resource/machine.h"
#include "resource/usage_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPlansPerSize = 16;
constexpr int kSites[] = {32, 140};
constexpr int kThreads = 4;
/// Share of --seconds spent on the TREE passes; LIST gets the rest.
constexpr double kTreeShare = 0.35;
/// Separates plans in the set-up input file.
constexpr const char* kPlanSeparator = "# ----\n";

mrs::MachineConfig Machine(int sites) {
  mrs::MachineConfig machine;
  machine.num_sites = sites;
  return machine;
}

/// FNV-1a over every schedule's response time, phase makespans and clone
/// placements (operator, clone, site, start, work): equal digests, equal
/// results.
uint64_t Digest(const mrs::BatchOutput& output) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  for (const mrs::BatchItemResult& item : output.items) {
    mix(&item.schedule.response_time, sizeof(double));
    for (const mrs::PhaseSchedule& phase : item.schedule.phases) {
      mix(&phase.makespan, sizeof(double));
      for (const mrs::ClonePlacement& c : phase.schedule.placements()) {
        mix(&c.op_id, sizeof(int));
        mix(&c.clone_idx, sizeof(int));
        mix(&c.site, sizeof(int));
        mix(&c.start, sizeof(double));
        mix(&c.t_seq, sizeof(double));
        for (size_t d = 0; d < c.work.dim(); ++d) {
          const double w = c.work[d];
          mix(&w, sizeof(double));
        }
      }
    }
  }
  return h;
}

struct TreeRun {
  mrs::BatchOutput output;
  double ms = 0.0;
};

TreeRun ScheduleAll(const std::vector<const mrs::PlanTree*>& plans, int sites,
                    int threads, mrs::MetricsRegistry* metrics) {
  mrs::BatchSchedulerOptions options;
  options.num_threads = threads;
  options.metrics = metrics;
  mrs::BatchScheduler engine(mrs::CostParams{}, Machine(sites), options);
  TreeRun run;
  const auto start = Clock::now();
  run.output = engine.ScheduleAll(plans);
  run.ms = MsSince(start);
  return run;
}

struct ListRun {
  double makespan = 0.0;
  bool fell_back = false;
  bool ok = false;
};

/// One plan through the offline LIST path: expand, cost, pipelined
/// LISTSCHEDULE.
ListRun ListOne(const mrs::PlanTree& plan, int sites, Tracer* tracer,
                int64_t request) {
  ListRun run;
  const mrs::MachineConfig machine = Machine(sites);
  const mrs::CostParams params;
  Compiled compiled;
  if (!Compile(plan, params, machine.dims, &compiled, tracer, request)) {
    return run;
  }
  const mrs::OverlapUsageModel usage(0.5);
  mrs::ListScheduleOptions options;
  options.pipeline = true;
  ScopedSpan span(tracer, "core.list_schedule", request);
  auto result = mrs::ListSchedule(compiled.op_tree, compiled.task_tree,
                                  compiled.costs, params, machine, usage,
                                  options);
  if (!result.ok()) return run;
  run.ok = true;
  run.makespan = result->makespan;
  run.fell_back = result->used_tree_fallback || result->used_list_fallback;
  return run;
}

std::vector<const mrs::PlanTree*> Pointers(const std::vector<PlanInput>& in) {
  std::vector<const mrs::PlanTree*> out;
  for (const PlanInput& p : in) out.push_back(p.plan.get());
  return out;
}

/// Checks a ScheduleAll output item by item; true when all are OK.
bool CheckItems(const mrs::BatchOutput& output, const char* what,
                Report* report) {
  bool ok = true;
  for (const auto& item : output.items) {
    if (!item.status.ok()) {
      report->CheckFailed(std::string(what) + ": plan " +
                          std::to_string(item.index) + ": " +
                          item.status.ToString());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

void RunBatch(const RunOptions& options, Report* report) {
  const std::vector<PlanInput> inputs = BatchPlans(options.seed, kPlansPerSize);
  const std::vector<const mrs::PlanTree*> plans = Pointers(inputs);
  const size_t n = plans.size();
  const mrs::CostParams params;
  const mrs::OverlapUsageModel usage(0.5);

  // Reference answers, untimed: TREE at 1 thread per size (digest and
  // the LIST <= TREE check), OPTBOUND per plan and size.
  std::vector<TreeRun> reference;
  std::vector<std::vector<double>> bound(std::size(kSites));
  for (size_t s = 0; s < std::size(kSites); ++s) {
    reference.push_back(ScheduleAll(plans, kSites[s], 1, nullptr));
    CheckItems(reference.back().output, "ScheduleAll at 1 thread", report);
    for (size_t i = 0; i < n; ++i) {
      Compiled compiled;
      double b = 0.0;
      if (Compile(*plans[i], params, mrs::MachineConfig{}.dims, &compiled)) {
        auto lb = mrs::OptBound(compiled.op_tree, compiled.task_tree,
                                compiled.costs, params, usage, 0.7,
                                kSites[s]);
        if (lb.ok()) b = lb->Bound();
      }
      report->Check(b > 0.0, "OptBound failed for plan " + std::to_string(i));
      bound[s].push_back(b);
    }
  }

  if (options.trace) {
    Tracer tracer;
    std::vector<double> list_fallbacks;
    // Untraced and traced passes of the same per-plan TREE work: their
    // difference is the tracing overhead.
    auto tree_pass = [&](Tracer* t) {
      const auto start = Clock::now();
      for (size_t s = 0; s < std::size(kSites); ++s) {
        const mrs::MachineConfig machine = Machine(kSites[s]);
        const std::string span_name =
            s == 0 ? "core.tree_schedule" : "core.tree_schedule.p140";
        for (size_t i = 0; i < n; ++i) {
          const int64_t req = static_cast<int64_t>(s * n + i);
          {
            ScopedSpan parse(t, "io.parse", req);
            auto parsed = mrs::ParsePlanText(inputs[i].text);
            if (!parsed.ok()) report->CheckFailed("plan text does not parse");
          }
          Compiled compiled;
          if (!Compile(*plans[i], params, machine.dims, &compiled, t, req)) {
            report->CheckFailed("compile failed");
            continue;
          }
          ScopedSpan span(t, span_name, req);
          auto r = mrs::TreeSchedule(compiled.op_tree, compiled.task_tree,
                                     compiled.costs, params, machine, usage);
          if (!r.ok()) report->CheckFailed("TreeSchedule failed");
        }
      }
      return MsSince(start);
    };
    // Three alternating pairs; the median difference is the overhead. The
    // spans of the first traced pass are the ones reported.
    std::vector<double> overhead_ms;
    for (int pair = 0; pair < 3; ++pair) {
      Tracer scratch;
      const double untraced_ms = tree_pass(nullptr);
      const double traced_ms = tree_pass(pair == 0 ? &tracer : &scratch);
      overhead_ms.push_back(traced_ms - untraced_ms);
    }
    for (size_t i = 0; i < n; ++i) {
      const ListRun run = ListOne(*plans[i], kSites[0], &tracer,
                                  static_cast<int64_t>(2 * n + i));
      report->Check(run.ok, "ListSchedule failed");
      list_fallbacks.push_back(run.fell_back ? 1.0 : 0.0);
    }
    mrs::MetricsRegistry metrics;
    const TreeRun four = ScheduleAll(plans, kSites[0], kThreads, &metrics);
    CheckItems(four.output, "ScheduleAll at 4 threads", report);
    report->Check(Digest(four.output) == Digest(reference[0].output),
                  "ScheduleAll digest differs between 1 and 4 threads");
    report->Count(5 * n, 0);
    tracer.WriteJsonLines(options.workdir + "/spans_batch.jsonl");

    const auto self = tracer.SelfMsByName();
    const auto count = tracer.CountByName();
    auto per_call = [&](const std::string& name) {
      const auto c = count.find(name);
      return c == count.end() ? 0.0
                              : self.at(name) / static_cast<double>(c->second);
    };
    const mrs::MetricsSnapshot snap = metrics.Snapshot();
    double item_ms = 0.0;
    double pool_wait_ms = 0.0;
    for (const auto& h : snap.histograms) {
      const double mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      if (h.name == "batch.item_ms") item_ms = mean;
      if (h.name == "pool.queue_wait_ms") pool_wait_ms = mean;
    }
    const double lookups = static_cast<double>(four.output.cache_hits +
                                               four.output.cache_misses);
    report->Metric("io.parse_ms", per_call("io.parse"), "ms");
    report->Metric("plan.expand_ms", per_call("plan.expand"), "ms");
    report->Metric("cost.cost_all_ms", per_call("cost.cost_all"), "ms");
    report->Metric("core.tree_schedule_ms", per_call("core.tree_schedule"), "ms");
    report->Metric("core.tree_schedule_ms.p140",
                   per_call("core.tree_schedule.p140"), "ms");
    report->Metric("core.list_schedule_ms", per_call("core.list_schedule"), "ms");
    report->Metric("core.list_fallback_ratio", Mean(list_fallbacks), "ratio");
    report->Metric("cost.cache_hit_ratio",
                   lookups > 0 ? four.output.cache_hits / lookups : 0.0,
                   "ratio");
    report->Metric("exec.batch_item_ms", item_ms, "ms");
    report->Metric("common.pool_wait_ms", pool_wait_ms, "ms");
    report->Metric("exec.batch_speedup_4t", reference[0].ms / four.ms, "x");
    report->Metric("trace.overhead_ms",
                   Median(overhead_ms) / static_cast<double>(2 * n),
                   "ms");
    report->Info("batch.tree_plans_per_s.1t", n / (reference[0].ms / 1e3),
                 "1/s", "P=32");
    report->Info("batch.tree_plans_per_s.4t", n / (four.ms / 1e3), "1/s",
                 "P=32");
    return;
  }

  // Set-up: a fresh process parses every plan's text and builds the
  // engine (the benchmark's own generation is excluded).
  const std::string input_path = options.workdir + "/batch_plans.txt";
  {
    std::ofstream out(input_path);
    for (const PlanInput& p : inputs) out << p.text << kPlanSeparator;
  }
  const double setup_s =
      MedianSetupSeconds(options.self_exe, {"setup", "batch", input_path},
                         report);

  // TREE at 4 threads, once per size: the digest must match 1 thread's.
  double four_ms = 0.0;
  for (size_t s = 0; s < std::size(kSites); ++s) {
    const TreeRun run = ScheduleAll(plans, kSites[s], kThreads, nullptr);
    four_ms += run.ms;
    report->Count(n, 0);
    if (CheckItems(run.output, "ScheduleAll at 4 threads", report)) {
      report->Check(Digest(run.output) == Digest(reference[s].output),
                    "ScheduleAll digest differs between 1 and 4 threads");
    }
  }

  // TREE, timed: repeated ScheduleAll passes over both sizes, a fresh
  // engine (cold parallelize cache) per pass, for kTreeShare of the time.
  // One thread: on this benchmark's 4-vCPU shared host the parallelism
  // actually available swings between about 1 and 3 cores from minute to
  // minute (the same 4-thread pass measured 330-500 and 1270-1450
  // plans/s), while one thread's rate holds; the 4-thread rate is
  // reported beside it and exec.batch_speedup_4t traces the scaling.
  std::vector<double> tree_rates;
  const auto tree_start = Clock::now();
  do {
    double pass_ms = 0.0;
    for (size_t s = 0; s < std::size(kSites); ++s) {
      const TreeRun run = ScheduleAll(plans, kSites[s], 1, nullptr);
      pass_ms += run.ms;
      report->Count(n, 0);
      CheckItems(run.output, "ScheduleAll at 1 thread", report);
    }
    tree_rates.push_back(static_cast<double>(n * std::size(kSites)) /
                         (pass_ms / 1e3));
  } while (MsSince(tree_start) < kTreeShare * options.seconds * 1e3);

  // LIST: every plan at both sizes, one at a time, whole passes.
  std::vector<double> list_ms;
  std::vector<std::vector<double>> list_ms_by_size(std::size(kSites));
  std::vector<double> list_over_tree;
  std::vector<double> tree_over_lb;
  double list_total_ms = 0.0;
  const auto list_start = Clock::now();
  bool first_pass = true;
  do {
    for (size_t s = 0; s < std::size(kSites); ++s) {
      for (size_t i = 0; i < n; ++i) {
        const auto start = Clock::now();
        const ListRun run = ListOne(*plans[i], kSites[s], nullptr, -1);
        const double ms = MsSince(start);
        list_ms.push_back(ms);
        list_ms_by_size[s].push_back(ms);
        list_total_ms += ms;
        report->Count(1, 0);
        if (!run.ok) {
          report->CheckFailed("ListSchedule failed");
          continue;
        }
        if (!first_pass) continue;
        const double tree =
            reference[s].output.items[i].schedule.response_time;
        report->Check(run.makespan <= tree * (1 + 1e-12),
                      "LIST makespan above TREE response time");
        report->Check(tree >= bound[s][i] * (1 - 1e-12),
                      "TREE response time below OPTBOUND");
        list_over_tree.push_back(run.makespan / tree);
        tree_over_lb.push_back(tree / bound[s][i]);
      }
    }
    first_pass = false;
  } while (MsSince(list_start) < (1.0 - kTreeShare) * options.seconds * 1e3);

  const Tail tail = TailOf(list_ms);
  std::vector<double> sorted = list_ms;
  std::sort(sorted.begin(), sorted.end());
  const double tree_rate = Median(tree_rates);
  const double list_rate = static_cast<double>(list_ms.size()) /
                           (list_total_ms / 1e3);
  // The median of each size's samples falls inside its middle J class
  // (five classes); pooled over both sizes (ten classes) it falls on a
  // class boundary and flips between classes from seed to seed.
  double p50 = 0.0;
  for (const auto& samples : list_ms_by_size) p50 += Median(samples);
  p50 /= static_cast<double>(std::size(kSites));
  report->Metric("setup_s", setup_s, "s");
  report->Metric("throughput_per_s", tree_rate, "1/s");
  report->Metric("p50_ms", p50, "ms");
  report->Metric("quality_ratio", Geomean(tree_over_lb), "ratio");
  report->Info("batch.tree_plans_per_s", tree_rate, "plans/s",
               "median of " + std::to_string(tree_rates.size()) +
                   " ScheduleAll passes, " + std::to_string(n) +
                   " plans x P=32,140, 1 thread");
  report->Info("batch.tree_plans_per_s.4t",
               static_cast<double>(n * std::size(kSites)) / (four_ms / 1e3),
               "plans/s", "one pass, 4 threads");
  report->Info("batch.list_plans_per_s", list_rate, "plans/s",
               "pipelined LIST, one at a time");
  report->Info("batch.list.p50_ms", p50, "ms",
               "mean of the P=32 and P=140 medians, n=" +
                   std::to_string(sorted.size()));
  report->Info("batch.list.pooled_p50_ms", Median(sorted), "ms");
  report->Info("batch.list.tail_ms", tail.value, "ms", TailNote(tail));
  report->Info("batch.makespan_vs_lb", Geomean(tree_over_lb), "ratio",
               "geomean TREE / OPTBOUND");
  report->Info("batch.list_over_tree", Geomean(list_over_tree), "ratio",
               "geomean LIST / TREE");
}

int SetupMain(int argc, char** argv) {
  if (argc < 4) return 2;
  const std::string kind = argv[2];
  std::ifstream in(argv[3]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string all = buffer.str();
  std::vector<mrs::ParsedPlan> parsed;
  size_t pos = 0;
  while (pos < all.size()) {
    size_t end = all.find(kPlanSeparator, pos);
    if (end == std::string::npos) end = all.size();
    auto p = mrs::ParsePlanText(all.substr(pos, end - pos));
    if (!p.ok()) return 1;
    parsed.push_back(std::move(p).value());
    pos = end + std::string(kPlanSeparator).size();
  }
  if (parsed.empty()) return 1;
  if (kind == "batch") {
    mrs::BatchSchedulerOptions options;
    options.num_threads = kThreads;
    mrs::MetricsRegistry metrics;
    options.metrics = &metrics;
    mrs::BatchScheduler engine(mrs::CostParams{}, Machine(kSites[0]), options);
    std::printf("ready %zu\n", parsed.size());
  } else {
    std::printf("ready %zu\n", parsed.size());
  }
  std::fflush(stdout);
  return 0;
}

double MedianSetupSeconds(const std::string& self_exe,
                          const std::vector<std::string>& args,
                          Report* report) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    Child child;
    std::string line;
    if (!child.Start(self_exe, args) || !child.ReadLine(&line, 60000.0) ||
        line.rfind("ready", 0) != 0) {
      report->CheckFailed("set-up process did not become ready");
      return 0.0;
    }
    samples.push_back(MsSince(start) / 1e3);
    report->Check(child.Finish() == 0, "set-up process failed");
  }
  return Median(samples);
}

}  // namespace perfbench
