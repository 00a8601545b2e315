// mrsbench: the repository benchmark's harness. perfbench/run.py builds it
// and runs
//
//   mrsbench run --workload serve|batch|optimize --seed N --seconds S
//                --trace 0|1 [--workdir DIR]
//
// which prints one line per measured metric and, last, one JSON object:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// that BENCHMARK.json names. The other subcommands are the helper
// processes it spawns (server, setup) and the harness self-test.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric of BENCHMARK.json with its unit. A traced run
/// reports all of them; a layer the workload's path never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"server.handle_ms", "ms"},
    {"server.handle_x4_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.frame_ms", "ms"},
    {"server.rest_ms", "ms"},
    {"io.parse_ms", "ms"},
    {"io.serialize_ms", "ms"},
    {"io.response_kb", "KB"},
    {"online.place_ms", "ms"},
    {"online.reject_ratio", "ratio"},
    {"online.queued_ratio", "ratio"},
    {"plan.expand_ms", "ms"},
    {"cost.cost_all_ms", "ms"},
    {"cost.cache_hit_ratio", "ratio"},
    {"core.tree_schedule_ms", "ms"},
    {"core.tree_schedule_ms.p140", "ms"},
    {"core.list_schedule_ms", "ms"},
    {"core.list_fallback_ratio", "ratio"},
    {"exec.batch_item_ms", "ms"},
    {"common.pool_wait_ms", "ms"},
    {"exec.batch_speedup_4t", "x"},
    {"optimizer.optimize_ms_1t", "ms"},
    {"optimizer.speedup_4t", "x"},
    {"optimizer.plans_scheduled", "count"},
    {"optimizer.prune_ratio", "ratio"},
    {"optimizer.ms_per_scheduled_plan", "ms"},
    {"trace.overhead_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: mrsbench run --workload serve|batch|optimize --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n"
               "       mrsbench selftest\n");
  return 2;
}

int RunMain(int argc, char** argv) {
  RunOptions options;
  options.self_exe = SelfExe();
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0 || options.self_exe.empty()) return Usage();
  Report report;
  if (workload == "serve") {
    RunServe(options, &report);
  } else if (workload == "batch") {
    RunBatch(options, &report);
  } else if (workload == "optimize") {
    RunOptimize(options, &report);
  } else {
    return Usage();
  }
  if (options.trace) {
    std::string absent;
    for (const LayerMetric& m : kPerLayer) {
      if (!report.HasMetric(m.name)) {
        report.Metric(m.name, 0.0, m.unit);
        absent += std::string(" ") + m.name;
      }
    }
    if (!absent.empty()) {
      report.Note("not on this workload's path (reported as 0):" + absent);
    }
  }
  report.Info("error_rate",
              report.attempted() > 0
                  ? static_cast<double>(report.failed()) / report.attempted()
                  : 0.0,
              "ratio",
              std::to_string(report.failed()) + " failed of " +
                  std::to_string(report.attempted()));
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::Usage();
  const std::string command = argv[1];
  if (command == "run") return perfbench::RunMain(argc, argv);
  if (command == "server") return perfbench::ServerMain(argc, argv);
  if (command == "setup") return perfbench::SetupMain(argc, argv);
  if (command == "selftest") return perfbench::SelfTestMain();
  return perfbench::Usage();
}
