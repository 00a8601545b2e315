// Clone-placement scaling bench: the OPERATORSCHEDULE site-selection
// kernel across machine sizes. For each machine size P it synthesizes one
// phase of floating operators (~2P clones, quantized work vectors so load
// ties are frequent) and times the full OperatorSchedule call (the
// tournament-tree placement index) over several trials, reporting the
// minimum (same reasoning as micro_trace_overhead). Half the
// configurations carry a random residual base load, exercising the online
// scheduler's branch. tests/core/placement_index_test.cc pins the
// placements it times against a linear reference scan.
//
// Output: one JSON object per line (scripts/run_benches.sh collects them
// as BENCH_placement.json), e.g.
//   {"bench":"placement_scale","p":1024,"ops":341,"clones":2048,
//    "base_load":false,"us":...,"ns_per_clone":...,"checksum":...}
//
// Usage: micro_placement_scale [trials] [--quick]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/operator_schedule.h"
#include "cost/parallelize.h"
#include "resource/usage_model.h"
#include "resource/work_vector.h"

namespace mrs {
namespace {

constexpr int kDims = 3;

/// One phase worth of floating operators with ~`target_clones` clones.
std::vector<ParallelizedOp> MakePhase(int num_sites, int target_clones,
                                      Rng* rng) {
  const OverlapUsageModel usage(0.5);
  std::vector<ParallelizedOp> ops;
  int clones = 0;
  int id = 0;
  while (clones < target_clones) {
    const int max_degree = std::min(num_sites, 8);
    const int degree =
        1 + static_cast<int>(rng->Index(static_cast<size_t>(max_degree)));
    ParallelizedOp op;
    op.op_id = id++;
    op.degree = degree;
    for (int k = 0; k < degree; ++k) {
      WorkVector w(static_cast<size_t>(kDims));
      for (int r = 0; r < kDims; ++r) {
        // Quantized work: frequent load ties stress the tie-break contract.
        w[static_cast<size_t>(r)] = static_cast<double>(1 + rng->Index(8));
      }
      const double t = usage.SequentialTime(w);
      op.clones.push_back(std::move(w));
      op.t_seq.push_back(t);
      op.t_par = std::max(op.t_par, t);
    }
    clones += degree;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<WorkVector> MakeBase(int num_sites, Rng* rng) {
  std::vector<WorkVector> base;
  for (int s = 0; s < num_sites; ++s) {
    WorkVector w(static_cast<size_t>(kDims));
    for (int r = 0; r < kDims; ++r) {
      w[static_cast<size_t>(r)] = static_cast<double>(rng->Index(6));
    }
    base.push_back(std::move(w));
  }
  return base;
}

int Run(int trials, bool quick) {
  const std::vector<int> machine_sizes =
      quick ? std::vector<int>{64, 1024} : std::vector<int>{64, 256, 1024, 4096};
  for (int p : machine_sizes) {
    for (bool with_base : {false, true}) {
      Rng rng(0x9e3779b9u + static_cast<uint64_t>(p) * 2 +
              (with_base ? 1 : 0));
      const int target_clones = 2 * p;
      const std::vector<ParallelizedOp> ops = MakePhase(p, target_clones, &rng);
      const std::vector<WorkVector> base = MakeBase(p, &rng);
      int clones = 0;
      for (const auto& op : ops) clones += op.degree;

      OperatorScheduleOptions options;
      options.base_load = with_base ? &base : nullptr;
      auto once = OperatorSchedule(ops, p, kDims, options);
      if (!once.ok()) {
        std::fprintf(stderr, "schedule failed: %s\n",
                     once.status().ToString().c_str());
        return 1;
      }

      // Repetitions sized so one trial stays around ten milliseconds.
      const int reps = std::max(1, (quick ? 16384 : 32768) / p);
      double checksum = 0.0;
      auto time_one = [&] {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) {
          auto s = OperatorSchedule(ops, p, kDims, options);
          if (s.ok()) checksum += s->Makespan();
        }
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count() /
               static_cast<double>(reps);
      };
      time_one();  // warmup
      double best_us = time_one();
      for (int t = 1; t < trials; ++t) best_us = std::min(best_us, time_one());
      std::printf(
          "{\"bench\":\"placement_scale\",\"p\":%d,\"ops\":%zu,"
          "\"clones\":%d,\"base_load\":%s,\"us\":%.2f,"
          "\"ns_per_clone\":%.1f,\"checksum\":%.3e}\n",
          p, ops.size(), clones, with_base ? "true" : "false", best_us,
          1000.0 * best_us / clones, checksum);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  int trials = 5;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      trials = std::atoi(argv[i]);
    }
  }
  if (trials < 1) trials = 1;
  return mrs::Run(trials, quick);
}
