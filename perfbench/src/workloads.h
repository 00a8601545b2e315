// Entry points of the benchmark's workloads and helper processes.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for input files and span dumps.
  std::string workdir = ".";
  /// This executable, re-spawned for servers and set-up probes.
  std::string self_exe;
};

/// Latency limit on a served request's p99 for serve's max_rps search.
inline constexpr double kLatencyLimitMs = 50.0;

/// Set-up time is the median of this many fresh-process set-ups.
inline constexpr int kSetupRepeats = 15;

void RunServe(const RunOptions& options, Report* report);
void RunBatch(const RunOptions& options, Report* report);
void RunOptimize(const RunOptions& options, Report* report);

/// `mrsbench server`: a SchedServer process with sched_server's defaults.
int ServerMain(int argc, char** argv);
/// `mrsbench setup <batch|optimize> FILE`: parses the inputs in FILE
/// (batch also builds its 4-thread engine), prints "ready" and exits: one
/// set-up sample.
int SetupMain(int argc, char** argv);
/// `mrsbench selftest`: checks the harness against a fake service.
int SelfTestMain();

/// Spawns `self_exe args` and times it until its first stdout line is
/// "ready"; the median over kSetupRepeats spawns, in seconds.
double MedianSetupSeconds(const std::string& self_exe,
                          const std::vector<std::string>& args,
                          Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
