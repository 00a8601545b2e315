#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "workload/experiment.h"

namespace mrs {
namespace {

/// Golden regression values: average response times (ms) for fixed
/// (workload, machine, scheduler) configurations under the default master
/// seed. Every quantity in this library is deterministic model time, so
/// these must reproduce bit-stably on any host. If an *intentional*
/// algorithm or cost-model change moves them, regenerate the constants
/// and record the change in EXPERIMENTS.md — this suite exists to make
/// silent behavior drift impossible.
struct GoldenCase {
  int joins;
  int sites;
  double granularity;
  double overlap;
  SchedulerKind kind;
  double expected_ms;
};

// Prints the fields, not the struct's bytes (whose padding is
// uninitialized), so test listings match across builds.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << SchedulerKindToString(c.kind) << " J=" << c.joins
      << " P=" << c.sites << " f=" << c.granularity
      << " eps=" << c.overlap;
}

constexpr double kRelTol = 1e-9;

class GoldenRegressionTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRegressionTest, AverageResponseIsStable) {
  const GoldenCase& c = GetParam();
  ExperimentConfig config;
  config.queries_per_point = 3;
  config.workload.num_joins = c.joins;
  config.machine.num_sites = c.sites;
  config.granularity = c.granularity;
  config.overlap = c.overlap;
  auto stat = MeasureAverageResponse(c.kind, config);
  ASSERT_TRUE(stat.ok());
  EXPECT_NEAR(stat->mean(), c.expected_ms, c.expected_ms * kRelTol)
      << SchedulerKindToString(c.kind) << " J=" << c.joins
      << " P=" << c.sites;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenRegressionTest,
    ::testing::Values(
        GoldenCase{10, 16, 0.7, 0.5, SchedulerKind::kTreeSchedule,
                   34808.743695},
        GoldenCase{10, 16, 0.7, 0.5, SchedulerKind::kTreeScheduleMalleable,
                   40798.833926},
        GoldenCase{10, 16, 0.7, 0.5, SchedulerKind::kSynchronous,
                   77462.455200},
        GoldenCase{10, 16, 0.7, 0.5, SchedulerKind::kHongPairing,
                   40438.267355},
        GoldenCase{10, 16, 0.7, 0.5, SchedulerKind::kOptBound,
                   34287.491667},
        GoldenCase{25, 40, 0.5, 0.3, SchedulerKind::kTreeSchedule,
                   25005.403236},
        GoldenCase{25, 40, 0.5, 0.3, SchedulerKind::kSynchronous,
                   46989.334853},
        GoldenCase{40, 80, 0.7, 0.5, SchedulerKind::kTreeSchedule,
                   27410.695769},
        GoldenCase{40, 80, 0.7, 0.5, SchedulerKind::kOptBound,
                   25443.631667}),
    // Named from the fields, e.g. TreeSchedule_J10_P16 (the default name
    // prints the struct's bytes, padding included, and differs by build).
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      const GoldenCase& c = info.param;
      const char* kind = "";
      switch (c.kind) {
        case SchedulerKind::kTreeSchedule:
          kind = "TreeSchedule";
          break;
        case SchedulerKind::kTreeScheduleMalleable:
          kind = "TreeScheduleMalleable";
          break;
        case SchedulerKind::kSynchronous:
          kind = "Synchronous";
          break;
        case SchedulerKind::kHongPairing:
          kind = "HongPairing";
          break;
        case SchedulerKind::kOptBound:
          kind = "OptBound";
          break;
      }
      return std::string(kind) + "_J" + std::to_string(c.joins) + "_P" +
             std::to_string(c.sites);
    });

}  // namespace
}  // namespace mrs
