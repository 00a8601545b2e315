// Tests for SiteTimeline, the one implementation of eq. (2) over staggered
// arrivals: hand-computed waves (mid-wave arrival, idle gap, equal starts,
// the binding term flipping between T_seq and congestion) and a seeded
// differential against FluidSimulator::SimulateTimed, the independent
// oracle, under both call patterns the engines use (rebasing only at
// arrivals, as Schedule does, and rebasing at extra instants, as
// LISTSCHEDULE's per-round loop does).

#include "core/site_timeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/schedule.h"
#include "exec/fluid_simulator.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::MakeUnitOp;

TEST(SiteTimelineTest, EmptySiteProjectsItsClock) {
  SiteTimeline timeline(2);
  EXPECT_TRUE(timeline.empty());
  EXPECT_EQ(timeline.projection().resource, -1);
  timeline.AdvanceTo(3.0);
  EXPECT_DOUBLE_EQ(timeline.Project().finish, 3.0);
}

TEST(SiteTimelineTest, MidWaveArrivalRebasesResidents) {
  // A = (4, 2), T_seq 5 alone: F = max(5, 4) = 5, bound by T_seq.
  SiteTimeline timeline(2);
  timeline.Admit(0, WorkVector({4.0, 2.0}), 5.0);
  const SiteTimeline::Projection& alone = timeline.Project();
  EXPECT_DOUBLE_EQ(alone.finish, 5.0);
  EXPECT_FALSE(alone.congestion);
  EXPECT_EQ(alone.resource, 0);

  // B = (3, 3), T_seq 4 arrives at t=2: A keeps (5-2)/(5-0) = 0.6 of its
  // remainder, (2.4, 1.2) and 3 ms; F = 2 + max(4, l(5.4, 4.2)) = 7.4.
  timeline.AdvanceTo(2.0);
  ASSERT_EQ(timeline.residents().size(), 1u);
  EXPECT_DOUBLE_EQ(timeline.residents()[0].remaining[0], 2.4);
  EXPECT_DOUBLE_EQ(timeline.residents()[0].remaining[1], 1.2);
  EXPECT_DOUBLE_EQ(timeline.residents()[0].own, 3.0);
  timeline.Admit(1, WorkVector({3.0, 3.0}), 4.0);
  const SiteTimeline::Projection& shared = timeline.Project();
  EXPECT_DOUBLE_EQ(shared.finish, 7.4);
  EXPECT_TRUE(shared.congestion);
  EXPECT_EQ(shared.resource, 0);

  timeline.CompleteWave();
  EXPECT_TRUE(timeline.empty());
  EXPECT_DOUBLE_EQ(timeline.now(), 7.4);
  EXPECT_DOUBLE_EQ(timeline.projection().finish, 7.4);  // kept for eq. (3)
}

TEST(SiteTimelineTest, IdleGapStartsTheNextWaveAtItsArrival) {
  SiteTimeline timeline(2);
  timeline.Admit(0, WorkVector({2.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(timeline.Project().finish, 2.0);
  timeline.CompleteWave();
  // Idle from 2 to 5: an empty site only moves its clock.
  timeline.AdvanceTo(5.0);
  EXPECT_DOUBLE_EQ(timeline.now(), 5.0);
  timeline.AdvanceTo(4.0);  // never backwards
  EXPECT_DOUBLE_EQ(timeline.now(), 5.0);
  timeline.Admit(1, WorkVector({1.0, 3.0}), 3.0);
  const SiteTimeline::Projection& next = timeline.Project();
  EXPECT_DOUBLE_EQ(next.finish, 8.0);  // 5 + max(3, 3)
  EXPECT_TRUE(next.congestion);        // a tie counts as congestion
  EXPECT_EQ(next.resource, 1);
}

TEST(SiteTimelineTest, EqualStartsKeepPlacementOrder) {
  // Schedule's sweep admits clones with equal starts in placement order,
  // so they share one wave whatever their ids.
  const OverlapUsageModel usage(1.0);
  Schedule s(1, 2);
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(7, {3.0, 1.0}, usage), 0, 0, 1.0).ok());
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(3, {1.0, 2.0}, usage), 0, 0, 1.0).ok());
  ASSERT_TRUE(s.PlaceAt(MakeUnitOp(5, {2.0, 2.0}, usage), 0, 0, 1.0).ok());
  const std::vector<double> finish = s.CloneFinishTimes();
  ASSERT_EQ(finish.size(), 3u);
  for (double f : finish) EXPECT_DOUBLE_EQ(f, 7.0);  // 1 + l(6, 5)
  EXPECT_DOUBLE_EQ(s.SiteFinish(0), 7.0);

  SiteTimeline timeline(2);
  timeline.AdvanceTo(1.0);
  for (int p : s.SitePlacements(0)) {
    const ClonePlacement& c = s.placements()[static_cast<size_t>(p)];
    timeline.Admit(c.op_id, c.work, c.t_seq);
  }
  std::vector<int> ids;
  for (const SiteTimeline::Resident& r : timeline.residents()) {
    ids.push_back(r.id);
  }
  EXPECT_EQ(ids, (std::vector<int>{7, 3, 5}));
  EXPECT_DOUBLE_EQ(timeline.Project().finish, 7.0);
}

TEST(SiteTimelineTest, BindingTermFlipsFromSequentialToCongestion) {
  // Alone, A = (2, 1) with T_seq 6 is bound by its own time.
  SiteTimeline timeline(2);
  timeline.Admit(0, WorkVector({2.0, 1.0}), 6.0);
  EXPECT_DOUBLE_EQ(timeline.Project().finish, 6.0);
  EXPECT_FALSE(timeline.projection().congestion);
  // At t=3 A has (1, 0.5) and 3 ms left; B = (6, 1), T_seq 6 joins:
  // F = 3 + max(6, l(7, 1.5)) = 10, bound by resource 0.
  timeline.AdvanceTo(3.0);
  timeline.Admit(1, WorkVector({6.0, 1.0}), 6.0);
  const SiteTimeline::Projection& shared = timeline.Project();
  EXPECT_DOUBLE_EQ(shared.finish, 10.0);
  EXPECT_TRUE(shared.congestion);
  EXPECT_EQ(shared.resource, 0);
  // At t=8 the residents keep (10-8)/(10-3) = 2/7 of their remainders;
  // re-projecting the rebased set lands on the same instant.
  timeline.AdvanceTo(8.0);
  EXPECT_NEAR(timeline.Project().finish, 10.0, 1e-12);
}

/// Arrival order of one site: start time, placement order within ties.
std::vector<int> ArrivalOrder(const Schedule& s, int site) {
  std::vector<int> order;
  for (int p : s.SitePlacements(site)) order.push_back(p);
  std::stable_sort(order.begin(), order.end(), [&s](int a, int b) {
    return s.placements()[static_cast<size_t>(a)].start <
           s.placements()[static_cast<size_t>(b)].start;
  });
  return order;
}

/// LISTSCHEDULE's call pattern: besides every arrival, the site is
/// rebased at extra instants inside a wave (other sites' events), with or
/// without a re-projection. Returns the site's last completion; writes
/// per-placement finishes into `finish`.
double DriveWithExtraRebases(const Schedule& s, int site, Rng* rng,
                             std::vector<double>* finish) {
  const std::vector<int> order = ArrivalOrder(s, site);
  const auto start_of = [&s](int p) {
    return s.placements()[static_cast<size_t>(p)].start;
  };
  SiteTimeline timeline(s.dims());
  size_t i = 0;
  const auto admit_through = [&](double t) {
    for (; i < order.size() && start_of(order[i]) <= t; ++i) {
      const ClonePlacement& c = s.placements()[static_cast<size_t>(order[i])];
      timeline.Admit(order[i], c.work, c.t_seq);
    }
    timeline.Project();
  };
  const auto maybe_rebase_before = [&](double t) {
    if (!rng->Bernoulli(0.6)) return;
    timeline.AdvanceTo(timeline.now() +
                       (t - timeline.now()) * rng->UniformDouble(0.1, 0.9));
    if (rng->Bernoulli(0.5)) timeline.Project();
  };
  double site_finish = 0.0;
  while (i < order.size() || !timeline.empty()) {
    if (timeline.empty()) {
      timeline.AdvanceTo(start_of(order[i]));
      admit_through(timeline.now());
      continue;
    }
    const double next = i < order.size()
                            ? start_of(order[i])
                            : std::numeric_limits<double>::infinity();
    maybe_rebase_before(std::min(next, timeline.projection().finish));
    if (next < timeline.projection().finish) {
      timeline.AdvanceTo(next);
      admit_through(next);
    } else {
      const double f = timeline.projection().finish;
      for (const SiteTimeline::Resident& r : timeline.residents()) {
        (*finish)[static_cast<size_t>(r.id)] = f;
      }
      timeline.CompleteWave();
      site_finish = f;
    }
  }
  return site_finish;
}

void ExpectRelNear(double actual, double oracle, const char* what) {
  EXPECT_NEAR(actual, oracle, 1e-9 * std::max(1.0, std::fabs(oracle)))
      << what;
}

TEST(SiteTimelineTest, SeededDifferentialAgainstFluidSimulator) {
  Rng rng(0x5173717e11e5ULL);
  int staggered_sites = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const int dims = 1 + trial % 4;
    const int num_sites = 1 + static_cast<int>(rng.Index(3));
    const OverlapUsageModel usage(rng.UniformDouble(0.0, 1.0));
    Schedule s(num_sites, dims);
    const int clones = 1 + static_cast<int>(rng.Index(12 * num_sites));
    for (int id = 0; id < clones; ++id) {
      WorkVector w(static_cast<size_t>(dims));
      for (int r = 0; r < dims; ++r) {
        w[static_cast<size_t>(r)] =
            rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble(0.5, 20.0);
      }
      // Half the starts on a coarse grid, so equal starts and waves that
      // end exactly at an arrival both occur.
      const double start = rng.Bernoulli(0.5)
                               ? 4.0 * static_cast<double>(rng.Index(8))
                               : rng.UniformDouble(0.0, 40.0);
      const int site = static_cast<int>(rng.Index(num_sites));
      ASSERT_TRUE(s.PlaceAt(MakeUnitOp(id, w, usage), 0, site, start).ok());
    }
    staggered_sites += num_sites;

    const FluidSimulator oracle(usage, SharingPolicy::kOptimalStretch);
    auto sim = oracle.SimulateTimed(s);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();

    // Schedule's sweep: rebasing at arrival instants only.
    const std::vector<double> swept = s.CloneFinishTimes();
    ASSERT_EQ(swept.size(), sim->clone_finish.size());
    for (size_t p = 0; p < swept.size(); ++p) {
      ExpectRelNear(swept[p], sim->clone_finish[p], "swept clone finish");
    }
    ExpectRelNear(s.Makespan(), sim->makespan, "makespan");

    // Per-round call pattern with extra rebases.
    std::vector<double> driven(swept.size(), 0.0);
    for (int j = 0; j < num_sites; ++j) {
      const double site_finish = DriveWithExtraRebases(s, j, &rng, &driven);
      ExpectRelNear(site_finish, sim->sites[static_cast<size_t>(j)].finish,
                    "driven site finish");
      ExpectRelNear(s.SiteFinish(j), sim->sites[static_cast<size_t>(j)].finish,
                    "SiteFinish");
    }
    for (size_t p = 0; p < driven.size(); ++p) {
      ExpectRelNear(driven[p], sim->clone_finish[p], "driven clone finish");
    }
  }
  EXPECT_GE(staggered_sites, 200);
}

}  // namespace
}  // namespace mrs
