#include "core/placement_index.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/operator_schedule.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::MakeOp;

TEST(PlacementIndexTest, EmptyIndexHasNoMinSite) {
  PlacementIndex index;
  EXPECT_EQ(index.MinSite(), -1);
  EXPECT_EQ(index.MinSiteExcluding({}), -1);
}

TEST(PlacementIndexTest, SingleSite) {
  PlacementIndex index({3.0});
  EXPECT_EQ(index.MinSite(), 0);
  EXPECT_EQ(index.MinSiteExcluding({0}), -1);
}

TEST(PlacementIndexTest, FindsMinAndTracksUpdates) {
  PlacementIndex index({5.0, 2.0, 7.0, 2.5, 9.0});
  EXPECT_EQ(index.MinSite(), 1);
  index.Update(1, 8.0);
  EXPECT_EQ(index.MinSite(), 3);
  index.Update(4, 0.5);
  EXPECT_EQ(index.MinSite(), 4);
  EXPECT_DOUBLE_EQ(index.LoadOf(4), 0.5);
}

TEST(PlacementIndexTest, TiesBreakToLowestIndex) {
  PlacementIndex index({4.0, 4.0, 4.0, 4.0, 4.0});
  EXPECT_EQ(index.MinSite(), 0);
  EXPECT_EQ(index.MinSiteExcluding({0}), 1);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2}), 3);
  // A later site dropping *to* the tie value must not displace an earlier
  // one.
  index.Update(3, 4.0);
  EXPECT_EQ(index.MinSite(), 0);
}

TEST(PlacementIndexTest, ExclusionDescentSkipsUsedSites) {
  PlacementIndex index({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  EXPECT_EQ(index.MinSiteExcluding({0}), 1);
  EXPECT_EQ(index.MinSiteExcluding({0, 1}), 2);
  EXPECT_EQ(index.MinSiteExcluding({1, 3}), 0);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2, 3, 4, 5}), 6);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2, 3, 4, 5, 6}), -1);
}

TEST(PlacementIndexTest, NonPowerOfTwoSiteCountsPadCleanly) {
  for (int p : {1, 2, 3, 5, 6, 7, 9, 13, 100}) {
    std::vector<double> loads;
    Rng rng(static_cast<uint64_t>(p));
    for (int s = 0; s < p; ++s) loads.push_back(rng.UniformDouble(0, 10));
    PlacementIndex index(loads);
    const int expect = static_cast<int>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    EXPECT_EQ(index.MinSite(), expect) << "P=" << p;
  }
}

TEST(PlacementIndexTest, RandomizedAgainstLinearScan) {
  Rng rng(testing_util::FuzzSeed(20260806));
  for (int trial = 0; trial < 200; ++trial) {
    const int p = 1 + static_cast<int>(rng.Index(50));
    std::vector<double> loads;
    for (int s = 0; s < p; ++s) {
      // Coarse values force frequent ties.
      loads.push_back(static_cast<double>(rng.Index(6)));
    }
    PlacementIndex index(loads);
    std::vector<int> excluded;
    for (int s = 0; s < p; ++s) {
      if (rng.Index(3) == 0) excluded.push_back(s);
    }
    int expect = -1;
    double best = 0.0;
    for (int s = 0; s < p; ++s) {
      if (std::binary_search(excluded.begin(), excluded.end(), s)) continue;
      if (expect < 0 || loads[static_cast<size_t>(s)] < best) {
        expect = s;
        best = loads[static_cast<size_t>(s)];
      }
    }
    EXPECT_EQ(index.MinSiteExcluding(excluded), expect)
        << "trial " << trial << " P=" << p;
  }
}

TEST(PlacementIndexTest, ThresholdStraddlingSizesAgree) {
  // Exercise both storage modes (leaf scan at P <= kLinearScanMaxSites,
  // tournament tree above) on either side of the cutover, against the
  // reference scan.
  Rng rng(testing_util::FuzzSeed(20260807));
  for (int p : {PlacementIndex::kLinearScanMaxSites - 1,
                PlacementIndex::kLinearScanMaxSites,
                PlacementIndex::kLinearScanMaxSites + 1,
                2 * PlacementIndex::kLinearScanMaxSites}) {
    std::vector<double> loads;
    for (int s = 0; s < p; ++s) {
      loads.push_back(static_cast<double>(rng.Index(7)));
    }
    PlacementIndex index(loads);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<int> excluded;
      for (int s = 0; s < p; ++s) {
        if (rng.Index(4) == 0) excluded.push_back(s);
      }
      int expect = -1;
      double best = 0.0;
      for (int s = 0; s < p; ++s) {
        if (std::binary_search(excluded.begin(), excluded.end(), s)) continue;
        if (expect < 0 || loads[static_cast<size_t>(s)] < best) {
          expect = s;
          best = loads[static_cast<size_t>(s)];
        }
      }
      EXPECT_EQ(index.MinSiteExcluding(excluded), expect)
          << "P=" << p << " trial " << trial;
      const int site = static_cast<int>(rng.Index(static_cast<size_t>(p)));
      loads[static_cast<size_t>(site)] = static_cast<double>(rng.Index(7));
      index.Update(site, loads[static_cast<size_t>(site)]);
    }
  }
}

/// Reference OPERATORSCHEDULE (Figure 3) for the differential test below:
/// rooted ops at their homes, the floating clones in stable non-increasing
/// l(w) order (or input order), each placed on the allowable site of least
/// l(base[s] + work(s)) by a strict-< scan over all P sites, so ties go to
/// the lowest index. O(clones * P) per call.
Schedule LinearOperatorSchedule(const std::vector<ParallelizedOp>& ops,
                                int num_sites, int dims, ListOrder order,
                                const std::vector<WorkVector>* base_load) {
  Schedule schedule(num_sites, dims);
  schedule.ReserveFor(ops);
  for (const ParallelizedOp& op : ops) {
    if (op.rooted) {
      EXPECT_TRUE(schedule.PlaceRooted(op).ok());
    }
  }
  struct CloneRef {
    size_t op_index;
    int clone_idx;
    double length;
  };
  std::vector<CloneRef> list;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].rooted) continue;
    for (int k = 0; k < ops[i].degree; ++k) {
      list.push_back({i, k, ops[i].clones[static_cast<size_t>(k)].Length()});
    }
  }
  if (order == ListOrder::kDecreasingLength) {
    std::stable_sort(list.begin(), list.end(),
                     [](const CloneRef& a, const CloneRef& b) {
                       return a.length > b.length;
                     });
  }
  // l(base[s] + work(s)) per site; without a base, l(work(s)).
  std::vector<WorkVector> combined;
  std::vector<double> load(static_cast<size_t>(num_sites));
  if (base_load != nullptr) combined = *base_load;
  for (int j = 0; j < num_sites; ++j) {
    const size_t sj = static_cast<size_t>(j);
    if (base_load != nullptr) {
      combined[sj] += schedule.SiteLoad(j);
      load[sj] = combined[sj].Length();
    } else {
      load[sj] = schedule.SiteLoadLength(j);
    }
  }
  for (const CloneRef& clone : list) {
    const ParallelizedOp& op = ops[clone.op_index];
    int chosen = -1;
    double chosen_load = std::numeric_limits<double>::infinity();
    for (int j = 0; j < num_sites; ++j) {
      if (schedule.HasOpAtSite(op.op_id, j)) continue;  // constraint A
      if (load[static_cast<size_t>(j)] < chosen_load) {
        chosen = j;
        chosen_load = load[static_cast<size_t>(j)];
      }
    }
    EXPECT_GE(chosen, 0) << "no allowable site for op" << op.op_id;
    EXPECT_TRUE(schedule.Place(op, clone.clone_idx, chosen).ok());
    const size_t sc = static_cast<size_t>(chosen);
    if (base_load != nullptr) {
      combined[sc] += op.clones[static_cast<size_t>(clone.clone_idx)];
      load[sc] = combined[sc].Length();
    } else {
      load[sc] = schedule.SiteLoadLength(chosen);
    }
  }
  return schedule;
}

/// Differential property: OPERATORSCHEDULE (the indexed engine) produces
/// byte-identical schedules to the linear reference above — same
/// clone-to-site mapping in the same placement order, bit-equal makespan —
/// on random instances at machine sizes up to P=4096, with and without
/// rooted operators and a residual base load (the online scheduler's
/// branch).
class DifferentialPlacementTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DifferentialPlacementTest, IndexedMatchesLinearOracle) {
  const auto [p, seed] = GetParam();
  OverlapUsageModel usage(0.5);
  Rng rng(testing_util::FuzzSeed(seed) + static_cast<uint64_t>(p));
  const int dims = 2 + static_cast<int>(rng.Index(2));
  const int num_ops = 12 + static_cast<int>(rng.Index(20));
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < num_ops; ++i) {
    const int max_degree = std::min(p, 8);
    const int degree =
        1 + static_cast<int>(rng.Index(static_cast<size_t>(max_degree)));
    std::vector<WorkVector> clones;
    for (int k = 0; k < degree; ++k) {
      WorkVector w(static_cast<size_t>(dims));
      for (int r = 0; r < dims; ++r) {
        // Quantized work forces load ties, the tie-break stress case.
        w[static_cast<size_t>(r)] = static_cast<double>(rng.Index(5));
      }
      clones.push_back(std::move(w));
    }
    std::vector<int> home;
    if (rng.Index(4) == 0) {
      // Rooted: home at `degree` distinct random sites.
      while (static_cast<int>(home.size()) < degree) {
        const int s = static_cast<int>(rng.Index(static_cast<size_t>(p)));
        if (std::find(home.begin(), home.end(), s) == home.end()) {
          home.push_back(s);
        }
      }
    }
    ops.push_back(MakeOp(i, std::move(clones), usage, std::move(home)));
  }

  std::vector<WorkVector> base;
  for (int s = 0; s < p; ++s) {
    WorkVector w(static_cast<size_t>(dims));
    for (int r = 0; r < dims; ++r) {
      w[static_cast<size_t>(r)] = static_cast<double>(rng.Index(4));
    }
    base.push_back(std::move(w));
  }

  for (bool with_base : {false, true}) {
    for (ListOrder order :
         {ListOrder::kDecreasingLength, ListOrder::kInputOrder}) {
      OperatorScheduleOptions options;
      options.order = order;
      options.base_load = with_base ? &base : nullptr;

      const Schedule a = LinearOperatorSchedule(ops, p, dims, order,
                                                options.base_load);
      auto b = OperatorSchedule(ops, p, dims, options);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_TRUE(a.Validate(ops).ok());
      ASSERT_TRUE(b->Validate(ops).ok());
      ASSERT_EQ(a.num_placements(), b->num_placements());
      for (int i = 0; i < a.num_placements(); ++i) {
        const ClonePlacement& pa = a.placements()[static_cast<size_t>(i)];
        const ClonePlacement& pb = b->placements()[static_cast<size_t>(i)];
        ASSERT_EQ(pa.op_id, pb.op_id) << "P=" << p << " placement " << i;
        ASSERT_EQ(pa.clone_idx, pb.clone_idx)
            << "P=" << p << " placement " << i;
        ASSERT_EQ(pa.site, pb.site)
            << "P=" << p << " op" << pa.op_id << " clone " << pa.clone_idx
            << " base=" << with_base;
      }
      // Identical placements make every derived quantity bit-equal.
      ASSERT_EQ(a.Makespan(), b->Makespan());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialPlacementTest,
    ::testing::Combine(::testing::Values(4, 64, 1024, 4096),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace mrs
