// Byte-identity differential for the schedule serializers
// (io/schedule_export.h). The oracle below is the printf-based serializer
// the to_chars writer replaced, kept verbatim: nested StrFormat("%.6f")
// calls and string concatenation. TREE and LIST results of seeded
// GenerateQuery plans at P in {1, 32, 140} and d in {1..4} must serialize
// identically through both, as JSON and as CSV. The allocation
// pin bounds the heap allocations of one TreeScheduleToJson by a small
// constant, independent of the number of sites and clones.

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/operator_schedule.h"
#include "core/tree_schedule.h"
#include "io/schedule_export.h"
#include "json_check.h"
#include "test_util.h"
#include "workload/experiment.h"

namespace mrs {
namespace {

using testing_util::AllocCount;
using testing_util::AllocCountingAvailable;
using testing_util::IsValidJson;
using testing_util::MakeOp;

namespace oracle {

std::string VectorToJson(const WorkVector& w) {
  std::string out = "[";
  for (size_t i = 0; i < w.dim(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%.6f", w[i]);
  }
  out += "]";
  return out;
}

std::string ScheduleToJson(const Schedule& schedule) {
  std::string out = StrFormat(
      "{\"num_sites\":%d,\"dims\":%d,\"makespan\":%.6f,\"sites\":[",
      schedule.num_sites(), schedule.dims(), schedule.Makespan());
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out += ",";
    out += StrFormat("{\"site\":%d,\"time\":%.6f,\"load\":%s,\"clones\":[",
                     j, schedule.SiteTime(j),
                     VectorToJson(schedule.SiteLoad(j)).c_str());
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"op\":%d,\"clone\":%d,\"work\":%s,\"t_seq\":%.6f}", c.op_id,
          c.clone_idx, VectorToJson(c.work).c_str(), c.t_seq);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TreeScheduleToJson(const TreeScheduleResult& result) {
  std::string out = StrFormat("{\"response_time\":%.6f,\"phases\":[",
                              result.response_time);
  for (size_t k = 0; k < result.phases.size(); ++k) {
    if (k > 0) out += ",";
    const PhaseSchedule& phase = result.phases[k];
    out += StrFormat("{\"phase\":%d,\"makespan\":%.6f,\"schedule\":%s}",
                     phase.phase, phase.makespan,
                     oracle::ScheduleToJson(phase.schedule).c_str());
  }
  out += "]}";
  return out;
}

std::string TreeScheduleToCsv(const TreeScheduleResult& result) {
  std::string out = "phase,site,site_time";
  const int dims = result.phases.empty()
                       ? 0
                       : result.phases.front().schedule.dims();
  for (int i = 0; i < dims; ++i) out += StrFormat(",load_%d", i);
  out += ",num_clones\n";
  for (const auto& phase : result.phases) {
    for (int j = 0; j < phase.schedule.num_sites(); ++j) {
      out += StrFormat("%d,%d,%.6f", phase.phase, j,
                       phase.schedule.SiteTime(j));
      const WorkVector& load = phase.schedule.SiteLoad(j);
      for (size_t i = 0; i < load.dim(); ++i) {
        out += StrFormat(",%.6f", load[i]);
      }
      out += StrFormat(",%zu\n", phase.schedule.SitePlacements(j).size());
    }
  }
  return out;
}

std::string ListScheduleToJson(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out = StrFormat(
      "{\"makespan\":%.6f,\"tree_response\":%.6f,\"fallback\":%d,"
      "\"mode\":\"%s\",\"rounds\":%d,\"num_sites\":%d,\"dims\":%d,"
      "\"tasks\":[",
      result.makespan, result.tree_response_time,
      result.used_tree_fallback ? 1 : 0, result.ModeString(), result.rounds,
      schedule.num_sites(), schedule.dims());
  for (size_t i = 0; i < result.tasks.size(); ++i) {
    if (i > 0) out += ",";
    const ListTaskInterval& t = result.tasks[i];
    out += StrFormat("{\"task\":%d,\"start\":%.6f,\"finish\":%.6f}", t.task,
                     t.start, t.finish);
  }
  out += "],\"sites\":[";
  for (int j = 0; j < schedule.num_sites(); ++j) {
    if (j > 0) out += ",";
    out += StrFormat("{\"site\":%d,\"finish\":%.6f,\"load\":%s,\"clones\":[",
                     j, schedule.SiteFinish(j),
                     VectorToJson(schedule.SiteLoad(j)).c_str());
    bool first = true;
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& c =
          schedule.placements()[static_cast<size_t>(p)];
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"op\":%d,\"clone\":%d,\"start\":%.6f,\"finish\":%.6f,"
          "\"work\":%s,\"t_seq\":%.6f}",
          c.op_id, c.clone_idx, c.start,
          result.clone_finish[static_cast<size_t>(p)],
          VectorToJson(c.work).c_str(), c.t_seq);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ListScheduleToCsv(const ListScheduleResult& result) {
  const Schedule& schedule = result.schedule;
  std::string out = "site,finish";
  for (int i = 0; i < schedule.dims(); ++i) out += StrFormat(",load_%d", i);
  out += ",num_clones\n";
  for (int j = 0; j < schedule.num_sites(); ++j) {
    out += StrFormat("%d,%.6f", j, schedule.SiteFinish(j));
    const WorkVector& load = schedule.SiteLoad(j);
    for (size_t i = 0; i < load.dim(); ++i) {
      out += StrFormat(",%.6f", load[i]);
    }
    out += StrFormat(",%zu\n", schedule.SitePlacements(j).size());
  }
  return out;
}

}  // namespace oracle

/// The engine results of one seeded GenerateQuery plan at P sites and d
/// resources per site.
struct Results {
  TreeScheduleResult tree;
  ListScheduleResult list;
};

/// The operators of `ops` with every clone's work folded onto `dims`
/// dimensions (the total work is kept).
std::vector<ParallelizedOp> FoldOps(const std::vector<ParallelizedOp>& ops,
                                    int dims,
                                    const OverlapUsageModel& usage) {
  std::vector<ParallelizedOp> folded;
  for (const ParallelizedOp& op : ops) {
    std::vector<WorkVector> clones;
    for (size_t k = 0; k < op.clones.size(); ++k) {
      WorkVector w(static_cast<size_t>(dims));
      for (size_t i = 0; i < op.clones[k].dim(); ++i) {
        w[std::min(i, static_cast<size_t>(dims - 1))] += op.clones[k][i];
      }
      clones.push_back(w);
    }
    folded.push_back(MakeOp(op.op_id, std::move(clones), usage));
  }
  return folded;
}

/// The cost model and parallelization need d >= 3 (cpu, disk, net). For
/// d < 3 the d = 3 results are rebuilt at d: every phase's (and LIST's)
/// operators are folded onto d dimensions and re-placed by
/// OPERATORSCHEDULE, so each serialized field still comes from the plan.
Results ResultsAt(int joins, int sites, int dims, int index) {
  ExperimentConfig config;
  config.seed = 4242;
  config.workload.num_joins = joins;
  config.machine.num_sites = sites;
  config.machine.dims = std::max(dims, 3);
  config.num_disks = config.machine.dims - 2;
  auto a = PrepareQuery(config, index);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  const OverlapUsageModel usage(config.overlap);
  Results r;
  auto tree = TreeSchedule(a->op_tree, a->task_tree, a->costs, config.cost,
                           config.machine, usage);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  r.tree = std::move(tree).value();
  auto list = ListSchedule(a->op_tree, a->task_tree, a->costs, config.cost,
                           config.machine, usage);
  EXPECT_TRUE(list.ok()) << list.status().ToString();
  r.list = std::move(list).value();
  if (dims == config.machine.dims) return r;

  r.tree.response_time = 0.0;
  for (PhaseSchedule& phase : r.tree.phases) {
    phase.ops = FoldOps(phase.ops, dims, usage);
    auto placed = OperatorSchedule(phase.ops, sites, dims);
    EXPECT_TRUE(placed.ok()) << placed.status().ToString();
    phase.schedule = std::move(placed).value();
    phase.makespan = phase.schedule.Makespan();
    r.tree.response_time += phase.makespan;
  }
  r.list.ops = FoldOps(r.list.ops, dims, usage);
  auto placed = OperatorSchedule(r.list.ops, sites, dims);
  EXPECT_TRUE(placed.ok()) << placed.status().ToString();
  r.list.schedule = std::move(placed).value();
  r.list.clone_finish = r.list.schedule.CloneFinishTimes();
  r.list.makespan = r.list.schedule.Makespan();
  return r;
}

class ScheduleExportDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleExportDifferentialTest, ByteIdenticalToPrintfOracle) {
  const auto [sites, dims] = GetParam();
  for (int joins : {3, 9}) {
    for (int index = 0; index < 2; ++index) {
      SCOPED_TRACE(StrFormat("P=%d d=%d J=%d query=%d", sites, dims, joins,
                             index));
      const Results r = ResultsAt(joins, sites, dims, index);
      const TreeScheduleResult& tree = r.tree;
      ASSERT_FALSE(tree.phases.empty());
      ASSERT_EQ(tree.phases.front().schedule.dims(), dims);
      const std::string tree_json = TreeScheduleToJson(tree);
      EXPECT_EQ(tree_json, oracle::TreeScheduleToJson(tree));
      EXPECT_EQ(TreeScheduleToCsv(tree), oracle::TreeScheduleToCsv(tree));
      EXPECT_TRUE(IsValidJson(tree_json));
      EXPECT_LE(tree_json.size(), TreeScheduleJsonSizeHint(tree));
      for (const PhaseSchedule& phase : tree.phases) {
        EXPECT_EQ(ScheduleToJson(phase.schedule),
                  oracle::ScheduleToJson(phase.schedule));
      }
      std::string appended = "x";
      EXPECT_TRUE(AppendTreeScheduleJson(&appended, tree));
      EXPECT_EQ(appended, "x" + tree_json);

      const ListScheduleResult& list = r.list;
      ASSERT_EQ(list.schedule.dims(), dims);
      const std::string list_json = ListScheduleToJson(list);
      EXPECT_EQ(list_json, oracle::ListScheduleToJson(list));
      EXPECT_EQ(ListScheduleToCsv(list), oracle::ListScheduleToCsv(list));
      EXPECT_TRUE(IsValidJson(list_json));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SitesByDims, ScheduleExportDifferentialTest,
    ::testing::Combine(::testing::Values(1, 32, 140),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return StrFormat("P%d_d%d", std::get<0>(info.param),
                       std::get<1>(info.param));
    });

TEST(ScheduleExportAllocTest, TreeJsonAllocatesAConstantNumberOfTimes) {
  if (!AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting unavailable under sanitizers";
  }
  for (int sites : {32, 140}) {
    const TreeScheduleResult tree = ResultsAt(9, sites, 3, 0).tree;
    int clones = 0;
    for (const PhaseSchedule& phase : tree.phases) {
      clones += phase.schedule.num_placements();
    }
    ASSERT_GT(clones, sites);
    const uint64_t before = AllocCount();
    const std::string json = TreeScheduleToJson(tree);
    const uint64_t used = AllocCount() - before;
    // One reserve for the whole document; the old serializer made several
    // allocations per site and per clone.
    EXPECT_LE(used, 2u) << "P=" << sites << " clones=" << clones
                        << " bytes=" << json.size();
  }
}

}  // namespace
}  // namespace mrs
