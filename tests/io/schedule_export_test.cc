#include "io/schedule_export.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "json_check.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::IsValidJson;
using testing_util::MakeUnitOp;
using testing_util::PlanFixture;

TEST(ScheduleExportTest, JsonContainsPlacements) {
  OverlapUsageModel usage(0.5);
  Schedule s(2, 2);
  ASSERT_TRUE(s.Place(MakeUnitOp(7, {3.0, 4.0}, usage), 0, 1).ok());
  const std::string json = ScheduleToJson(s);
  EXPECT_NE(json.find("\"num_sites\":2"), std::string::npos);
  EXPECT_NE(json.find("\"op\":7"), std::string::npos);
  EXPECT_NE(json.find("\"site\":1"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\":"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScheduleExportTest, TreeJsonListsPhases) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 4;
  auto plan = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage);
  ASSERT_TRUE(plan.ok());
  const std::string json = TreeScheduleToJson(*plan);
  EXPECT_NE(json.find("\"response_time\":"), std::string::npos);
  for (size_t k = 0; k < plan->phases.size(); ++k) {
    EXPECT_NE(json.find("\"phase\":" + std::to_string(k)),
              std::string::npos);
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ScheduleExportTest, CsvHasRowPerSitePerPhase) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 5;
  auto plan = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage);
  ASSERT_TRUE(plan.ok());
  const std::string csv = TreeScheduleToCsv(*plan);
  const size_t rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, 1 + plan->phases.size() * 5);  // header + P per phase
  EXPECT_NE(csv.find("phase,site,site_time,load_0,load_1,load_2,num_clones"),
            std::string::npos);
}

TEST(ScheduleExportTest, NonFiniteMakespanIsRefusedNotPrinted) {
  PlanFixture fx = BushyFourWayFixture();
  OverlapUsageModel usage(0.5);
  MachineConfig machine;
  machine.num_sites = 4;
  auto plan = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                           machine, usage);
  ASSERT_TRUE(plan.ok());
  std::string finite;
  EXPECT_TRUE(AppendTreeScheduleJson(&finite, *plan));

  plan->phases.front().makespan = std::nan("");
  std::string out;
  EXPECT_FALSE(AppendTreeScheduleJson(&out, *plan));
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
  EXPECT_NE(out.find("\"makespan\":null"), std::string::npos);
  EXPECT_TRUE(IsValidJson(out)) << out;

  plan->response_time = std::numeric_limits<double>::infinity();
  out.clear();
  EXPECT_FALSE(AppendTreeScheduleJson(&out, *plan));
  EXPECT_EQ(out.find("inf"), std::string::npos) << out;
}

TEST(ScheduleExportTest, EmptyScheduleStillValidJson) {
  Schedule s(1, 1);
  const std::string json = ScheduleToJson(s);
  EXPECT_NE(json.find("\"makespan\":0.000000"), std::string::npos);
}

}  // namespace
}  // namespace mrs
