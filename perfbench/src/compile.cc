#include "compile.h"

#include <utility>

namespace perfbench {

bool Compile(const mrs::PlanTree& plan, const mrs::CostParams& params,
             int dims, Compiled* out, Tracer* tracer, int64_t request) {
  {
    ScopedSpan span(tracer, "plan.expand", request);
    auto op_tree = mrs::OperatorTree::FromPlan(plan);
    if (!op_tree.ok()) return false;
    out->op_tree = std::move(op_tree).value();
    auto task_tree = mrs::TaskTree::FromOperatorTree(&out->op_tree);
    if (!task_tree.ok()) return false;
    out->task_tree = std::move(task_tree).value();
  }
  ScopedSpan span(tracer, "cost.cost_all", request);
  const mrs::CostModel model(params, dims);
  auto costs = model.CostAll(out->op_tree);
  if (!costs.ok()) return false;
  out->costs = std::move(costs).value();
  return true;
}

}  // namespace perfbench
