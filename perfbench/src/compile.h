// The offline compile path every engine starts from, as sched_cli runs
// it: expand the plan into operator and task trees, then cost every
// operator.
#ifndef PERFBENCH_COMPILE_H_
#define PERFBENCH_COMPILE_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "cost/cost_model.h"
#include "cost/cost_params.h"
#include "plan/operator_tree.h"
#include "plan/plan_tree.h"
#include "plan/task_tree.h"

namespace perfbench {

struct Compiled {
  mrs::OperatorTree op_tree;
  mrs::TaskTree task_tree;
  std::vector<mrs::OperatorCost> costs;
};

/// Expands and costs `plan` for a `dims`-resource machine. With a tracer,
/// records "plan.expand" and "cost.cost_all" spans for `request`.
bool Compile(const mrs::PlanTree& plan, const mrs::CostParams& params,
             int dims, Compiled* out, Tracer* tracer = nullptr,
             int64_t request = -1);

}  // namespace perfbench

#endif  // PERFBENCH_COMPILE_H_
