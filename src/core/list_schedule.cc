#include "core/list_schedule.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/site_timeline.h"
#include "exec/explain.h"

namespace mrs {

namespace {

/// Replays a TREESCHEDULE result on the shared timeline: phase k's clones
/// all start at the sum of the earlier phase makespans. Every site's last
/// wave then completes by the next barrier, so the evaluated makespan
/// equals the tree's response time — the guard's worst case is exactly
/// TREESCHEDULE.
ListScheduleResult AlignedFallback(const TreeScheduleResult& tree,
                                   const TaskTree& task_tree, int num_sites,
                                   int dims) {
  ListScheduleResult r;
  r.schedule = Schedule(num_sites, dims);
  r.used_tree_fallback = true;
  r.rounds = static_cast<int>(tree.phases.size());
  r.tasks.resize(static_cast<size_t>(task_tree.num_tasks()));
  for (int tid = 0; tid < task_tree.num_tasks(); ++tid) {
    r.tasks[static_cast<size_t>(tid)].task = tid;
  }
  std::unordered_map<int, int> op_task;
  for (const QueryTask& task : task_tree.tasks()) {
    for (int oid : task.ops) op_task[oid] = task.id;
  }

  double t = 0.0;
  for (const PhaseSchedule& phase : tree.phases) {
    std::unordered_map<int, const ParallelizedOp*> by_id;
    for (const ParallelizedOp& op : phase.ops) by_id[op.op_id] = &op;
    r.schedule.ReserveFor(phase.ops);
    for (const ClonePlacement& c : phase.schedule.placements()) {
      const Status placed =
          r.schedule.PlaceAt(*by_id.at(c.op_id), c.clone_idx, c.site, t);
      MRS_CHECK(placed.ok()) << placed.ToString();
    }
    for (int tid : task_tree.phase(phase.phase)) {
      r.tasks[static_cast<size_t>(tid)].start = t;
    }
    r.ops.insert(r.ops.end(), phase.ops.begin(), phase.ops.end());
    t += phase.makespan;
  }
  r.clone_finish = r.schedule.CloneFinishTimes();
  r.makespan = r.schedule.Makespan();
  for (size_t p = 0; p < r.clone_finish.size(); ++p) {
    ListTaskInterval& interval = r.tasks[static_cast<size_t>(
        op_task.at(r.schedule.placements()[p].op_id))];
    interval.finish = std::max(interval.finish, r.clone_finish[p]);
  }
  // eq. (3) diagnosis: the overall critical site is the last phase's
  // critical site (earlier phases complete by their barrier).
  if (!tree.phases.empty()) {
    const PhaseExplanation exp = ExplainPhase(tree.phases.back());
    r.critical_site = exp.critical_site;
    r.load_bound = exp.load_bound;
    r.critical_resource = exp.critical_resource;
  }
  return r;
}

/// The greedy virtual-time event loop (steps 1-4 of the header comment),
/// without either guard. `planner` parallelizes every readiness wave and
/// carries the options: its `list_options` drive each round's
/// OPERATORSCHEDULE pass, and its trace receives the round spans (null for
/// the shadow baseline runs the guards make). `pipeline` enables the
/// rate-matched, stage-ordered round described at
/// ListScheduleOptions::pipeline.
Result<ListScheduleResult> GreedyListSchedule(
    PhasePlanner& planner, const OperatorTree& op_tree,
    const TaskTree& task_tree, const std::vector<OperatorCost>& costs,
    const CostParams& params, const OverlapUsageModel& usage, bool pipeline) {
  const MachineConfig& config = planner.machine();
  const OperatorScheduleOptions& list_options = planner.options().list_options;
  TraceSink* const trace = planner.options().trace;
  std::unordered_map<int, int> op_task;
  for (const QueryTask& task : task_tree.tasks()) {
    for (int oid : task.ops) op_task[oid] = task.id;
  }

  const int num_tasks = task_tree.num_tasks();
  ListScheduleResult result;
  result.schedule = Schedule(config.num_sites, config.dims);
  result.tasks.resize(static_cast<size_t>(num_tasks));
  std::vector<int> pending_children(static_cast<size_t>(num_tasks), 0);
  std::vector<int> outstanding_clones(static_cast<size_t>(num_tasks), 0);
  std::vector<int> ready;
  for (const QueryTask& task : task_tree.tasks()) {
    result.tasks[static_cast<size_t>(task.id)].task = task.id;
    pending_children[static_cast<size_t>(task.id)] =
        static_cast<int>(task.children.size());
    if (task.children.empty()) ready.push_back(task.id);
  }
  std::sort(ready.begin(), ready.end());

  // One resident set per site; resident ids are placement indices, and
  // clone_task maps them back to their query task.
  std::vector<SiteTimeline> sites(static_cast<size_t>(config.num_sites),
                                  SiteTimeline(config.dims));
  std::vector<int> clone_task;
  double t = 0.0;
  int completed_tasks = 0;

  while (true) {
    if (!ready.empty()) {
      SpanTimer round_span(trace, "list_place", result.rounds);
      // 1. Parallelize the ready tasks' operators (TREESCHEDULE's rule,
      // applied to a readiness wave instead of a shelf).
      std::vector<int> op_ids;
      for (int tid : ready) {
        const QueryTask& task = task_tree.task(tid);
        op_ids.insert(op_ids.end(), task.ops.begin(), task.ops.end());
        result.tasks[static_cast<size_t>(tid)].start = t;
      }
      auto parallelized = planner.ParallelizeWave(op_ids, result.rounds);
      if (!parallelized.ok()) return parallelized.status();
      std::vector<ParallelizedOp> round_ops = std::move(parallelized).value();

      if (pipeline) {
        // Rate matching (arxiv 1403.7729's pipelined extension): a task is
        // a producer/consumer pipeline that drains at its bottleneck
        // stage's rate, so every floating stage without a blocking
        // dependent drops to RateMatchedDegree — fewer clones, the same
        // pipeline rate, and alpha*N startup plus per-site load shrink.
        // Stages *with* a blocking dependent keep their joint-sized
        // degree: constraint B roots the dependent at their home, so
        // narrowing them would throttle a later round, not this pipeline.
        std::unordered_map<int, double> bottleneck;
        for (const ParallelizedOp& op : round_ops) {
          double& b = bottleneck[op_task.at(op.op_id)];
          b = std::max(b, op.t_par);
        }
        for (ParallelizedOp& op : round_ops) {
          if (op.rooted || op.degree <= 1) continue;
          if (planner.HasBlockingDependent(op.op_id)) continue;
          const int matched = RateMatchedDegree(
              costs[static_cast<size_t>(op.op_id)], params, usage,
              bottleneck.at(op_task.at(op.op_id)), op.degree);
          if (matched == op.degree) continue;
          auto lowered = planner.AtDegree(op.op_id, matched);
          if (!lowered.ok()) return lowered.status();
          op = std::move(lowered).value();
        }
      }

      // 2. Residual load at instant t: rebase every mid-flight site and
      // sum its remaining work vectors. OPERATORSCHEDULE's least-loaded
      // rule then minimizes l(R_s(t) + work(s)) over the new clones.
      std::vector<WorkVector> residual(
          static_cast<size_t>(config.num_sites),
          WorkVector(static_cast<size_t>(config.dims)));
      for (int j = 0; j < config.num_sites; ++j) {
        SiteTimeline& s = sites[static_cast<size_t>(j)];
        // Rebase even idle sites: their clock must reach t so a new wave
        // projects from the clones' arrival instant, not the old finish.
        s.AdvanceTo(t);
        for (const SiteTimeline::Resident& r : s.residents()) {
          residual[static_cast<size_t>(j)] += r.remaining;
        }
      }

      // Stage split: pipeline mode places producers before their
      // consumers (one stage per intra-task pipeline depth), so each
      // consumer's least-loaded pass sees its producers' freshly
      // committed load; plain mode is a single stage. Operator ids are
      // topological (a producer is created before its consumer), so one
      // ascending pass settles the depths.
      std::vector<std::vector<ParallelizedOp>> stages;
      if (pipeline) {
        std::unordered_map<int, int> stage_of;
        stage_of.reserve(round_ops.size());
        std::vector<int> order = op_ids;
        std::sort(order.begin(), order.end());
        int num_stages = 1;
        for (int oid : order) {
          int depth = 0;
          for (int d : op_tree.op(oid).data_inputs) {
            auto it = stage_of.find(d);
            if (it != stage_of.end()) depth = std::max(depth, it->second + 1);
          }
          stage_of[oid] = depth;
          num_stages = std::max(num_stages, depth + 1);
        }
        stages.resize(static_cast<size_t>(num_stages));
        for (ParallelizedOp& op : round_ops) {
          stages[static_cast<size_t>(stage_of.at(op.op_id))].push_back(
              std::move(op));
        }
      } else {
        stages.push_back(std::move(round_ops));
      }

      // 3. Place and commit the stages into the global timeline and the
      // per-site resident sets, then re-project the touched sites'
      // completions. Every clone of the round starts at t — a consumer
      // starts the instant its pipelined producer does.
      std::vector<char> touched(static_cast<size_t>(config.num_sites), 0);
      int64_t round_clones = 0;
      for (std::vector<ParallelizedOp>& stage_ops : stages) {
        OperatorScheduleOptions round_options = list_options;
        round_options.base_load = &residual;
        auto round_schedule = OperatorSchedule(stage_ops, config.num_sites,
                                               config.dims, round_options);
        if (!round_schedule.ok()) return round_schedule.status();
        std::unordered_map<int, const ParallelizedOp*> by_id;
        for (const ParallelizedOp& op : stage_ops) by_id[op.op_id] = &op;
        result.schedule.ReserveFor(stage_ops);
        for (const ClonePlacement& c : round_schedule->placements()) {
          MRS_RETURN_IF_ERROR(result.schedule.PlaceAt(*by_id.at(c.op_id),
                                                      c.clone_idx, c.site, t));
          const int placement = result.schedule.num_placements() - 1;
          const int tid = op_task.at(c.op_id);
          clone_task.push_back(tid);
          sites[static_cast<size_t>(c.site)].Admit(placement, c.work,
                                                   c.t_seq);
          touched[static_cast<size_t>(c.site)] = 1;
          // The next stage's least-loaded pass must see this clone.
          residual[static_cast<size_t>(c.site)] += c.work;
          ++outstanding_clones[static_cast<size_t>(tid)];
        }
        planner.RecordHomes(stage_ops, *round_schedule);
        round_clones +=
            static_cast<int64_t>(round_schedule->placements().size());
        result.ops.insert(result.ops.end(),
                          std::make_move_iterator(stage_ops.begin()),
                          std::make_move_iterator(stage_ops.end()));
      }
      // Re-project only the sites that received clones: an untouched
      // site's completion is unchanged (re-deriving it from the rebased
      // remainders would only jitter the float).
      for (int j = 0; j < config.num_sites; ++j) {
        if (touched[static_cast<size_t>(j)]) {
          sites[static_cast<size_t>(j)].Project();
        }
      }
      if (round_span.active()) {
        round_span.AttrInt("tasks", static_cast<int64_t>(ready.size()));
        round_span.AttrInt("ops", static_cast<int64_t>(op_ids.size()));
        round_span.AttrInt("clones", round_clones);
        round_span.AttrDouble("virtual_time_ms", t);
        if (pipeline) {
          round_span.AttrInt("stages", static_cast<int64_t>(stages.size()));
        }
      }
      round_span.End();
      result.clone_finish.resize(
          static_cast<size_t>(result.schedule.num_placements()), 0.0);
      ++result.rounds;
      ready.clear();
    }

    // 4. Advance virtual time to the earliest site completion.
    double t_next = std::numeric_limits<double>::infinity();
    for (const SiteTimeline& s : sites) {
      if (!s.empty()) t_next = std::min(t_next, s.projection().finish);
    }
    if (t_next == std::numeric_limits<double>::infinity()) break;
    for (SiteTimeline& s : sites) {
      const double finish = s.projection().finish;
      if (s.empty() || finish > t_next) continue;
      for (const SiteTimeline::Resident& r : s.residents()) {
        result.clone_finish[static_cast<size_t>(r.id)] = finish;
        const int task = clone_task[static_cast<size_t>(r.id)];
        int& left = outstanding_clones[static_cast<size_t>(task)];
        if (--left == 0) {
          ListTaskInterval& interval = result.tasks[static_cast<size_t>(task)];
          interval.finish = finish;
          ++completed_tasks;
          const int parent = task_tree.task(task).parent;
          if (parent >= 0 &&
              --pending_children[static_cast<size_t>(parent)] == 0) {
            ready.push_back(parent);
          }
        }
      }
      s.CompleteWave();
    }
    std::sort(ready.begin(), ready.end());
    t = t_next;
  }

  if (completed_tasks != num_tasks) {
    return Status::Internal(
        StrFormat("event loop stalled: %d of %d tasks completed",
                  completed_tasks, num_tasks));
  }
  result.makespan = t;
  // Every site ended on a completed wave, so its last projection is its
  // last completion.
  for (size_t j = 0; j < sites.size(); ++j) {
    if (result.critical_site < 0 ||
        sites[j].projection().finish >
            sites[static_cast<size_t>(result.critical_site)]
                .projection()
                .finish) {
      result.critical_site = static_cast<int>(j);
    }
  }
  if (result.critical_site >= 0) {
    const SiteTimeline::Projection& last =
        sites[static_cast<size_t>(result.critical_site)].projection();
    result.load_bound = last.congestion;
    result.critical_resource = last.resource;
  }
  return result;
}

/// Dominance guard: never worse than TREESCHEDULE (see
/// ListScheduleOptions::tree_guard).
Status ApplyTreeGuard(const OperatorTree& op_tree, const TaskTree& task_tree,
                      const std::vector<OperatorCost>& costs,
                      const CostParams& params, const MachineConfig& config,
                      const OverlapUsageModel& usage,
                      const TreeScheduleOptions& tree_options,
                      ListScheduleResult* result) {
  auto tree = TreeSchedule(op_tree, task_tree, costs, params, config, usage,
                           tree_options);
  if (!tree.ok()) return tree.status();
  result->tree_response_time = tree->response_time;
  if (result->makespan > tree->response_time) {
    ListScheduleResult fallback =
        AlignedFallback(*tree, task_tree, config.num_sites, config.dims);
    fallback.tree_response_time = tree->response_time;
    *result = std::move(fallback);
  }
  return Status::OK();
}

}  // namespace

std::string ListScheduleResult::ToString() const {
  const char* mode = ModeString();
  std::string out = StrFormat(
      "ListSchedule(makespan=%.2fms, %zu tasks, %d rounds, mode=%s)\n",
      makespan, tasks.size(), rounds, mode);
  for (const ListTaskInterval& t : tasks) {
    out += StrFormat("  task %d: [%.2f, %.2f]ms\n", t.task, t.start,
                     t.finish);
  }
  return out;
}

Result<ListScheduleResult> ListSchedule(const OperatorTree& op_tree,
                                        const TaskTree& task_tree,
                                        const std::vector<OperatorCost>& costs,
                                        const CostParams& params,
                                        const MachineConfig& machine,
                                        const OverlapUsageModel& usage,
                                        const ListScheduleOptions& options) {
  // The planner validates the inputs (cost vector size, cost params,
  // machine config, cache compatibility) exactly like TreeSchedule.
  auto planner = PhasePlanner::Create(op_tree, task_tree, costs, params,
                                      machine, usage, options.tree);
  if (!planner.ok()) return planner.status();
  const MachineConfig& config = planner->machine();
  if (task_tree.num_tasks() == 0) {
    return Status::InvalidArgument("task tree has no tasks to schedule");
  }
  // Every round sets its own residual as the base load, so a static one
  // would reach the tree_guard's TREESCHEDULE but not the greedy rounds.
  if (options.tree.list_options.base_load != nullptr) {
    return Status::InvalidArgument("ListSchedule takes no external base_load");
  }
  // The guards' shadow runs are untraced.
  TreeScheduleOptions untraced = options.tree;
  untraced.trace = nullptr;
  auto tree_guard = [&](ListScheduleResult* r) {
    return options.tree_guard ? ApplyTreeGuard(op_tree, task_tree, costs,
                                               params, config, usage,
                                               untraced, r)
                              : Status::OK();
  };

  SpanTimer call_span(options.tree.trace, "list_schedule");
  auto greedy = GreedyListSchedule(*planner, op_tree, task_tree, costs, params,
                                   usage, options.pipeline);
  if (!greedy.ok()) return greedy.status();
  ListScheduleResult result = std::move(greedy).value();
  result.pipelined = options.pipeline;
  if (options.pipeline && options.pipeline_guard) {
    // Shadow task-wave baseline (itself tree-guarded when tree_guard is
    // on): the LIST side of PIPELINED <= LIST <= TREE.
    auto shadow = PhasePlanner::Create(op_tree, task_tree, costs, params,
                                       machine, usage, untraced);
    if (!shadow.ok()) return shadow.status();
    auto plain = GreedyListSchedule(*shadow, op_tree, task_tree, costs, params,
                                    usage, /*pipeline=*/false);
    if (!plain.ok()) return plain.status();
    ListScheduleResult baseline = std::move(plain).value();
    MRS_RETURN_IF_ERROR(tree_guard(&baseline));
    result.tree_response_time = baseline.tree_response_time;
    result.list_makespan = baseline.makespan;
    if (result.makespan > baseline.makespan) {
      baseline.tree_response_time = result.tree_response_time;
      baseline.list_makespan = result.list_makespan;
      baseline.used_list_fallback = true;
      result = std::move(baseline);
    }
  } else {
    MRS_RETURN_IF_ERROR(tree_guard(&result));
  }

  if (call_span.active()) {
    call_span.AttrInt("tasks", static_cast<int64_t>(result.tasks.size()));
    call_span.AttrInt("rounds", static_cast<int64_t>(result.rounds));
    call_span.AttrDouble("makespan_ms", result.makespan);
    call_span.AttrInt("fallback", result.used_tree_fallback ? 1 : 0);
    call_span.AttrInt("critical_site", result.critical_site);
    if (result.load_bound && result.critical_resource >= 0) {
      const size_t r = static_cast<size_t>(result.critical_resource);
      call_span.Attr("eq3_binding",
                     StrFormat("congestion:%s",
                               r < config.resource_names.size()
                                   ? config.resource_names[r].c_str()
                                   : StrFormat("r%zu", r).c_str()));
    } else {
      call_span.Attr("eq3_binding", "t_seq");
    }
    if (options.pipeline) {
      call_span.AttrInt("pipelined", result.pipelined ? 1 : 0);
      call_span.AttrInt("list_fallback", result.used_list_fallback ? 1 : 0);
    }
  }
  return result;
}

}  // namespace mrs
