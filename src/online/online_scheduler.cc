#include "online/online_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "core/list_schedule.h"
#include "core/site_timeline.h"
#include "cost/cost_model.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"

namespace mrs {

namespace {

constexpr double kTimeTol = 1e-9;

/// Fraction of a clone's work still ahead of it at time t under the A3
/// uniform-usage assumption (linear decay over [start, finish]).
double RemainingFraction(double start, double finish, double t) {
  const double span = finish - start;
  if (span <= 0) return 0.0;
  const double frac = (finish - t) / span;
  return std::min(1.0, std::max(0.0, frac));
}

/// True when the operator materializes state that stays resident for the
/// lifetime of its blocking consumer (hash table, group table, sorted
/// runs) — the footprint admission's memory budget meters.
bool MaterializesState(OperatorKind kind) {
  return kind == OperatorKind::kBuild || kind == OperatorKind::kAggBuild ||
         kind == OperatorKind::kSortRun;
}

}  // namespace

std::string_view OnlineQueryStateToString(OnlineQueryState state) {
  switch (state) {
    case OnlineQueryState::kQueued:
      return "queued";
    case OnlineQueryState::kRunning:
      return "running";
    case OnlineQueryState::kDone:
      return "done";
    case OnlineQueryState::kRejected:
      return "rejected";
    case OnlineQueryState::kTimedOut:
      return "timed-out";
  }
  return "unknown";
}

double OnlineQueryResult::QueueWaitMs() const {
  if (admit_ms >= 0) return admit_ms - arrival_ms;
  if (state == OnlineQueryState::kTimedOut) return finish_ms - arrival_ms;
  return 0.0;
}

double OnlineQueryResult::ProjectedFinishMs() const {
  if (finish_ms >= 0) return finish_ms;
  if (admit_ms >= 0) return admit_ms + schedule.response_time;
  return -1.0;
}

struct OnlineScheduler::QueryRec {
  OnlineQueryResult result;
  /// Absolute queue-wait deadline; < 0 = none.
  double deadline_ms = -1.0;
  // The expanded pipeline inputs must stay address-stable while the
  // planner references them (TaskTree also points back into the
  // OperatorTree); all are released once the query leaves the machine.
  std::unique_ptr<OperatorTree> ops;
  std::unique_ptr<TaskTree> task_tree;
  std::vector<OperatorCost> costs;
  std::unique_ptr<PhasePlanner> planner;
  bool fully_placed = false;
};

OnlineScheduler::OnlineScheduler(const CostParams& params,
                                 const MachineConfig& machine,
                                 const OnlineSchedulerOptions& options)
    : params_(params),
      machine_(machine),
      options_(options),
      usage_(options.overlap_eps),
      cache_(params, options.overlap_eps, options.tree.granularity,
             machine.num_sites, options.metrics),
      admission_(options.admission),
      resident_(static_cast<size_t>(machine.num_sites)) {
  MetricsRegistry* registry =
      options_.metrics != nullptr ? options_.metrics : &MetricsRegistry::Global();
  submitted_ = registry->GetCounter("online.submitted");
  admitted_ = registry->GetCounter("online.admitted");
  rejected_ = registry->GetCounter("online.rejected");
  timeout_ = registry->GetCounter("online.timeout");
  queue_gauge_ = registry->GetGauge("online.queue_depth");
  in_flight_gauge_ = registry->GetGauge("online.in_flight");
  queue_wait_hist_ = registry->GetHistogram("online.queue_wait_ms");
  makespan_hist_ = registry->GetHistogram("online.makespan_ms");
}

OnlineScheduler::~OnlineScheduler() = default;

uint64_t OnlineScheduler::Submit(const PlanTree& plan, double arrival_ms,
                                 double timeout_ms) {
  if (arrival_ms < now_) arrival_ms = now_;
  ProcessUntil(arrival_ms);

  const uint64_t id = next_id_++;
  auto owned = std::make_unique<QueryRec>();
  QueryRec* rec = owned.get();
  queries_.emplace(id, std::move(owned));
  rec->result.id = id;
  rec->result.arrival_ms = arrival_ms;
  submitted_->Increment();

  double timeout = timeout_ms;
  if (timeout < 0) {
    const double def = admission_.options().default_timeout_ms;
    timeout = def > 0 ? def : -1.0;
  }
  if (timeout >= 0) rec->deadline_ms = arrival_ms + timeout;

  ScheduleTrace* trace = nullptr;
  if (options_.collect_traces) {
    rec->result.trace =
        options_.trace_clock
            ? std::make_shared<ScheduleTrace>(options_.trace_clock)
            : std::make_shared<ScheduleTrace>();
    rec->result.trace->set_label(
        StrFormat("query-%llu", static_cast<unsigned long long>(id)));
    trace = rec->result.trace.get();
  }

  SpanTimer expand_span(trace, "expand");
  auto op_tree = OperatorTree::FromPlan(plan);
  if (!op_tree.ok()) {
    FinalizeRejected(rec, op_tree.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->ops = std::make_unique<OperatorTree>(std::move(op_tree).value());
  auto task_tree = TaskTree::FromOperatorTree(rec->ops.get());
  if (!task_tree.ok()) {
    FinalizeRejected(rec, task_tree.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->task_tree = std::make_unique<TaskTree>(std::move(task_tree).value());
  if (expand_span.active()) {
    expand_span.AttrInt("ops", rec->ops->num_ops());
    expand_span.AttrInt("phases", rec->task_tree->num_phases());
  }
  expand_span.End();

  SpanTimer cost_span(trace, "cost_model");
  const CostModel model(params_, machine_.dims, options_.num_disks);
  auto costs = model.CostAll(*rec->ops);
  if (!costs.ok()) {
    FinalizeRejected(rec, costs.status(), OnlineQueryState::kRejected);
    return id;
  }
  rec->costs = std::move(costs).value();
  cost_span.End();

  // Admission estimates: the idle-system response time (an offline
  // TreeSchedule over the shared memo cache) and the materialized-state
  // footprint.
  SpanTimer est_span(trace, "admission_estimate");
  TreeScheduleOptions est_options = options_.tree;
  est_options.cache = options_.use_cost_cache ? &cache_ : nullptr;
  est_options.trace = nullptr;
  if (options_.engine == OnlineEngine::kList) {
    ListScheduleOptions list_options;
    list_options.tree = est_options;
    list_options.tree.list_options.base_load = nullptr;
    auto estimate = ListSchedule(*rec->ops, *rec->task_tree, rec->costs,
                                 params_, machine_, usage_, list_options);
    if (!estimate.ok()) {
      FinalizeRejected(rec, estimate.status(), OnlineQueryState::kRejected);
      return id;
    }
    rec->result.expected_makespan_ms = estimate->makespan;
  } else {
    auto estimate = TreeSchedule(*rec->ops, *rec->task_tree, rec->costs,
                                 params_, machine_, usage_, est_options);
    if (!estimate.ok()) {
      FinalizeRejected(rec, estimate.status(), OnlineQueryState::kRejected);
      return id;
    }
    rec->result.expected_makespan_ms = estimate->response_time;
  }
  for (const PhysicalOp& op : rec->ops->ops()) {
    if (MaterializesState(op.kind)) {
      rec->result.memory_estimate_bytes +=
          static_cast<double>(op.input_bytes()) * options_.state_overhead;
    }
  }
  if (est_span.active()) {
    est_span.AttrDouble("expected_makespan_ms",
                        rec->result.expected_makespan_ms);
    est_span.AttrDouble("memory_bytes", rec->result.memory_estimate_bytes);
  }
  est_span.End();

  SpanTimer adm_span(trace, "admission");
  Status why;
  const auto decision = admission_.OnArrival(RequestOf(*rec), &why);
  switch (decision) {
    case AdmissionController::Decision::kAdmit:
      if (adm_span.active()) adm_span.Attr("decision", "admit");
      adm_span.End();
      AdmitQuery(rec);
      break;
    case AdmissionController::Decision::kQueue:
      if (adm_span.active()) {
        adm_span.Attr("decision", "queue");
        adm_span.AttrInt("queue_depth", admission_.queue_depth());
      }
      adm_span.End();
      if (rec->deadline_ms >= 0) {
        PushEvent(rec->deadline_ms, Event::kDeadline, id);
      }
      UpdateGauges();
      break;
    case AdmissionController::Decision::kReject:
      if (adm_span.active()) adm_span.Attr("decision", "reject");
      adm_span.End();
      FinalizeRejected(rec, std::move(why), OnlineQueryState::kRejected);
      break;
  }
  return id;
}

void OnlineScheduler::AdmitQuery(QueryRec* rec) {
  rec->result.state = OnlineQueryState::kRunning;
  rec->result.admit_ms = now_;
  admitted_->Increment();
  queue_wait_hist_->Record(now_ - rec->result.arrival_ms);
  admission_.OnAdmitted(RequestOf(*rec));
  UpdateGauges();

  if (options_.engine == OnlineEngine::kList) {
    PlaceListSchedule(rec);
    return;
  }

  TreeScheduleOptions tree_options = options_.tree;
  tree_options.cache = options_.use_cost_cache ? &cache_ : nullptr;
  tree_options.trace = rec->result.trace.get();
  auto planner = PhasePlanner::Create(*rec->ops, *rec->task_tree, rec->costs,
                                      params_, machine_, usage_, tree_options);
  if (!planner.ok()) {
    AbortQuery(rec, planner.status());
    return;
  }
  rec->planner = std::make_unique<PhasePlanner>(std::move(planner).value());
  rec->result.schedule.phases.reserve(
      static_cast<size_t>(rec->planner->num_phases()));
  PlaceNextPhase(rec);
}

void OnlineScheduler::PlaceNextPhase(QueryRec* rec) {
  RetireThrough(now_);
  bool any_resident = false;
  for (const auto& site : resident_) {
    if (!site.empty()) {
      any_resident = true;
      break;
    }
  }
  // A null base on an idle machine keeps OPERATORSCHEDULE on the exact
  // offline code path (bit-identical placements and makespans).
  std::vector<WorkVector> base;
  const std::vector<WorkVector>* base_ptr = nullptr;
  if (any_resident) {
    base = ResidualLoadAt(now_);
    base_ptr = &base;
  }

  const int k = rec->planner->next_phase();
  auto phase = rec->planner->NextPhase(base_ptr);
  if (!phase.ok()) {
    AbortQuery(rec, phase.status());
    return;
  }

  SpanTimer place_span(rec->result.trace.get(), "online_place", k);

  // Each touched site shares its resources under eq. (2) between its
  // resident reservations (with their *remaining* work) and the new
  // clones, residents first, new clones in placement order; all of them
  // complete together at the site's projected F (measured from now_).
  // Reserve the new clones at that instant and close the phase at the
  // barrier (the last touched site's F).
  const auto& placements = phase->schedule.placements();
  int resident_count = 0;
  double barrier = 0.0;
  double serial_bound = 0.0;
  for (int s = 0; s < machine_.num_sites; ++s) {
    const auto new_clones = phase->schedule.SitePlacements(s);
    if (new_clones.empty()) continue;
    std::vector<ResidentClone>& site = resident_[static_cast<size_t>(s)];
    SiteTimeline timeline(machine_.dims);
    timeline.Reserve(site.size() + new_clones.size());
    double serial = 0.0;
    for (const ResidentClone& c : site) {
      const double frac = RemainingFraction(c.start, c.finish, now_);
      timeline.Admit(-1, c.work * frac, c.t_seq * frac);
      serial += c.t_seq * frac;
    }
    resident_count += static_cast<int>(site.size());
    for (int p : new_clones) {
      const ClonePlacement& c = placements[static_cast<size_t>(p)];
      timeline.Admit(p, c.work, c.t_seq);
      serial += c.t_seq;
    }
    const double fin = timeline.Project().finish;
    barrier = std::max(barrier, fin);
    serial_bound = std::max(serial_bound, serial);
    for (int p : new_clones) {
      const ClonePlacement& c = placements[static_cast<size_t>(p)];
      site.push_back(ResidentClone{rec->result.id, c.work, c.t_seq, now_,
                                   now_ + fin});
    }
  }

  OnlinePhaseTiming timing;
  timing.phase = k;
  timing.start_ms = now_;
  timing.finish_ms = now_ + barrier;
  timing.uncontended_ms = phase->makespan;
  timing.serial_bound_ms = serial_bound;
  rec->result.timings.push_back(timing);

  PhaseSchedule placed = std::move(phase).value();
  placed.makespan = barrier;  // contended duration
  rec->result.schedule.response_time += barrier;
  rec->result.schedule.phases.push_back(std::move(placed));

  if (place_span.active()) {
    place_span.AttrInt("residents", resident_count);
    place_span.AttrDouble("start_ms", timing.start_ms);
    place_span.AttrDouble("duration_ms", barrier);
    place_span.AttrDouble("uncontended_ms", timing.uncontended_ms);
    place_span.AttrDouble("serial_bound_ms", serial_bound);
  }
  place_span.End();

  rec->fully_placed = rec->planner->done();
  PushEvent(now_ + barrier, Event::kPhaseDone, rec->result.id);
}

void OnlineScheduler::PlaceListSchedule(QueryRec* rec) {
  RetireThrough(now_);
  bool any_resident = false;
  for (const auto& site : resident_) {
    if (!site.empty()) {
      any_resident = true;
      break;
    }
  }
  // A null base on an idle machine keeps every placement round on the
  // exact offline ListSchedule code path.
  std::vector<WorkVector> base;
  const std::vector<WorkVector>* base_ptr = nullptr;
  if (any_resident) {
    base = ResidualLoadAt(now_);
    base_ptr = &base;
  }

  ListScheduleOptions list_options;
  list_options.tree = options_.tree;
  list_options.tree.cache = options_.use_cost_cache ? &cache_ : nullptr;
  list_options.tree.trace = rec->result.trace.get();
  list_options.tree.list_options.base_load = base_ptr;
  auto list = ListSchedule(*rec->ops, *rec->task_tree, rec->costs, params_,
                           machine_, usage_, list_options);
  if (!list.ok()) {
    AbortQuery(rec, list.status());
    return;
  }

  SpanTimer place_span(rec->result.trace.get(), "online_place_list");

  // Staggered reservations: each clone occupies its own [start, finish)
  // window of the shared virtual clock, so later arrivals see its linearly
  // decaying remaining work only while it is actually mid-flight.
  const auto& placements = list->schedule.placements();
  double serial = 0.0;
  for (size_t i = 0; i < placements.size(); ++i) {
    const ClonePlacement& p = placements[i];
    resident_[static_cast<size_t>(p.site)].push_back(
        ResidentClone{rec->result.id, p.work, p.t_seq, now_ + p.start,
                      now_ + list->clone_finish[i]});
    serial += p.t_seq;
  }
  const double makespan = list->makespan;

  // One whole-query timing record. The list makespan already reflects the
  // barrier-free timeline; residual load steered placement but does not
  // stretch durations, so contended == uncontended here, and the serial
  // bound is the run-everything-sequentially time of the query's clones.
  OnlinePhaseTiming timing;
  timing.phase = 0;
  timing.start_ms = now_;
  timing.finish_ms = now_ + makespan;
  timing.uncontended_ms = makespan;
  timing.serial_bound_ms = serial;
  rec->result.timings.push_back(timing);

  const int rounds = list->rounds;
  const bool fell_back = list->used_tree_fallback;
  PhaseSchedule placed{/*phase=*/0, std::move(list->ops),
                       std::move(list->schedule), makespan};
  rec->result.schedule.phases.push_back(std::move(placed));
  rec->result.schedule.response_time = makespan;

  if (place_span.active()) {
    place_span.AttrInt("rounds", rounds);
    place_span.AttrInt("tree_fallback", fell_back ? 1 : 0);
    place_span.AttrDouble("start_ms", timing.start_ms);
    place_span.AttrDouble("duration_ms", makespan);
    place_span.AttrDouble("serial_bound_ms", serial);
  }
  place_span.End();

  rec->fully_placed = true;
  PushEvent(now_ + makespan, Event::kPhaseDone, rec->result.id);
}

void OnlineScheduler::CompleteQuery(QueryRec* rec, double at_ms) {
  rec->result.state = OnlineQueryState::kDone;
  rec->result.finish_ms = at_ms;
  makespan_hist_->Record(at_ms - rec->result.admit_ms);
  admission_.OnFinished(RequestOf(*rec));
  rec->planner.reset();
  rec->task_tree.reset();
  rec->ops.reset();
  rec->costs.clear();
  rec->costs.shrink_to_fit();
  UpdateGauges();
  TryAdmitFromQueue();
}

void OnlineScheduler::AbortQuery(QueryRec* rec, Status status) {
  const uint64_t id = rec->result.id;
  for (auto& site : resident_) {
    site.erase(std::remove_if(
                   site.begin(), site.end(),
                   [id](const ResidentClone& c) { return c.query == id; }),
               site.end());
  }
  admission_.OnFinished(RequestOf(*rec));
  rec->result.state = OnlineQueryState::kRejected;
  rec->result.status = std::move(status);
  rec->result.finish_ms = now_;
  rejected_->Increment();
  rec->planner.reset();
  rec->task_tree.reset();
  rec->ops.reset();
  rec->costs.clear();
  rec->costs.shrink_to_fit();
  UpdateGauges();
  TryAdmitFromQueue();
}

void OnlineScheduler::FinalizeRejected(QueryRec* rec, Status status,
                                       OnlineQueryState state) {
  rec->result.state = state;
  rec->result.status = std::move(status);
  rec->result.finish_ms = now_;
  if (state == OnlineQueryState::kTimedOut) {
    timeout_->Increment();
  } else {
    rejected_->Increment();
  }
  rec->planner.reset();
  rec->task_tree.reset();
  rec->ops.reset();
  rec->costs.clear();
  rec->costs.shrink_to_fit();
  UpdateGauges();
}

void OnlineScheduler::TryAdmitFromQueue() {
  // Admissible waiters first — finish wins a deadline tie: when a clone
  // finish frees a slot at the very instant a waiter's budget runs out,
  // the waiter is admitted, not timed out. (A waiter whose deadline
  // passed *strictly* earlier cannot reach this point still queued: its
  // kDeadline event already fired and expired it — EventLater orders
  // equal-time finishes ahead of deadlines for exactly this case.)
  AdmissionRequest req;
  while (admission_.PopAdmissible(&req)) {
    auto it = queries_.find(req.id);
    MRS_CHECK(it != queries_.end()) << "queued id unknown to the scheduler";
    AdmitQuery(it->second.get());
  }
  // Whoever is still queued with an exhausted budget times out.
  for (const AdmissionRequest& expired : admission_.ExpireDeadlines(now_)) {
    auto it = queries_.find(expired.id);
    if (it == queries_.end()) continue;
    FinalizeRejected(
        it->second.get(),
        Status::DeadlineExceeded(StrFormat(
            "queue wait exceeded the %.3f ms budget",
            expired.deadline_ms - expired.arrival_ms)),
        OnlineQueryState::kTimedOut);
  }
  UpdateGauges();
}

Status OnlineScheduler::AdvanceTo(double t_ms) {
  ProcessUntil(t_ms);
  return Status::OK();
}

Status OnlineScheduler::Drain() {
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  if (admission_.queue_depth() > 0 || admission_.in_flight() > 0) {
    return Status::Internal(
        StrFormat("drain left %d queued and %d running queries",
                  admission_.queue_depth(), admission_.in_flight()));
  }
  RetireThrough(now_);
  return Status::OK();
}

Status OnlineScheduler::ResolveQuery(uint64_t id) {
  if (queries_.find(id) == queries_.end()) {
    return Status::NotFound(StrFormat(
        "unknown query id %llu", static_cast<unsigned long long>(id)));
  }
  while (!Resolved(id)) {
    if (events_.empty()) {
      return Status::Internal("query unresolved but no pending events");
    }
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  return Status::OK();
}

bool OnlineScheduler::Resolved(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const QueryRec& rec = *it->second;
  return rec.result.terminal() ||
         (rec.result.state == OnlineQueryState::kRunning && rec.fully_placed);
}

const OnlineQueryResult* OnlineScheduler::result(uint64_t id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second->result;
}

std::vector<WorkVector> OnlineScheduler::ResidualLoad() const {
  return ResidualLoadAt(now_);
}

Status OnlineScheduler::CheckInvariants() const {
  for (int s = 0; s < machine_.num_sites; ++s) {
    for (const ResidentClone& c : resident_[static_cast<size_t>(s)]) {
      if (!c.work.IsNonNegative()) {
        return Status::Internal(
            StrFormat("site %d holds a clone with negative work", s));
      }
      if (c.finish + kTimeTol < c.start) {
        return Status::Internal(
            StrFormat("site %d holds a clone finishing before it starts", s));
      }
    }
  }
  for (const WorkVector& w : ResidualLoadAt(now_)) {
    if (!w.IsNonNegative()) {
      return Status::Internal("negative residual load component");
    }
  }
  int running = 0;
  int queued = 0;
  for (const auto& entry : queries_) {
    const OnlineQueryState state = entry.second->result.state;
    if (state == OnlineQueryState::kRunning) ++running;
    if (state == OnlineQueryState::kQueued) ++queued;
  }
  if (running != admission_.in_flight()) {
    return Status::Internal(
        StrFormat("%d running queries but admission tracks %d", running,
                  admission_.in_flight()));
  }
  if (queued != admission_.queue_depth()) {
    return Status::Internal(
        StrFormat("%d queued queries but admission tracks %d", queued,
                  admission_.queue_depth()));
  }
  if (running > admission_.options().max_in_flight) {
    return Status::Internal("multiprogramming level exceeded");
  }
  return Status::OK();
}

void OnlineScheduler::ProcessUntil(double t_ms) {
  while (!events_.empty() && events_.top().time <= t_ms) {
    const Event event = events_.top();
    events_.pop();
    Dispatch(event);
  }
  if (t_ms > now_) now_ = t_ms;
}

void OnlineScheduler::Dispatch(const Event& event) {
  if (event.time > now_) now_ = event.time;
  auto it = queries_.find(event.query);
  if (it == queries_.end()) return;
  QueryRec* rec = it->second.get();
  switch (event.kind) {
    case Event::kPhaseDone:
      if (rec->result.state != OnlineQueryState::kRunning) return;  // stale
      RetireThrough(now_);
      if (rec->planner != nullptr && !rec->planner->done()) {
        PlaceNextPhase(rec);
      } else {
        CompleteQuery(rec, event.time);
      }
      break;
    case Event::kDeadline:
      if (rec->result.state != OnlineQueryState::kQueued) return;  // stale
      for (const AdmissionRequest& req : admission_.ExpireDeadlines(now_)) {
        auto qit = queries_.find(req.id);
        if (qit == queries_.end()) continue;
        FinalizeRejected(
            qit->second.get(),
            Status::DeadlineExceeded(StrFormat(
                "queue wait exceeded the %.3f ms budget",
                req.deadline_ms - req.arrival_ms)),
            OnlineQueryState::kTimedOut);
      }
      break;
  }
}

void OnlineScheduler::PushEvent(double time, Event::Kind kind,
                                uint64_t query) {
  Event event;
  event.time = time;
  event.seq = next_seq_++;
  event.kind = kind;
  event.query = query;
  events_.push(event);
}

void OnlineScheduler::RetireThrough(double t_ms) {
  for (auto& site : resident_) {
    site.erase(std::remove_if(site.begin(), site.end(),
                              [t_ms](const ResidentClone& c) {
                                return c.finish <= t_ms + kTimeTol;
                              }),
               site.end());
  }
}

std::vector<WorkVector> OnlineScheduler::ResidualLoadAt(double t_ms) const {
  std::vector<WorkVector> load(
      static_cast<size_t>(machine_.num_sites),
      WorkVector(static_cast<size_t>(machine_.dims)));
  for (int s = 0; s < machine_.num_sites; ++s) {
    for (const ResidentClone& c : resident_[static_cast<size_t>(s)]) {
      if (c.finish <= t_ms + kTimeTol) continue;
      load[static_cast<size_t>(s)].AddScaled(
          c.work, RemainingFraction(c.start, c.finish, t_ms));
    }
  }
  return load;
}

AdmissionRequest OnlineScheduler::RequestOf(const QueryRec& rec) const {
  AdmissionRequest req;
  req.id = rec.result.id;
  req.arrival_ms = rec.result.arrival_ms;
  req.deadline_ms = rec.deadline_ms;
  req.expected_makespan_ms = rec.result.expected_makespan_ms;
  req.memory_bytes = rec.result.memory_estimate_bytes;
  return req;
}

void OnlineScheduler::UpdateGauges() {
  queue_gauge_->Set(static_cast<double>(admission_.queue_depth()));
  in_flight_gauge_->Set(static_cast<double>(admission_.in_flight()));
}

}  // namespace mrs
