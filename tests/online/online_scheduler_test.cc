#include "online/online_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/list_schedule.h"
#include "core/tree_schedule.h"
#include "exec/fluid_simulator.h"
#include "io/schedule_export.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::BushyFourWayFixture;
using testing_util::MakeFixture;
using testing_util::PipelinedChainFixture;
using testing_util::PlanFixture;

PlanFixture SingleJoinFixture(int64_t outer, int64_t inner) {
  return MakeFixture({outer, inner}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value()).value();
  });
}

/// The offline TREESCHEDULE of a fixture under the scheduler's defaults.
TreeScheduleResult OfflineSchedule(const PlanFixture& fx,
                                   const MachineConfig& machine,
                                   const TreeScheduleOptions& options = {}) {
  OverlapUsageModel usage(0.5);
  auto result = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                             machine, usage, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(OnlineSchedulerTest, IdleSystemMatchesOfflineByteForByte) {
  PlanFixture fx = BushyFourWayFixture();
  MachineConfig machine;
  const TreeScheduleResult offline = OfflineSchedule(fx, machine);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.ResolveQuery(id).ok());
  const OnlineQueryResult* r = sched.result(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, OnlineQueryState::kRunning);  // placed, clock behind
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(r->state, OnlineQueryState::kDone);

  // With nothing else resident the incremental path must reproduce the
  // offline schedule exactly — same placements, same phase makespans,
  // byte-identical JSON.
  EXPECT_EQ(TreeScheduleToJson(r->schedule), TreeScheduleToJson(offline));
  EXPECT_DOUBLE_EQ(r->schedule.response_time, offline.response_time);
  EXPECT_DOUBLE_EQ(r->expected_makespan_ms, r->schedule.response_time);
  EXPECT_DOUBLE_EQ(r->finish_ms - r->admit_ms, offline.response_time);
  ASSERT_EQ(r->timings.size(), offline.phases.size());
  for (size_t k = 0; k < r->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(r->timings[k].DurationMs(),
                     offline.phases[k].makespan);
    EXPECT_DOUBLE_EQ(r->timings[k].uncontended_ms,
                     offline.phases[k].makespan);
  }
}

TEST(OnlineSchedulerTest, PlacementIndexMatchesLinearOnResidualPath) {
  // The placement-index switch threads through the online service's
  // residual-load branch: an overlapping multi-query workload placed with
  // the indexed engine must produce byte-identical schedule JSON to the
  // linear-scan oracle, phase by phase, while residents actually contend.
  PlanFixture fa = BushyFourWayFixture();
  PlanFixture fb = PipelinedChainFixture(3);
  MachineConfig machine;

  auto run = [&](bool use_index) {
    MetricsRegistry metrics;
    OnlineSchedulerOptions options;
    options.metrics = &metrics;
    options.tree.list_options.placement_index = use_index;
    OnlineScheduler sched(CostParams{}, machine, options);
    const uint64_t a = sched.Submit(*fa.plan, 0.0);
    // Overlap: B arrives while A's clones are resident.
    const uint64_t b = sched.Submit(*fb.plan, 0.5);
    EXPECT_TRUE(sched.Drain().ok());
    const OnlineQueryResult* ra = sched.result(a);
    const OnlineQueryResult* rb = sched.result(b);
    EXPECT_EQ(ra->state, OnlineQueryState::kDone);
    EXPECT_EQ(rb->state, OnlineQueryState::kDone);
    return TreeScheduleToJson(ra->schedule) + TreeScheduleToJson(rb->schedule);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(OnlineSchedulerTest, DisjointCapacityKeepsSingleQueryMakespans) {
  PlanFixture fa = SingleJoinFixture(8000, 4000);
  PlanFixture fb = SingleJoinFixture(1500, 1200);
  MachineConfig machine;
  // Coarse granularity keeps both queries' degrees well under the site
  // count, so least-loaded placement puts B on sites A does not touch.
  TreeScheduleOptions coarse;
  coarse.granularity = 0.1;
  const TreeScheduleResult offline_a = OfflineSchedule(fa, machine, coarse);
  const TreeScheduleResult offline_b = OfflineSchedule(fb, machine, coarse);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.tree.granularity = 0.1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fa.plan, 0.0);
  const OnlineQueryResult* ra = sched.result(a);
  ASSERT_NE(ra, nullptr);
  ASSERT_EQ(ra->state, OnlineQueryState::kRunning);
  ASSERT_FALSE(ra->timings.empty());
  // B arrives late in A's first phase (so A is still resident when B
  // places, and B is still resident when A places its probe phase).
  const uint64_t b = sched.Submit(*fb.plan, 0.85 * ra->timings[0].DurationMs());
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rb = sched.result(b);
  ASSERT_NE(rb, nullptr);
  ASSERT_EQ(ra->state, OnlineQueryState::kDone);
  ASSERT_EQ(rb->state, OnlineQueryState::kDone);

  // The queries' lifetimes genuinely interleave...
  EXPECT_LT(rb->admit_ms, ra->finish_ms);
  EXPECT_GT(rb->finish_ms, ra->finish_ms - ra->timings.back().DurationMs());
  // ...yet least-loaded placement routed every clone onto capacity the
  // other query was not using, so contention changes nothing: each
  // interleaved phase runs for exactly its uncontended makespan, which in
  // turn equals the single-query (offline) phase makespan.
  ASSERT_EQ(ra->timings.size(), offline_a.phases.size());
  for (size_t k = 0; k < ra->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(ra->timings[k].DurationMs(),
                     ra->timings[k].uncontended_ms);
    EXPECT_NEAR(ra->timings[k].DurationMs(), offline_a.phases[k].makespan,
                1e-9);
  }
  ASSERT_EQ(rb->timings.size(), offline_b.phases.size());
  for (size_t k = 0; k < rb->timings.size(); ++k) {
    EXPECT_DOUBLE_EQ(rb->timings[k].DurationMs(),
                     rb->timings[k].uncontended_ms);
    EXPECT_NEAR(rb->timings[k].DurationMs(), offline_b.phases[k].makespan,
                1e-9);
  }
  EXPECT_NEAR(rb->schedule.response_time, offline_b.response_time, 1e-9);
  // A's first phase was placed on a genuinely idle machine, so its
  // footprint matches offline exactly. (Later phases of A are placed
  // while B is resident and legitimately shift to equivalent free sites.)
  auto phase_sites = [](const TreeScheduleResult& r, size_t k) {
    std::set<int> sites;
    for (const auto& p : r.phases[k].schedule.placements()) {
      sites.insert(p.site);
    }
    return sites;
  };
  EXPECT_EQ(phase_sites(ra->schedule, 0), phase_sites(offline_a, 0));
}

TEST(OnlineSchedulerTest, ContendedPhasesStayWithinModelBounds) {
  PlanFixture fa = PipelinedChainFixture(2, 20000);
  PlanFixture fb = PipelinedChainFixture(2, 18000);
  MachineConfig machine;
  machine.num_sites = 4;  // force the queries onto shared sites

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fa.plan, 0.0);
  const OnlineQueryResult* ra = sched.result(a);
  ASSERT_NE(ra, nullptr);
  ASSERT_FALSE(ra->timings.empty());
  const uint64_t b = sched.Submit(*fb.plan, 0.3 * ra->timings[0].DurationMs());
  ASSERT_TRUE(sched.CheckInvariants().ok());
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* rb = sched.result(b);
  ASSERT_NE(rb, nullptr);
  bool contended = false;
  for (const OnlineQueryResult* r : {ra, rb}) {
    ASSERT_EQ(r->state, OnlineQueryState::kDone);
    for (const OnlinePhaseTiming& t : r->timings) {
      EXPECT_GE(t.DurationMs() + 1e-9, t.uncontended_ms);
      EXPECT_LE(t.DurationMs(), t.serial_bound_ms + 1e-9);
      if (t.DurationMs() > t.uncontended_ms + 1e-9) contended = true;
    }
  }
  // On 4 shared sites the overlap must actually bite somewhere.
  EXPECT_TRUE(contended);
}

/// The kTree contended-completion model as a test-local oracle, in its
/// original form: every resident reservation of a touched site (with its
/// remaining work, linear decay between start and finish) and every new
/// clone become synthetic degree-1 operators of one union Schedule,
/// residents first, new clones in placement order, and
/// FluidSimulator::SimulatePhase predicts their completions.
class UnionScheduleOracle {
 public:
  explicit UnionScheduleOracle(const MachineConfig& machine)
      : machine_(machine),
        resident_(static_cast<size_t>(machine.num_sites)) {}

  /// Places one phase at `now`; returns its contended duration.
  double PlacePhase(const Schedule& phase, double now) {
    for (auto& site : resident_) {
      site.erase(std::remove_if(site.begin(), site.end(),
                                [now](const Reservation& c) {
                                  return c.finish <= now + 1e-9;
                                }),
                 site.end());
    }
    const int num_sites = machine_.num_sites;
    std::vector<char> touched(static_cast<size_t>(num_sites), 0);
    for (const ClonePlacement& p : phase.placements()) {
      touched[static_cast<size_t>(p.site)] = 1;
    }
    Schedule union_sched(num_sites, machine_.dims);
    int next_synth_id = 0;
    const auto add_clone = [&](const WorkVector& work, double t_seq,
                               int site) {
      ParallelizedOp synth;
      synth.op_id = next_synth_id++;
      synth.degree = 1;
      synth.clones = {work};
      synth.t_seq = {t_seq};
      synth.t_par = t_seq;
      EXPECT_TRUE(union_sched.Place(synth, 0, site).ok());
    };
    int resident_count = 0;
    for (int s = 0; s < num_sites; ++s) {
      if (!touched[static_cast<size_t>(s)]) continue;
      for (const Reservation& c : resident_[static_cast<size_t>(s)]) {
        const double span = c.finish - c.start;
        const double frac =
            span <= 0 ? 0.0
                      : std::min(1.0, std::max(0.0, (c.finish - now) / span));
        add_clone(c.work * frac, c.t_seq * frac, s);
        ++resident_count;
      }
    }
    for (const ClonePlacement& p : phase.placements()) {
      add_clone(p.work, p.t_seq, p.site);
    }
    const FluidSimulator simulator(usage_, SharingPolicy::kOptimalStretch);
    auto sim = simulator.SimulatePhase(union_sched);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    double barrier = 0.0;
    const auto& placements = phase.placements();
    for (size_t i = 0; i < placements.size(); ++i) {
      const double fin =
          sim->clone_finish[static_cast<size_t>(resident_count) + i];
      barrier = std::max(barrier, fin);
      resident_[static_cast<size_t>(placements[i].site)].push_back(
          Reservation{placements[i].work, placements[i].t_seq, now,
                      now + fin});
    }
    contended_ = contended_ || resident_count > 0;
    return barrier;
  }

  /// True once some phase shared a site with a resident reservation.
  bool contended() const { return contended_; }

 private:
  struct Reservation {
    WorkVector work;
    double t_seq = 0.0;
    double start = 0.0;
    double finish = 0.0;
  };
  MachineConfig machine_;
  OverlapUsageModel usage_{0.5};
  std::vector<std::vector<Reservation>> resident_;
  bool contended_ = false;
};

TEST(OnlineSchedulerTest, ContendedTreePhasesMatchUnionScheduleOracleBitwise) {
  // A seeded Poisson-like arrival sequence of mixed plans on 6 shared
  // sites: every phase's contended duration must equal, bit for bit, the
  // union-schedule computation replayed phase by phase in placement order.
  std::vector<PlanFixture> plans;
  plans.push_back(BushyFourWayFixture());
  plans.push_back(PipelinedChainFixture(3));
  plans.push_back(PipelinedChainFixture(2, 20000));
  plans.push_back(SingleJoinFixture(8000, 3000));
  MachineConfig machine;
  machine.num_sites = 6;

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 64;
  OnlineScheduler sched(CostParams{}, machine, options);
  Rng rng(0x0d1e5eedULL);
  std::vector<uint64_t> ids;
  double arrival = 0.0;
  for (int q = 0; q < 24; ++q) {
    ids.push_back(
        sched.Submit(*plans[rng.Index(plans.size())].plan, arrival));
    const double scale = sched.result(ids.front())->expected_makespan_ms;
    arrival += scale * rng.UniformDouble(0.05, 0.6);
  }
  ASSERT_TRUE(sched.Drain().ok());

  struct PlacedPhase {
    double start_ms;
    double duration_ms;
    const Schedule* schedule;
  };
  std::vector<PlacedPhase> placed;
  for (uint64_t id : ids) {
    const OnlineQueryResult* r = sched.result(id);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->state, OnlineQueryState::kDone);
    ASSERT_EQ(r->timings.size(), r->schedule.phases.size());
    for (size_t k = 0; k < r->timings.size(); ++k) {
      placed.push_back(PlacedPhase{r->timings[k].start_ms,
                                   r->timings[k].DurationMs(),
                                   &r->schedule.phases[k].schedule});
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const PlacedPhase& a, const PlacedPhase& b) {
                     return a.start_ms < b.start_ms;
                   });
  // Distinct placement instants make the replay order unambiguous.
  for (size_t i = 1; i < placed.size(); ++i) {
    ASSERT_LT(placed[i - 1].start_ms, placed[i].start_ms);
  }

  UnionScheduleOracle oracle(machine);
  for (size_t i = 0; i < placed.size(); ++i) {
    const double now = placed[i].start_ms;
    const double barrier = oracle.PlacePhase(*placed[i].schedule, now);
    EXPECT_EQ(placed[i].duration_ms, (now + barrier) - now)
        << "phase placed at " << now;
  }
  EXPECT_TRUE(oracle.contended());
}

TEST(OnlineSchedulerTest, MplOneQueuesInFifoOrder) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  const uint64_t c = sched.Submit(*fx.plan, 2.0);
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  EXPECT_EQ(sched.result(c)->state, OnlineQueryState::kQueued);
  EXPECT_EQ(sched.queue_depth(), 2);
  ASSERT_TRUE(sched.CheckInvariants().ok());
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* ra = sched.result(a);
  const OnlineQueryResult* rb = sched.result(b);
  const OnlineQueryResult* rc = sched.result(c);
  EXPECT_EQ(rb->state, OnlineQueryState::kDone);
  EXPECT_EQ(rc->state, OnlineQueryState::kDone);
  // Strict FIFO: b starts exactly when a finishes, c when b finishes.
  EXPECT_DOUBLE_EQ(rb->admit_ms, ra->finish_ms);
  EXPECT_DOUBLE_EQ(rc->admit_ms, rb->finish_ms);
  EXPECT_DOUBLE_EQ(rb->QueueWaitMs(), ra->finish_ms - 1.0);
  // Each runs alone on an idle machine, so the response times agree.
  EXPECT_DOUBLE_EQ(ra->schedule.response_time, rb->schedule.response_time);
}

TEST(OnlineSchedulerTest, QueueWaitTimeoutExpires) {
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 0.5, /*timeout_ms=*/1.0);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kTimedOut);
  EXPECT_EQ(rb->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(rb->finish_ms, 1.5);
  EXPECT_DOUBLE_EQ(rb->QueueWaitMs(), 1.0);
  EXPECT_EQ(sched.result(a)->state, OnlineQueryState::kDone);
  EXPECT_EQ(metrics.Snapshot().CounterValue("online.timeout"), 1u);
}

TEST(OnlineSchedulerTest, FinishWinsExactDeadlineTie) {
  // The waiter's deadline lands at the *exact* instant the running query
  // finishes. The finish must dispatch first (EventLater breaks the
  // timestamp tie in its favor) and the admission path must pop the
  // now-admissible waiter before expiring deadlines, so the waiter is
  // admitted rather than timed out.
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  ASSERT_TRUE(sched.ResolveQuery(a).ok());
  // a runs alone, so its projected finish is exact; b arrives at 0 with a
  // budget of exactly that instant — deadline == finish, bit for bit.
  const double finish = sched.result(a)->ProjectedFinishMs();
  ASSERT_GT(finish, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 0.0, /*timeout_ms=*/finish);
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  ASSERT_TRUE(sched.Drain().ok());

  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kDone)
      << "deadline expired a waiter whose slot freed at the same instant";
  EXPECT_DOUBLE_EQ(rb->admit_ms, finish);
  EXPECT_DOUBLE_EQ(sched.result(a)->finish_ms, finish);

  // Conservation across the tie: both queries reached exactly one
  // terminal state, nothing double-counted.
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"), 2u);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 2u);
  EXPECT_EQ(snap.CounterValue("online.rejected"), 0u);
  EXPECT_EQ(snap.CounterValue("online.timeout"), 0u);
}

TEST(OnlineSchedulerTest, RejectsWhenQueueFull) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.max_queue_depth = 0;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  const OnlineQueryResult* rb = sched.result(b);
  EXPECT_EQ(rb->state, OnlineQueryState::kRejected);
  EXPECT_EQ(rb->status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(sched.Drain().ok());
}

TEST(OnlineSchedulerTest, MemoryBudgetDefersAdmission) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;

  // Probe the footprint estimate on a throwaway instance.
  MetricsRegistry scratch_metrics;
  OnlineSchedulerOptions probe;
  probe.metrics = &scratch_metrics;
  OnlineScheduler scratch(CostParams{}, machine, probe);
  const uint64_t p = scratch.Submit(*fx.plan);
  const double footprint = scratch.result(p)->memory_estimate_bytes;
  ASSERT_GT(footprint, 0.0);

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.memory_limit_bytes = 1.5 * footprint;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fx.plan, 0.0);
  const uint64_t b = sched.Submit(*fx.plan, 1.0);
  // Plenty of slots, but the second copy does not fit in memory.
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kQueued);
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kDone);
  EXPECT_DOUBLE_EQ(sched.result(b)->admit_ms, sched.result(a)->finish_ms);

  // A single query beyond the whole budget is rejected outright.
  OnlineSchedulerOptions tiny;
  tiny.metrics = &metrics;
  tiny.admission.memory_limit_bytes = 0.5 * footprint;
  OnlineScheduler strict(CostParams{}, machine, tiny);
  const uint64_t c = strict.Submit(*fx.plan);
  EXPECT_EQ(strict.result(c)->state, OnlineQueryState::kRejected);
  EXPECT_EQ(strict.result(c)->status.code(), StatusCode::kUnavailable);
}

TEST(OnlineSchedulerTest, ShortestMakespanFirstOvertakesInQueue) {
  PlanFixture big = PipelinedChainFixture(3, 20000);
  PlanFixture small = SingleJoinFixture(2000, 1500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.policy = AdmissionPolicy::kShortestMakespanFirst;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*big.plan, 0.0);
  const uint64_t c = sched.Submit(*big.plan, 1.0);
  const uint64_t d = sched.Submit(*small.plan, 2.0);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* rc = sched.result(c);
  const OnlineQueryResult* rd = sched.result(d);
  ASSERT_EQ(rc->state, OnlineQueryState::kDone);
  ASSERT_EQ(rd->state, OnlineQueryState::kDone);
  EXPECT_LT(rd->expected_makespan_ms, rc->expected_makespan_ms);
  // The shorter query jumped the earlier, longer one.
  EXPECT_LT(rd->admit_ms, rc->admit_ms);
}

TEST(OnlineSchedulerTest, MetricsConserveQueries) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.admission.max_in_flight = 1;
  options.admission.max_queue_depth = 1;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);                    // admitted
  sched.Submit(*fx.plan, 0.5, /*timeout_ms=*/0.25);  // queued, times out
  sched.Submit(*fx.plan, 0.6);                    // queue full -> rejected
  ASSERT_TRUE(sched.Drain().ok());

  const MetricsSnapshot snap = metrics.Snapshot();
  const uint64_t submitted = snap.CounterValue("online.submitted");
  EXPECT_EQ(submitted, 3u);
  EXPECT_EQ(snap.CounterValue("online.admitted") +
                snap.CounterValue("online.rejected") +
                snap.CounterValue("online.timeout"),
            submitted);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 1u);
  EXPECT_EQ(snap.CounterValue("online.rejected"), 1u);
  EXPECT_EQ(snap.CounterValue("online.timeout"), 1u);
  for (const auto& h : snap.histograms) {
    if (h.name == "online.queue_wait_ms") {
      EXPECT_EQ(h.count, 1u);
    }
    if (h.name == "online.makespan_ms") {
      EXPECT_EQ(h.count, 1u);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.first == "online.queue_depth") {
      EXPECT_DOUBLE_EQ(g.second, 0.0);
    }
    if (g.first == "online.in_flight") {
      EXPECT_DOUBLE_EQ(g.second, 0.0);
    }
  }
}

TEST(OnlineSchedulerTest, ResidualLoadDrainsToExactZero) {
  PlanFixture fx = SingleJoinFixture(8000, 4000);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  sched.Submit(*fx.plan, 0.0);
  double positive = 0.0;
  for (const WorkVector& w : sched.ResidualLoad()) positive += w.Total();
  EXPECT_GT(positive, 0.0);  // phase 0 is resident
  ASSERT_TRUE(sched.Drain().ok());
  for (const WorkVector& w : sched.ResidualLoad()) {
    for (size_t i = 0; i < w.dim(); ++i) {
      EXPECT_EQ(w[i], 0.0);  // exactly zero, not epsilon
    }
  }
  ASSERT_TRUE(sched.CheckInvariants().ok());
}

TEST(OnlineSchedulerTest, RecordsPerQueryTraces) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.collect_traces = true;
  options.trace_clock = ScheduleTrace::CountingClock();
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.Drain().ok());
  const OnlineQueryResult* r = sched.result(id);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(r->trace, nullptr);
  EXPECT_EQ(r->trace->label(), "query-1");
  TraceSpan span;
  for (const char* name :
       {"expand", "cost_model", "admission_estimate", "admission",
        "parallelize", "operator_schedule", "online_place"}) {
    EXPECT_TRUE(r->trace->FindSpan(name, &span)) << name;
  }
  ASSERT_TRUE(r->trace->FindSpan("admission", &span));
  const std::string* decision = span.FindAttr("decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(*decision, "admit");
}

TEST(OnlineSchedulerTest, ResolveUnknownQueryIsNotFound) {
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  OnlineScheduler sched(CostParams{}, machine, options);
  EXPECT_EQ(sched.ResolveQuery(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(sched.result(42), nullptr);
  EXPECT_FALSE(sched.Resolved(42));
}

TEST(OnlineSchedulerTest, ListEngineIdleMatchesOfflineListSchedule) {
  PlanFixture fx = BushyFourWayFixture();
  MachineConfig machine;
  OverlapUsageModel usage(0.5);
  auto offline = ListSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                              machine, usage, ListScheduleOptions{});
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.engine = OnlineEngine::kList;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t id = sched.Submit(*fx.plan);
  ASSERT_TRUE(sched.ResolveQuery(id).ok());
  const OnlineQueryResult* r = sched.result(id);
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(r->state, OnlineQueryState::kDone);
  // One-shot placement: a single whole-query "phase" whose duration is the
  // barrier-free makespan, matching the offline ListSchedule exactly on an
  // idle machine.
  ASSERT_EQ(r->schedule.phases.size(), 1u);
  EXPECT_EQ(r->schedule.response_time, offline->makespan);
  EXPECT_EQ(r->expected_makespan_ms, offline->makespan);
  EXPECT_EQ(r->finish_ms - r->admit_ms, offline->makespan);
  ASSERT_EQ(r->timings.size(), 1u);
  EXPECT_EQ(r->timings[0].DurationMs(), offline->makespan);
}

TEST(OnlineSchedulerTest, ListEngineNeverWorseThanTreeWhenIdle) {
  // tree_guard makes the per-query LISTSCHEDULE result never exceed the
  // TREESCHEDULE response time; on an idle machine the online response
  // times inherit the invariant.
  for (auto make : {+[] { return BushyFourWayFixture(); },
                    +[] { return PipelinedChainFixture(5); }}) {
    PlanFixture fx = make();
    MachineConfig machine;
    double response[2];
    int i = 0;
    for (const OnlineEngine engine :
         {OnlineEngine::kTree, OnlineEngine::kList}) {
      MetricsRegistry metrics;
      OnlineSchedulerOptions options;
      options.metrics = &metrics;
      options.engine = engine;
      OnlineScheduler sched(CostParams{}, machine, options);
      const uint64_t id = sched.Submit(*fx.plan);
      ASSERT_TRUE(sched.ResolveQuery(id).ok());
      ASSERT_TRUE(sched.Drain().ok());
      response[i++] = sched.result(id)->schedule.response_time;
    }
    EXPECT_LE(response[1], response[0]);
  }
}

TEST(OnlineSchedulerTest, EnginesAreRunToRunDeterministic) {
  // The same overlapping workload, submitted twice to a fresh scheduler,
  // must produce byte-identical schedules — for the default engine (the
  // historical TREESCHEDULE path) and for the LISTSCHEDULE engine.
  PlanFixture fa = BushyFourWayFixture();
  PlanFixture fb = PipelinedChainFixture(3);
  MachineConfig machine;
  for (const OnlineEngine engine :
       {OnlineEngine::kTree, OnlineEngine::kList}) {
    auto run = [&] {
      MetricsRegistry metrics;
      OnlineSchedulerOptions options;
      options.metrics = &metrics;
      options.engine = engine;
      OnlineScheduler sched(CostParams{}, machine, options);
      const uint64_t a = sched.Submit(*fa.plan, 0.0);
      const uint64_t b = sched.Submit(*fb.plan, 0.5);
      EXPECT_TRUE(sched.Drain().ok());
      EXPECT_TRUE(sched.CheckInvariants().ok());
      return TreeScheduleToJson(sched.result(a)->schedule) +
             TreeScheduleToJson(sched.result(b)->schedule);
    };
    EXPECT_EQ(run(), run());
  }
}

TEST(OnlineSchedulerTest, ListEngineContendedRunDrainsCleanly) {
  PlanFixture fa = BushyFourWayFixture();
  PlanFixture fb = PipelinedChainFixture(4);
  MachineConfig machine;
  MetricsRegistry metrics;
  OnlineSchedulerOptions options;
  options.metrics = &metrics;
  options.engine = OnlineEngine::kList;
  OnlineScheduler sched(CostParams{}, machine, options);
  const uint64_t a = sched.Submit(*fa.plan, 0.0);
  const uint64_t b = sched.Submit(*fb.plan, 0.25);
  ASSERT_TRUE(sched.CheckInvariants().ok());
  ASSERT_TRUE(sched.Drain().ok());
  EXPECT_EQ(sched.result(a)->state, OnlineQueryState::kDone);
  EXPECT_EQ(sched.result(b)->state, OnlineQueryState::kDone);
  ASSERT_TRUE(sched.CheckInvariants().ok());
  for (const WorkVector& w : sched.ResidualLoad()) {
    for (size_t d = 0; d < w.dim(); ++d) {
      EXPECT_EQ(w[d], 0.0) << "residual load left behind";
    }
  }
}

TEST(OnlineQueryStateTest, Names) {
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kQueued), "queued");
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kDone), "done");
  EXPECT_EQ(OnlineQueryStateToString(OnlineQueryState::kTimedOut),
            "timed-out");
}

}  // namespace
}  // namespace mrs
