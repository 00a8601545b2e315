#include "exec/fluid_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/str_util.h"

namespace mrs {

namespace {

constexpr double kTimeTol = 1e-9;

struct ActiveClone {
  int placement_index;
  WorkVector remaining;     // remaining work per resource
  double remaining_own;     // remaining stand-alone time
};

/// A clone that joins its site mid-simulation.
struct TimedClone {
  double start = 0.0;
  ActiveClone clone;
};

/// Optimal-stretch discipline with staggered arrivals: between events the
/// resident set progresses toward the common completion
/// t_fin = now + max(max own, l(sum remaining)) at rate remaining /
/// (t_fin - now) — no resource exceeds unit capacity (the second max term)
/// and no clone runs faster than stand-alone (the first). An arrival before
/// t_fin rebases every resident's remaining work by the complementary
/// fraction and the common completion is recomputed over the enlarged set.
/// With all starts at 0 this is a single event whose t_fin is exactly the
/// eq. (2) site time.
void SimulateSiteOptimalTimed(std::vector<TimedClone>* arrivals,
                              SiteUtilization* util,
                              std::vector<double>* finish_times) {
  double now = 0.0;
  WorkVector load(util->busy.dim());  // hoisted per-event accumulator
  std::vector<ActiveClone> active;
  active.reserve(arrivals->size());
  size_t i = 0;
  const size_t n = arrivals->size();
  while (i < n || !active.empty()) {
    if (active.empty()) {
      now = std::max(now, (*arrivals)[i].start);
      while (i < n && (*arrivals)[i].start <= now) {
        active.push_back(std::move((*arrivals)[i].clone));
        ++i;
      }
    }
    double longest_own = 0.0;
    load.SetZero();
    for (const auto& c : active) {
      longest_own = std::max(longest_own, c.remaining_own);
      load += c.remaining;
    }
    const double t_fin = now + std::max(longest_own, load.Length());
    const double next_arrival =
        i < n ? (*arrivals)[i].start
              : std::numeric_limits<double>::infinity();
    if (next_arrival < t_fin) {
      // Residents complete the fraction (next_arrival - now) /
      // (t_fin - now) of their remaining work before the newcomer joins.
      const double factor = (t_fin - next_arrival) / (t_fin - now);
      for (auto& c : active) {
        util->busy.AddScaled(c.remaining, 1.0 - factor);
        c.remaining *= factor;
        c.remaining_own *= factor;
      }
      now = next_arrival;
      while (i < n && (*arrivals)[i].start <= now) {
        active.push_back(std::move((*arrivals)[i].clone));
        ++i;
      }
    } else {
      for (const auto& c : active) {
        util->busy += c.remaining;
        (*finish_times)[static_cast<size_t>(c.placement_index)] = t_fin;
      }
      active.clear();
      now = t_fin;
    }
  }
  util->finish = now;
}

/// Naive uniform time slicing with staggered arrivals: every active clone
/// progresses at the same speed factor sigma = min(1, 1/rho) where rho is
/// the peak resource oversubscription of the active set's stand-alone
/// rates (r_c[i] = W_c[i] / T_seq_c, constant over a clone's life by A3).
/// The event horizon is the earlier of the next completion (min own /
/// sigma) and the next arrival; each completion releases capacity and
/// sigma is recomputed. With all starts at 0 the arrival term is infinite
/// and the horizon is min own / sigma.
void SimulateSiteUniformTimed(std::vector<TimedClone>* arrivals,
                              SiteUtilization* util,
                              std::vector<double>* finish_times) {
  double now = 0.0;
  WorkVector rate_sum(util->busy.dim());  // hoisted per-event accumulator
  std::vector<ActiveClone> active;
  active.reserve(arrivals->size());
  size_t i = 0;
  const size_t n = arrivals->size();
  while (i < n || !active.empty()) {
    if (active.empty()) {
      now = std::max(now, (*arrivals)[i].start);
      while (i < n && (*arrivals)[i].start <= now) {
        active.push_back(std::move((*arrivals)[i].clone));
        ++i;
      }
    }
    rate_sum.SetZero();
    for (const auto& c : active) {
      if (c.remaining_own <= kTimeTol) continue;
      // Division, not reciprocal-multiply: keeps the event series (and the
      // golden schedules derived from it) bit-identical.
      for (size_t r = 0; r < rate_sum.dim(); ++r) {
        rate_sum[r] += c.remaining[r] / c.remaining_own;
      }
    }
    const double rho = rate_sum.Length();
    const double sigma = rho > 1.0 ? 1.0 / rho : 1.0;

    double min_own = std::numeric_limits<double>::infinity();
    for (const auto& c : active) {
      min_own = std::min(min_own, c.remaining_own);
    }
    const double next_arrival =
        i < n ? (*arrivals)[i].start
              : std::numeric_limits<double>::infinity();
    const double dt = std::min(min_own / sigma, next_arrival - now);

    // Advance all clones by dt wall time (sigma*dt own time). The
    // consumed = remaining * fraction temporary is fused into two in-place
    // scaled adds: busy[i] += r[i]*f and r[i] += r[i]*(-f) are
    // bit-identical to the add/subtract of the materialized temporary
    // (IEEE sign flip is exact).
    for (auto& c : active) {
      const double own_progress = sigma * dt;
      const double fraction =
          c.remaining_own > 0 ? own_progress / c.remaining_own : 1.0;
      const double f = std::min(fraction, 1.0);
      util->busy.AddScaled(c.remaining, f);
      c.remaining.AddScaled(c.remaining, -f);
      c.remaining_own -= own_progress;
    }
    now += dt;
    for (auto it = active.begin(); it != active.end();) {
      if (it->remaining_own <= kTimeTol) {
        (*finish_times)[static_cast<size_t>(it->placement_index)] = now;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    while (i < n && (*arrivals)[i].start <= now) {
      active.push_back(std::move((*arrivals)[i].clone));
      ++i;
    }
  }
  util->finish = now;
}

/// Shared body of SimulatePhase / SimulateTimed: per site, the clones in
/// arrival order (start time, placement order within equal starts; every
/// start pinned to 0 unless `honor_starts`) through the policy's loop.
Result<PhaseSimulation> SimulateArrivals(const Schedule& schedule,
                                         SharingPolicy policy,
                                         bool honor_starts) {
  PhaseSimulation sim;
  sim.sites.assign(static_cast<size_t>(schedule.num_sites()),
                   SiteUtilization{
                       WorkVector(static_cast<size_t>(schedule.dims())), 0.0});
  sim.clone_finish.assign(schedule.placements().size(), 0.0);

  for (int j = 0; j < schedule.num_sites(); ++j) {
    std::vector<TimedClone> arrivals;
    arrivals.reserve(schedule.SitePlacements(j).size());
    for (int p : schedule.SitePlacements(j)) {
      const ClonePlacement& placement =
          schedule.placements()[static_cast<size_t>(p)];
      const double start = honor_starts ? placement.start : 0.0;
      if (start < 0.0) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d starts at %g < 0", placement.op_id,
                      start));
      }
      if (!SequentialTimeWithinBounds(placement.work, placement.t_seq,
                                      1e-6)) {
        return Status::InvalidArgument(
            StrFormat("clone of op%d violates max <= T_seq <= sum",
                      placement.op_id));
      }
      arrivals.push_back(
          TimedClone{start, ActiveClone{p, placement.work, placement.t_seq}});
    }
    if (honor_starts) {
      std::stable_sort(arrivals.begin(), arrivals.end(),
                       [](const TimedClone& a, const TimedClone& b) {
                         return a.start < b.start;
                       });
    }
    SiteUtilization* util = &sim.sites[static_cast<size_t>(j)];
    if (policy == SharingPolicy::kOptimalStretch) {
      SimulateSiteOptimalTimed(&arrivals, util, &sim.clone_finish);
    } else {
      SimulateSiteUniformTimed(&arrivals, util, &sim.clone_finish);
    }
    sim.makespan = std::max(sim.makespan, util->finish);
  }
  return sim;
}

}  // namespace

Result<PhaseSimulation> FluidSimulator::SimulatePhase(
    const Schedule& schedule) const {
  return SimulateArrivals(schedule, policy_, /*honor_starts=*/false);
}

Result<PhaseSimulation> FluidSimulator::SimulateTimed(
    const Schedule& schedule) const {
  return SimulateArrivals(schedule, policy_, /*honor_starts=*/true);
}

Result<SimulationResult> FluidSimulator::Simulate(
    const TreeScheduleResult& plan) const {
  if (plan.phases.empty()) {
    // A zero-phase plan carries no machine description at all (no site
    // count, no resource dimensionality), so any result we fabricated
    // here would have made-up dimensions.
    return Status::InvalidArgument("plan has no phases to simulate");
  }
  SimulationResult result;
  int dims = 1;
  int num_sites = 1;
  for (const auto& phase : plan.phases) {
    auto sim = SimulatePhase(phase.schedule);
    if (!sim.ok()) return sim.status();
    dims = phase.schedule.dims();
    num_sites = phase.schedule.num_sites();
    result.response_time += sim->makespan;
    result.phases.push_back(std::move(sim).value());
  }
  // Machine-wide utilization.
  WorkVector busy(static_cast<size_t>(dims));
  for (const auto& phase : result.phases) {
    for (const auto& site : phase.sites) busy += site.busy;
  }
  result.average_utilization = WorkVector(static_cast<size_t>(dims));
  if (result.response_time > 0.0) {
    result.average_utilization =
        busy * (1.0 / (static_cast<double>(num_sites) * result.response_time));
  }
  return result;
}

std::string SimulationResult::ToString() const {
  std::string out =
      StrFormat("Simulation(response=%.2fms, %zu phases, util=%s)\n",
                response_time, phases.size(),
                average_utilization.ToString().c_str());
  for (size_t k = 0; k < phases.size(); ++k) {
    out += StrFormat("  phase %zu: makespan=%.2fms\n", k, phases[k].makespan);
  }
  return out;
}

}  // namespace mrs
