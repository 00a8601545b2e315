#ifndef MRS_EXEC_CALIBRATE_H_
#define MRS_EXEC_CALIBRATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/schedule.h"
#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "exec/exec_backend.h"
#include "resource/usage_model.h"

namespace mrs {

/// Replays schedules on the execute backend and holds the measurements
/// against the model — the loop ROADMAP item 5 closes:
///
///  * per clone: measured time (ExecMeter) vs the placement's predicted
///    (T_seq, W), scaled by the executed row fraction;
///  * per site: measured busy time (the sum of its clones' measured
///    times — the replay serializes a clone on one worker thread, so the
///    site's real cost is additive) vs the eq. (2) site time and, across
///    sites, the eq. (3) makespan;
///  * a fitted per-dimension scale x minimizing
///      sum_clones (measured_c - x . (frac_c * W_c))^2
///    (non-negative least squares via ridge-stabilized normal equations).
///    The fitted site prediction is x . (site's fraction-scaled load):
///    the eps = 0 (no intra-clone overlap) instantiation of the usage
///    model with learned unit costs, matching how the serialized replay
///    actually spends time. FittedOptions() packages x as the cost
///    model's CostModelOptions::fitted mode.
///
/// Feed it plans with AddSchedule (one timed schedule = one plan, the
/// LISTSCHEDULE shape) or AddTreePlan (phased; phases replay back to back
/// on one backend so probes find their builds' state), then read
/// FitScale / MeanRelativeError / ReportJson. Use
/// ExecMeter::kDeterministic for byte-stable reports (goldens), the
/// default kThreadCpu for real calibration runs.
class Calibrator {
 public:
  /// `dims` is the work-vector dimensionality of every schedule added.
  Calibrator(int dims, OverlapUsageModel usage, ExecuteOptions exec = {});

  /// Replays one timed schedule as a single-phase plan.
  Status AddSchedule(const std::string& label, const Schedule& schedule,
                     const std::vector<ExecOpSpec>& specs);

  /// Replays a phased plan (fresh backend; phases share state).
  Status AddTreePlan(const std::string& label, const TreeScheduleResult& plan,
                     const std::vector<ExecOpSpec>& specs);

  int num_plans() const { return static_cast<int>(plans_.size()); }
  int num_clone_samples() const { return static_cast<int>(clones_.size()); }

  /// The fitted per-dimension scale (>= 0 componentwise; zero vector when
  /// no samples were recorded).
  std::vector<double> FitScale() const;

  /// FitScale packaged for CostModel's fitted mode.
  CostModelOptions FittedOptions() const;

  /// Mean relative error of the per-site predictions against measured
  /// site busy time, over every (plan, non-idle site): unfitted compares
  /// the eq. (2) model value, fitted the scale-adjusted prediction.
  double MeanRelativeError(bool fitted) const;

  /// The versioned JSON calibration report: configuration, fitted scale,
  /// both error metrics, and measured vs predicted per-site makespan for
  /// every recorded plan. Byte-stable under ExecMeter::kDeterministic; a
  /// non-finite number is written as null (see JsonWriter).
  std::string ReportJson() const;

 private:
  struct SiteSample {
    int site = -1;
    double predicted = 0.0;  // eq. (2) model ms, summed over phases
    double measured = 0.0;   // meter units, summed over phases
    WorkVector scaled_load;  // sum of frac_c * W_c at the site
  };
  struct PlanSample {
    std::string label;
    double predicted_makespan = 0.0;
    double measured_makespan = 0.0;
    std::vector<SiteSample> sites;  // non-idle sites only, ascending
  };
  struct CloneSample {
    WorkVector work;  // frac_c * W_c
    double measured = 0.0;
  };

  /// Replays one schedule into `plan` (aggregating by site) and records
  /// the clone samples.
  Status AccumulatePhase(ExecBackend* backend, const Schedule& schedule,
                         const std::vector<ExecOpSpec>& specs,
                         PlanSample* plan);

  /// Fitted site prediction under `scale`.
  static double FittedSiteTime(const std::vector<double>& scale,
                               const SiteSample& site);

  int dims_;
  OverlapUsageModel usage_;
  ExecuteOptions exec_;
  std::vector<PlanSample> plans_;
  std::vector<CloneSample> clones_;
};

}  // namespace mrs

#endif  // MRS_EXEC_CALIBRATE_H_
