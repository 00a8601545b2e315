#include "exec/calibrate.h"

#include <algorithm>
#include <cmath>

#include "common/json_writer.h"
#include "common/str_util.h"
#include "exec/execute_backend.h"

namespace mrs {
namespace {

const char* MeterName(ExecMeter meter) {
  return meter == ExecMeter::kThreadCpu ? "thread_cpu" : "deterministic";
}

}  // namespace

Calibrator::Calibrator(int dims, OverlapUsageModel usage, ExecuteOptions exec)
    : dims_(dims), usage_(usage), exec_(std::move(exec)) {}

Status Calibrator::AccumulatePhase(ExecBackend* backend,
                                   const Schedule& schedule,
                                   const std::vector<ExecOpSpec>& specs,
                                   PlanSample* plan) {
  if (schedule.dims() != dims_) {
    return Status::InvalidArgument(
        StrFormat("schedule has d=%d, calibrator expects d=%d",
                  schedule.dims(), dims_));
  }
  MRS_ASSIGN_OR_RETURN(ExecutionResult run, backend->Run(schedule, specs));

  const size_t num_sites = static_cast<size_t>(schedule.num_sites());
  std::vector<double> measured(num_sites, 0.0);
  std::vector<WorkVector> load(num_sites,
                               WorkVector(static_cast<size_t>(dims_)));
  std::vector<bool> used(num_sites, false);
  for (size_t p = 0; p < run.clones.size(); ++p) {
    const CloneExecution& clone = run.clones[p];
    const ClonePlacement& placement = schedule.placements()[p];
    const size_t j = static_cast<size_t>(clone.site);
    measured[j] += clone.measured_ms;
    load[j].AddScaled(placement.work, clone.row_fraction);
    used[j] = true;

    CloneSample sample;
    sample.work = WorkVector(static_cast<size_t>(dims_));
    sample.work.AddScaled(placement.work, clone.row_fraction);
    sample.measured = clone.measured_ms;
    clones_.push_back(std::move(sample));
  }

  double predicted_makespan = 0.0;
  double measured_makespan = 0.0;
  for (size_t j = 0; j < num_sites; ++j) {
    if (!used[j]) continue;
    const double predicted = schedule.SiteFinish(static_cast<int>(j));
    SiteSample* site = nullptr;
    for (SiteSample& s : plan->sites) {
      if (s.site == static_cast<int>(j)) {
        site = &s;
        break;
      }
    }
    if (site == nullptr) {
      plan->sites.push_back(SiteSample{});
      site = &plan->sites.back();
      site->site = static_cast<int>(j);
      site->scaled_load = WorkVector(static_cast<size_t>(dims_));
    }
    site->predicted += predicted;
    site->measured += measured[j];
    site->scaled_load += load[j];
    predicted_makespan = std::max(predicted_makespan, predicted);
    measured_makespan = std::max(measured_makespan, measured[j]);
  }
  plan->predicted_makespan += predicted_makespan;
  plan->measured_makespan += measured_makespan;
  return Status::OK();
}

Status Calibrator::AddSchedule(const std::string& label,
                               const Schedule& schedule,
                               const std::vector<ExecOpSpec>& specs) {
  PlanSample plan;
  plan.label = label;
  ExecuteBackend backend(exec_);
  if (Status s = AccumulatePhase(&backend, schedule, specs, &plan); !s.ok()) {
    return s;
  }
  std::sort(plan.sites.begin(), plan.sites.end(),
            [](const SiteSample& a, const SiteSample& b) {
              return a.site < b.site;
            });
  plans_.push_back(std::move(plan));
  return Status::OK();
}

Status Calibrator::AddTreePlan(const std::string& label,
                               const TreeScheduleResult& tree,
                               const std::vector<ExecOpSpec>& specs) {
  PlanSample plan;
  plan.label = label;
  ExecuteBackend backend(exec_);
  for (const PhaseSchedule& phase : tree.phases) {
    if (Status s = AccumulatePhase(&backend, phase.schedule, specs, &plan);
        !s.ok()) {
      return s;
    }
  }
  std::sort(plan.sites.begin(), plan.sites.end(),
            [](const SiteSample& a, const SiteSample& b) {
              return a.site < b.site;
            });
  plans_.push_back(std::move(plan));
  return Status::OK();
}

std::vector<double> Calibrator::FitScale() const {
  const size_t d = static_cast<size_t>(dims_);
  std::vector<double> scale(d, 0.0);
  if (clones_.empty()) return scale;

  // Normal equations (A^T A + lambda I) x = A^T b over the clone samples.
  std::vector<std::vector<double>> m(d, std::vector<double>(d + 1, 0.0));
  double max_diag = 0.0;
  for (const CloneSample& s : clones_) {
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) m[i][j] += s.work[i] * s.work[j];
      m[i][d] += s.work[i] * s.measured;
    }
  }
  for (size_t i = 0; i < d; ++i) max_diag = std::max(max_diag, m[i][i]);
  // A whisper of ridge keeps all-zero dimensions (a resource no clone
  // touched) from making the system singular; it perturbs well-determined
  // dimensions by ~1e-9 relative.
  const double lambda = 1e-9 * max_diag + 1e-30;
  for (size_t i = 0; i < d; ++i) m[i][i] += lambda;

  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < d; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) pivot = r;
    }
    if (std::fabs(m[pivot][col]) < 1e-30) continue;
    std::swap(m[col], m[pivot]);
    for (size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (size_t c = col; c <= d; ++c) m[r][c] -= f * m[col][c];
    }
  }
  for (size_t i = 0; i < d; ++i) {
    if (std::fabs(m[i][i]) < 1e-30) continue;
    // Negative unit costs are non-physical noise; clamp.
    scale[i] = std::max(0.0, m[i][d] / m[i][i]);
  }
  return scale;
}

CostModelOptions Calibrator::FittedOptions() const {
  CostModelOptions options;
  options.fitted = true;
  options.scale = FitScale();
  return options;
}

double Calibrator::FittedSiteTime(const std::vector<double>& scale,
                                  const SiteSample& site) {
  double t = 0.0;
  const size_t n =
      std::min(scale.size(), site.scaled_load.dim());
  for (size_t i = 0; i < n; ++i) t += scale[i] * site.scaled_load[i];
  return t;
}

double Calibrator::MeanRelativeError(bool fitted) const {
  const std::vector<double> scale = fitted ? FitScale() : std::vector<double>();
  double sum = 0.0;
  int count = 0;
  for (const PlanSample& plan : plans_) {
    for (const SiteSample& site : plan.sites) {
      if (site.measured <= 0.0) continue;
      const double predicted =
          fitted ? FittedSiteTime(scale, site) : site.predicted;
      sum += std::fabs(predicted - site.measured) / site.measured;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

std::string Calibrator::ReportJson() const {
  const std::vector<double> scale = FitScale();
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\n  \"calibration_report_version\": 1,\n  \"meter\": ")
      .String(MeterName(exec_.meter))
      .Raw(",\n  \"data_seed\": ").Uint(exec_.data_seed)
      .Raw(",\n  \"skew\": ").Fixed(exec_.skew, 3)
      .Raw(",\n  \"max_rows_per_op\": ").Int(exec_.max_rows_per_op)
      .Raw(",\n  \"eps\": ").Fixed(usage_.epsilon(), 3)
      .Raw(",\n  \"dims\": ").Int(dims_)
      .Raw(",\n  \"plans\": ").Int(num_plans())
      .Raw(",\n  \"clone_samples\": ").Int(num_clone_samples())
      .Raw(",\n  \"fitted_scale\": [");
  for (size_t i = 0; i < scale.size(); ++i) {
    if (i > 0) w.Raw(", ");
    w.General(scale[i], 9);
  }
  w.Raw("],\n  \"mean_rel_error_unfitted\": ")
      .Fixed6(MeanRelativeError(/*fitted=*/false))
      .Raw(",\n  \"mean_rel_error_fitted\": ")
      .Fixed6(MeanRelativeError(/*fitted=*/true))
      .Raw(",\n  \"per_plan\": [");
  for (size_t k = 0; k < plans_.size(); ++k) {
    const PlanSample& plan = plans_[k];
    double fitted_makespan = 0.0;
    for (const SiteSample& site : plan.sites) {
      fitted_makespan =
          std::max(fitted_makespan, FittedSiteTime(scale, site));
    }
    w.Raw(k > 0 ? ",\n    {" : "\n    {")
        .Raw("\"label\": ").String(plan.label)
        .Raw(", \"predicted_makespan_ms\": ").Fixed6(plan.predicted_makespan)
        .Raw(", \"measured_makespan\": ").Fixed6(plan.measured_makespan)
        .Raw(", \"fitted_makespan\": ").Fixed6(fitted_makespan)
        .Raw(", \"sites\": [");
    for (size_t s = 0; s < plan.sites.size(); ++s) {
      const SiteSample& site = plan.sites[s];
      if (s > 0) w.Raw(", ");
      w.Raw("{\"site\": ").Int(site.site)
          .Raw(", \"predicted_ms\": ").Fixed6(site.predicted)
          .Raw(", \"measured\": ").Fixed6(site.measured)
          .Raw(", \"fitted\": ").Fixed6(FittedSiteTime(scale, site))
          .Raw('}');
    }
    w.Raw("]}");
  }
  w.Raw(plans_.empty() ? "]\n" : "\n  ]\n").Raw("}\n");
  return out;
}

}  // namespace mrs
