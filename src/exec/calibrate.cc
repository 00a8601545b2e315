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
  std::string out = "{\n";
  out += "  \"calibration_report_version\": 1,\n";
  out += StrFormat("  \"meter\": \"%s\",\n", MeterName(exec_.meter));
  out += StrFormat("  \"data_seed\": %llu,\n",
                   static_cast<unsigned long long>(exec_.data_seed));
  out += StrFormat("  \"skew\": %.3f,\n", exec_.skew);
  out += StrFormat("  \"max_rows_per_op\": %lld,\n",
                   static_cast<long long>(exec_.max_rows_per_op));
  out += StrFormat("  \"eps\": %.3f,\n", usage_.epsilon());
  out += StrFormat("  \"dims\": %d,\n", dims_);
  out += StrFormat("  \"plans\": %d,\n", num_plans());
  out += StrFormat("  \"clone_samples\": %d,\n", num_clone_samples());
  out += "  \"fitted_scale\": [";
  for (size_t i = 0; i < scale.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.9g", scale[i]);
  }
  out += "],\n";
  out += StrFormat("  \"mean_rel_error_unfitted\": %.6f,\n",
                   MeanRelativeError(/*fitted=*/false));
  out += StrFormat("  \"mean_rel_error_fitted\": %.6f,\n",
                   MeanRelativeError(/*fitted=*/true));
  out += "  \"per_plan\": [";
  for (size_t k = 0; k < plans_.size(); ++k) {
    const PlanSample& plan = plans_[k];
    double fitted_makespan = 0.0;
    for (const SiteSample& site : plan.sites) {
      fitted_makespan =
          std::max(fitted_makespan, FittedSiteTime(scale, site));
    }
    out += k > 0 ? ",\n    {" : "\n    {";
    out += "\"label\": ";
    JsonWriter(&out).String(plan.label).Raw(", ");
    out += StrFormat("\"predicted_makespan_ms\": %.6f, ",
                     plan.predicted_makespan);
    out += StrFormat("\"measured_makespan\": %.6f, ", plan.measured_makespan);
    out += StrFormat("\"fitted_makespan\": %.6f, \"sites\": [",
                     fitted_makespan);
    for (size_t s = 0; s < plan.sites.size(); ++s) {
      const SiteSample& site = plan.sites[s];
      if (s > 0) out += ", ";
      out += StrFormat(
          "{\"site\": %d, \"predicted_ms\": %.6f, \"measured\": %.6f, "
          "\"fitted\": %.6f}",
          site.site, site.predicted, site.measured,
          FittedSiteTime(scale, site));
    }
    out += "]}";
  }
  out += plans_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mrs
