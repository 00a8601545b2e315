#include "core/site_timeline.h"

#include <algorithm>

namespace mrs {

SiteTimeline::SiteTimeline(int dims)
    : load_(static_cast<size_t>(std::max(dims, 0))) {}

void SiteTimeline::AdvanceTo(double t) {
  if (residents_.empty() || t <= now_) {
    now_ = std::max(now_, t);
    return;
  }
  // Every resident progresses toward the common instant F, so by t it has
  // completed the fraction (t - now) / (F - now) of what remained.
  const double factor =
      (projection_.finish - t) / (projection_.finish - now_);
  for (Resident& r : residents_) {
    r.remaining *= factor;
    r.own *= factor;
  }
  now_ = t;
}

void SiteTimeline::Admit(int id, const WorkVector& work, double own) {
  residents_.push_back(Resident{id, work, own});
}

const SiteTimeline::Projection& SiteTimeline::Project() {
  double longest_own = 0.0;
  load_.SetZero();
  for (const Resident& r : residents_) {
    longest_own = std::max(longest_own, r.own);
    load_ += r.remaining;
  }
  const double load_len = load_.Length();
  projection_.finish = now_ + std::max(longest_own, load_len);
  projection_.congestion = load_len >= longest_own;
  projection_.resource = -1;
  for (size_t i = 0; i < load_.dim(); ++i) {
    if (projection_.resource < 0 ||
        load_[i] > load_[static_cast<size_t>(projection_.resource)]) {
      projection_.resource = static_cast<int>(i);
    }
  }
  return projection_;
}

void SiteTimeline::CompleteWave() {
  residents_.clear();
  now_ = projection_.finish;
}

}  // namespace mrs
