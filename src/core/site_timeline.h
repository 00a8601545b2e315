#ifndef MRS_CORE_SITE_TIMELINE_H_
#define MRS_CORE_SITE_TIMELINE_H_

#include <cstddef>
#include <vector>

#include "resource/work_vector.h"

namespace mrs {

/// The resident clone set of one site under the optimal-stretch fluid
/// discipline with staggered arrivals — eq. (2) generalized to clones that
/// join mid-wave. The residents always progress toward one common
/// completion instant
///   F = now + max( max_c own_c , l(sum_c remaining_c) )
/// (eq. (2) on *remaining* work, which is exactly eq. (2) when every clone
/// arrives at once), and rebasing the clock from `now` to t < F leaves each
/// resident the fraction (F - t) / (F - now) of its remaining work vector
/// and stand-alone time.
///
/// This is the one implementation of that rule: Schedule's per-site sweep,
/// LISTSCHEDULE's virtual-time event loop, and the online scheduler's
/// contended phase completions all drive it (FluidSimulator stays the
/// independent oracle the differential tests hold it against). The caller
/// owns the event order: it rebases with AdvanceTo, adds arrivals with
/// Admit, re-derives F with Project, and retires a wave that runs to F
/// with CompleteWave.
class SiteTimeline {
 public:
  /// One resident clone.
  struct Resident {
    int id = -1;  ///< caller's handle (e.g. a placement index)
    WorkVector remaining;
    double own = 0.0;  ///< remaining stand-alone time
  };

  /// The common completion F of the residents and its eq. (3) diagnosis.
  struct Projection {
    double finish = 0.0;
    /// True when l(sum remaining) binds (ties count as congestion), false
    /// when the slowest resident's stand-alone remainder does.
    bool congestion = false;
    /// Arg max dimension of the summed remaining work (lowest index on
    /// ties); -1 before the first projection.
    int resource = -1;
  };

  explicit SiteTimeline(int dims);

  /// Pre-sizes the resident set for `n` clones.
  void Reserve(size_t n) { residents_.reserve(n); }

  double now() const { return now_; }
  bool empty() const { return residents_.empty(); }
  const std::vector<Resident>& residents() const { return residents_; }
  /// The last Project() result; CompleteWave keeps it, so after the final
  /// wave it describes the site's last completion.
  const Projection& projection() const { return projection_; }

  /// Moves the clock to `t`. With residents and now < t (t <= the last
  /// projected F), scales every resident's remaining work and stand-alone
  /// time by (F - t) / (F - now); an idle site (or t <= now) only moves
  /// its clock forward to max(now, t).
  void AdvanceTo(double t);

  /// Adds a clone arriving at now() with `work` and stand-alone time `own`.
  void Admit(int id, const WorkVector& work, double own);

  /// Recomputes F over the current residents (residents summed in
  /// admission order) and records the binding term.
  const Projection& Project();

  /// The wave runs to completion: every resident finishes at the last
  /// projected F, the site empties and its clock moves to F.
  void CompleteWave();

 private:
  double now_ = 0.0;
  Projection projection_;
  std::vector<Resident> residents_;
  WorkVector load_;  ///< Project()'s accumulator (no per-call allocation)
};

}  // namespace mrs

#endif  // MRS_CORE_SITE_TIMELINE_H_
