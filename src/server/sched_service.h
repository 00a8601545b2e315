#ifndef MRS_SERVER_SCHED_SERVICE_H_
#define MRS_SERVER_SCHED_SERVICE_H_

#include <mutex>
#include <string>

#include "cost/cost_params.h"
#include "online/online_scheduler.h"
#include "resource/machine.h"

namespace mrs {

struct SchedServiceOptions {
  CostParams params;
  MachineConfig machine;
  OnlineSchedulerOptions online;
};

/// The request/response core of the scheduling server, transport-free so
/// in-process tests and the socket front-end share one code path.
///
/// Request payload: optional leading directive lines, then plan text
/// (io/plan_text.h):
///
///   @arrival 120.5      # virtual arrival time in ms (default: now)
///   @timeout 50         # queue-wait budget in ms (default: admission's)
///   relation customer 30000
///   ...
///
/// A directive value must be a finite number >= 0; inf, nan, an overflow
/// such as 1e400 or a negative value is an InvalidArgument error and
/// leaves the shared virtual clock untouched.
///
/// Response payload: one JSON object.
///   admitted:  {"status":"ok","id":N,"arrival_ms":...,"admit_ms":...,
///               "queue_wait_ms":...,"finish_ms":...,"response_ms":...,
///               "schedule":<TreeScheduleToJson>}
///   rejected:  {"status":"rejected","code":"Unavailable","message":...}
///   timed out: {"status":"timeout","code":"DeadlineExceeded","message":...}
///   bad input: {"status":"error","code":...,"message":...}
///   non-finite number in the result: {"status":"error","code":"Internal",
///               "message":...} (never a nan/inf token)
///
/// Handle() serializes requests on an internal mutex (the scheduler is
/// single-threaded by design), so concurrent connections are safe; on an
/// otherwise idle system the embedded "schedule" JSON is byte-identical
/// to the offline TreeScheduleToJson output for the same plan.
///
/// Response path: the ok envelope and the schedule are appended into one
/// buffer reserved from the schedule's site and clone counts
/// (AppendTreeScheduleJson, numbers via std::to_chars), with no
/// intermediate strings and no copy. Serializing the ~80 KB response of a
/// 32-site plan takes about 0.45 ms of a ~1.6 ms Handle; OPERATORSCHEDULE
/// placement (~1.0 ms) is now the largest share. Both run under the
/// mutex: serializing after unlock would need the result record to
/// outlive later requests.
class SchedService {
 public:
  explicit SchedService(const SchedServiceOptions& options = {});
  virtual ~SchedService() = default;

  /// Processes one request payload into one response payload. Never
  /// throws; malformed input yields an "error" response. Virtual so the
  /// reactor-vs-threaded differential tests can substitute deterministic
  /// or adversarial (slow, oversized) handlers for the real scheduler.
  virtual std::string Handle(const std::string& request);

  /// The underlying scheduler. Callers must not touch it while another
  /// thread may be inside Handle (test/diagnostic aid).
  OnlineScheduler* scheduler() { return &scheduler_; }

 private:
  std::mutex mu_;
  OnlineScheduler scheduler_;
};

}  // namespace mrs

#endif  // MRS_SERVER_SCHED_SERVICE_H_
