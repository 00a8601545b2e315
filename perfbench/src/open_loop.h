// The serve workload's load generator: one thread driving an open-loop
// Poisson request stream over at most a few TCP connections to a
// SchedServer. Requests are sent when due whatever the server's state
// (pipelined on the least-busy connection), and each latency is timed
// from the request's due time, so a server stall charges every request
// queued behind it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"
#include "json_check.h"

namespace perfbench {

/// Once every request is sent, outstanding ones count as failed when no
/// response has arrived for this long.
inline constexpr double kDrainTimeoutMs = 5000.0;

struct OpenLoopResult {
  /// Per request, in stream order: ms from due time to the response's
  /// arrival; +infinity for a failed request (a failure misses any limit).
  std::vector<double> latency_ms;
  /// Per request: how late the generator sent it (ms past its due time).
  std::vector<double> late_ms;
  /// Per request: what the response carried (default when failed).
  std::vector<ResponseInfo> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure reasons
  double response_bytes = 0.0;      ///< mean payload size of responses
  /// Requests outstanding when each request was sent.
  std::vector<int> outstanding_at_send;
  /// When the last response arrived, ms from the stream's start.
  double last_response_ms = 0.0;

  /// True when the outstanding-request count kept growing over the
  /// stream: the last third's mean is over twice the first third's and
  /// above the connection count (the server fell behind for good).
  bool BacklogGrowing(int connections) const;
  /// The generator's own lateness: 99th percentile of late_ms.
  double GeneratorLateP99() const;
  /// True when the generator lagged its send schedule (median lateness
  /// over kMaxGeneratorMedianLateMs).
  bool GeneratorFellBehind() const;
};

/// Drives `stream` (payloads are `templates[arrival.template_index]`)
/// against 127.0.0.1:`port` over `connections` connections, checking every
/// response with CheckScheduleResponse on kServeSites sites.
OpenLoopResult RunOpenLoop(int port, int connections,
                           const std::vector<Arrival>& stream,
                           const std::vector<std::string>& templates);

/// The limit a max_rps probe must meet: no failures, a p99 (failures
/// counting as misses) within `limit_ms`, and no growing backlog.
bool MeetsLimit(const OpenLoopResult& r, double limit_ms, int connections);

struct RateSearch {
  double max_rps = 0.0;  ///< highest rate that met the limit (0: none)
  double hi = 0.0;       ///< lowest rate that missed it (0: none)
  int probes = 0;
  /// The bracket closed to within `resolution` before probes ran out.
  bool resolved = false;
  std::vector<std::pair<double, bool>> trail;  ///< (rate, met) per probe
};

/// Finds the highest offered rate meeting the limit: steps up (or down)
/// geometrically by `step` from `start_rate` until the limit is bracketed,
/// then bisects geometrically until hi / lo <= `resolution` or
/// `max_probes` probes ran. `start_met` (when >= 0) is the already-known
/// outcome at `start_rate`, which then costs no probe.
RateSearch SearchMaxRate(const std::function<bool(double rate)>& probe,
                         double start_rate, int start_met, double step,
                         double resolution, int max_probes);

/// A generator whose median send is more than this late has fallen behind
/// its schedule: the client, not the server, limits the phase, which is
/// then invalid. Single sends several ms late are not a lag: they come
/// from the host preempting the whole VM (server included), and each
/// such wait is in the latency, timed from the due time.
inline constexpr double kMaxGeneratorMedianLateMs = 2.0;

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
