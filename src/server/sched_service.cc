#include "server/sched_service.h"

#include <cmath>
#include <cstdlib>

#include "common/json_writer.h"
#include "common/str_util.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"

namespace mrs {

namespace {

// Fixed text around the schedule in an ok response, the id and five numbers
// included; the schedule's own share comes from TreeScheduleJsonSizeHint.
constexpr size_t kEnvelopeBytes = 256;

std::string ErrorResponse(const char* status, const Status& why) {
  std::string out;
  JsonWriter w(&out);
  w.Raw("{\"status\":\"")
      .Raw(status)
      .Raw("\",\"code\":\"")
      .Raw(StatusCodeToString(why.code()))
      .Raw("\",\"message\":")
      .String(why.message())
      .Raw('}');
  return out;
}

struct ParsedRequest {
  double arrival_ms = -1.0;
  double timeout_ms = -1.0;
  std::string plan_text;
};

Result<ParsedRequest> ParseRequest(const std::string& request) {
  ParsedRequest out;
  size_t pos = 0;
  while (pos < request.size() && request[pos] == '@') {
    size_t eol = request.find('\n', pos);
    if (eol == std::string::npos) eol = request.size();
    const std::string line = request.substr(pos, eol - pos);
    double* value = nullptr;
    if (line.rfind("@arrival", 0) == 0) {
      value = &out.arrival_ms;
    } else if (line.rfind("@timeout", 0) == 0) {
      value = &out.timeout_ms;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown directive: %s", line.c_str()));
    }
    char* end = nullptr;
    const char* arg = line.c_str() + 8;
    *value = std::strtod(arg, &end);
    const bool converted = end != nullptr && end != arg;
    while (end != nullptr && *end == ' ') ++end;
    if (!converted || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("malformed directive: %s", line.c_str()));
    }
    // The arrival moves the shared virtual clock, so inf/nan/negative
    // values (strtod also yields inf for an overflow such as 1e400) would
    // corrupt every later client's times.
    if (!std::isfinite(*value) || *value < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "directive value must be finite and >= 0: %s", line.c_str()));
    }
    pos = eol < request.size() ? eol + 1 : eol;
  }
  out.plan_text = request.substr(pos);
  return out;
}

}  // namespace

SchedService::SchedService(const SchedServiceOptions& options)
    : scheduler_(options.params, options.machine, options.online) {}

std::string SchedService::Handle(const std::string& request) {
  auto parsed_request = ParseRequest(request);
  if (!parsed_request.ok()) {
    return ErrorResponse("error", parsed_request.status());
  }
  auto parsed_plan = ParsePlanText(parsed_request->plan_text);
  if (!parsed_plan.ok()) {
    return ErrorResponse("error", parsed_plan.status());
  }
  if (parsed_plan->plan == nullptr) {
    return ErrorResponse(
        "error",
        Status::InvalidArgument(
            "request carries a graph stanza, not a plan; run the join-order "
            "optimizer first (sched_cli --optimize)"));
  }

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = scheduler_.Submit(*parsed_plan->plan,
                                        parsed_request->arrival_ms,
                                        parsed_request->timeout_ms);
  const Status resolved = scheduler_.ResolveQuery(id);
  if (!resolved.ok()) {
    return ErrorResponse("error", resolved);
  }
  const OnlineQueryResult* result = scheduler_.result(id);
  if (result == nullptr) {
    return ErrorResponse("error", Status::Internal("query result vanished"));
  }
  switch (result->state) {
    case OnlineQueryState::kRejected:
      return ErrorResponse("rejected", result->status);
    case OnlineQueryState::kTimedOut:
      return ErrorResponse("timeout", result->status);
    case OnlineQueryState::kQueued:
      return ErrorResponse("error",
                           Status::Internal("query resolved while queued"));
    case OnlineQueryState::kRunning:
    case OnlineQueryState::kDone:
      break;
  }
  // The envelope and the schedule go into one buffer sized from the
  // schedule's site and clone counts: no intermediate strings, no copy.
  std::string out;
  out.reserve(kEnvelopeBytes + TreeScheduleJsonSizeHint(result->schedule));
  JsonWriter w(&out);
  w.Raw("{\"status\":\"ok\",\"id\":")
      .Uint(result->id)
      .Raw(",\"arrival_ms\":")
      .Fixed6(result->arrival_ms)
      .Raw(",\"admit_ms\":")
      .Fixed6(result->admit_ms)
      .Raw(",\"queue_wait_ms\":")
      .Fixed6(result->QueueWaitMs())
      .Raw(",\"finish_ms\":")
      .Fixed6(result->ProjectedFinishMs())
      .Raw(",\"response_ms\":")
      .Fixed6(result->schedule.response_time)
      .Raw(",\"schedule\":");
  const bool schedule_finite = AppendTreeScheduleJson(&out, result->schedule);
  w.Raw('}');
  if (!w.ok() || !schedule_finite) {
    return ErrorResponse(
        "error", Status::Internal("schedule response holds a non-finite number"));
  }
  return out;
}

}  // namespace mrs
