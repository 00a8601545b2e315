// Strict JSON checking for the serve workload's responses: RFC 8259
// grammar only — no nan/inf/NaN tokens, no trailing bytes, no leading
// zeros, no raw control characters in strings. The checker validates in
// one pass without building a document, so the load generator can check
// every ~80 KB response without falling behind its send schedule.
#ifndef PERFBENCH_JSON_CHECK_H_
#define PERFBENCH_JSON_CHECK_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

/// True when `text` is exactly one valid JSON value; else the reason.
bool ValidateJson(std::string_view text, std::string* error);

/// What one serve response carried.
struct ResponseInfo {
  double response_ms = 0.0;  ///< the query's (contended) response time
  long long id = -1;         ///< the service's query id; -1 when failed
  size_t clones = 0;
};

/// Checks one SchedService response: strict JSON, "status":"ok", and every
/// phase's schedule on exactly `num_sites` sites with every clone on a
/// site in [0, num_sites). False with the reason in `error` otherwise.
bool CheckScheduleResponse(std::string_view payload, int num_sites,
                           ResponseInfo* info, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_CHECK_H_
