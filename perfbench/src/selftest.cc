// Self-test of the harness: drives the open-loop generator, the latency
// statistics and the max_rps search against a fake SchedService with a
// fixed, mutex-serialized service time, whose answers are known.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "inputs.h"
#include "open_loop.h"
#include "server/sched_server.h"
#include "server/sched_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Serves one request at a time, each sleeping `service_ms`: capacity
/// 1000 / service_ms requests per second, less the sleep overshoot, which
/// it measures (MeanServiceMs). Every `fail_every`-th request gets an
/// error response.
class FakeService : public mrs::SchedService {
 public:
  FakeService(double service_ms, int fail_every)
      : service_ms_(service_ms), fail_every_(fail_every) {}

  double MeanServiceMs() {
    std::lock_guard<std::mutex> lock(mu_);
    return served_ > 0 ? busy_ms_ / static_cast<double>(served_) : 0.0;
  }

  std::string Handle(const std::string&) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto start = Clock::now();
    std::this_thread::sleep_until(
        start + std::chrono::duration<double, std::milli>(service_ms_));
    busy_ms_ += MsSince(start);
    ++served_;
    if (fail_every_ > 0 && served_ % fail_every_ == 0) {
      return "{\"status\":\"error\",\"code\":\"Internal\",\"message\":\"x\"}";
    }
    return "{\"status\":\"ok\",\"id\":" + std::to_string(served_) +
           ",\"response_ms\":1.5,\"schedule\":{\"response_time\":1.5,"
           "\"phases\":[{\"phase\":0,\"makespan\":1.5,\"schedule\":"
           "{\"num_sites\":" +
           std::to_string(kServeSites) +
           ",\"dims\":3,\"makespan\":1.5,\"sites\":[{\"site\":" +
           std::to_string(served_ % kServeSites) +
           ",\"time\":1.5,\"load\":[1,0.5,0],\"clones\":[{\"op\":0,"
           "\"clone\":0,\"work\":[1,0.5,0],\"t_seq\":1.5}]}]}}]}}";
  }

 private:
  const double service_ms_;
  const int fail_every_;
  std::mutex mu_;
  long long served_ = 0;
  double busy_ms_ = 0.0;
};

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Runs `stream` against a fresh in-process server over `service`.
OpenLoopResult Drive(mrs::SchedService* service,
                     const std::vector<Arrival>& stream) {
  mrs::MetricsRegistry metrics;
  mrs::SchedServerOptions options;
  options.metrics = &metrics;
  mrs::SchedServer server(service, options);
  OpenLoopResult result;
  if (!server.Start("127.0.0.1", 0).ok()) return result;
  result = RunOpenLoop(server.port(), 4, stream, {"fake request"});
  server.Shutdown();
  return result;
}

}  // namespace

int SelfTestMain() {
  // Percentiles and sample counts on a known sample: 1..1000.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const Tail tail = TailOf(samples);
  Expect(Percentile(samples, 50.0) == 500.0, "p50 of 1..1000 is 500");
  Expect(Percentile(samples, 99.0) == 990.0, "p99 of 1..1000 is 990");
  Expect(tail.ok && tail.value == 990.0 && tail.pct == 99.0 && tail.n == 1000,
         "tail of 1..1000: 990 at p99.00 with n=1000 (10 beyond)");
  const Tail small = TailOf(std::vector<double>(10, 1.0));
  Expect(!small.ok, "no tail with only 10 samples");
  Expect(TailOf(std::vector<double>(25, 1.0)).pct == 60.0,
         "25 samples: tail is p60 (10 beyond)");

  // The response checker's JSON grammar is strict.
  std::string why;
  {
    mrs::SchedServiceOptions options;
    options.machine.num_sites = kServeSites;
    mrs::SchedService service(options);
    const std::string response = service.Handle(ServeTemplates(1)[0]);
    ResponseInfo info;
    Expect(CheckScheduleResponse(response, kServeSites, &info, &why) &&
               info.clones > 0 && info.id == 1,
           "a real service response passes the check");
    Expect(!CheckScheduleResponse(response, kServeSites - 1, &info, &why),
           "a schedule on another site count fails the check");
    std::string tampered = response;
    tampered.insert(tampered.find("\"time\":") + 7, "nan,\"t\":");
    Expect(!CheckScheduleResponse(tampered, kServeSites, &info, &why),
           "a nan inside a response fails the check");
    Expect(CheckScheduleResponse(response + "\n", kServeSites, &info, &why),
           "trailing whitespace is allowed");
    Expect(!CheckScheduleResponse(response + "x", kServeSites, &info, &why),
           "trailing bytes fail the check");
    Expect(!CheckScheduleResponse(
               "{\"status\":\"rejected\",\"code\":\"Unavailable\"}",
               kServeSites, &info, &why),
           "a non-ok status fails the check");
  }
  Expect(ValidateJson("{\"a\":[1,-2.5e3,true,null,\"x\\n\"]}", &why),
         "valid JSON accepted");
  for (const char* bad : {"{\"a\":nan}", "{\"a\":inf}", "{\"a\":-inf}",
                          "{\"a\":NaN}", "{\"a\":1} x", "{\"a\":01}",
                          "{\"a\":1,}", "[1 2]", "\"tab\there\""}) {
    Expect(!ValidateJson(bad, &why), std::string("rejected: ") + bad);
  }

  // Failures count as limit misses: 1 in 20 requests errors out at a
  // light load every answered request meets easily.
  {
    FakeService service(1.0, 20);
    const auto stream = PoissonZipfStream(7, 100.0, 2.0);
    std::vector<Arrival> fixed = stream;
    for (Arrival& a : fixed) a.template_index = 0;
    const OpenLoopResult r = Drive(&service, fixed);
    const uint64_t expected = fixed.size() / 20;
    Expect(r.attempted == fixed.size(), "every request attempted");
    Expect(r.failed == expected, "error responses counted as failures (" +
                                     std::to_string(r.failed) + " of " +
                                     std::to_string(r.attempted) + ")");
    std::vector<double> sorted = r.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    Expect(std::isinf(Percentile(sorted, 99.0)),
           "failed requests sit past every latency limit");
    Expect(!MeetsLimit(r, kLatencyLimitMs, 4),
           "a run with failures misses the limit");
    Expect(!r.GeneratorFellBehind(), "generator kept its send schedule");
  }

  // max_rps lands at the fake's capacity, 1 / (measured service time),
  // within the search resolution and the queueing slack the limit needs.
  {
    const double service_ms = 2.0;
    FakeService service(service_ms, 0);
    int probe_index = 0;
    const double probe_s = 2.0;
    const double resolution = 1.10;
    const RateSearch search = SearchMaxRate(
        [&](double rate) {
          std::vector<Arrival> stream =
              PoissonZipfStream(1000 + probe_index++, rate, probe_s);
          for (Arrival& a : stream) a.template_index = 0;
          const OpenLoopResult r = Drive(&service, stream);
          std::vector<double> sorted = r.latency_ms;
          std::sort(sorted.begin(), sorted.end());
          std::printf("     probe %.0f req/s: p99 %.2f ms, failed %llu, "
                      "late p99 %.2f ms, backlog %s\n",
                      rate, Percentile(sorted, 99.0),
                      static_cast<unsigned long long>(r.failed),
                      r.GeneratorLateP99(),
                      r.BacklogGrowing(4) ? "growing" : "flat");
          return MeetsLimit(r, kLatencyLimitMs, 4);
        },
        1000.0 / service_ms / 2.0, -1, 1.25, resolution, 10);
    const double capacity = 1000.0 / service.MeanServiceMs();
    // With Poisson arrivals the p99 wait at utilization rho is roughly
    // service * ln(100) / (2 (1 - rho)), so a limit 25 services long is
    // met up to about 0.9 of capacity: max_rps sits one resolution step
    // (10%) or two below capacity. A probe is finite, though: offered
    // slightly over capacity it ends before its backlog has grown to the
    // limit (its last request waits about (rate / capacity - 1) * probe
    // length, 50 ms at 1.025 x capacity), and a 2 s Poisson stream's
    // request count varies by about 3%. So a rate up to one resolution
    // step over capacity can pass.
    Expect(search.resolved, "search closed its bracket to 10%");
    Expect(search.max_rps >= 0.75 * capacity &&
               search.max_rps <= resolution * capacity,
           "max_rps " + std::to_string(search.max_rps) +
               " within [0.75, 1.10] x capacity " + std::to_string(capacity) +
               " req/s (mean service " +
               std::to_string(service.MeanServiceMs()) + " ms)");
    Expect(search.hi <= capacity * 1.10 * 1.10,
           "the lowest missed rate is within two steps of capacity");
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
