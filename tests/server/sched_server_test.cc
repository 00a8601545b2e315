#include "server/sched_server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tree_schedule.h"
#include "io/plan_text.h"
#include "io/schedule_export.h"
#include "server/sched_client.h"
#include "server/sched_service.h"
#include "json_check.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::IsValidJson;
using testing_util::MakeFixture;
using testing_util::PlanFixture;

PlanFixture SingleJoinFixture(int64_t outer, int64_t inner) {
  return MakeFixture({outer, inner}, [](PlanTree* plan) {
    plan->AddJoin(plan->AddLeaf(0).value(), plan->AddLeaf(1).value()).value();
  });
}

std::string PlanTextOf(const PlanFixture& fx) {
  auto text = WritePlanText(*fx.catalog, *fx.plan);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return std::move(text).value();
}

/// The "schedule" object embedded in an ok response.
std::string ScheduleJsonOf(const std::string& response) {
  const std::string key = "\"schedule\":";
  const size_t pos = response.find(key);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  // The schedule object is the last field: strip the enclosing '}'.
  return response.substr(pos + key.size(),
                         response.size() - pos - key.size() - 1);
}

bool HasStatus(const std::string& response, const std::string& status) {
  return response.find("\"status\":\"" + status + "\"") != std::string::npos;
}

TEST(SchedServerTest, ConcurrentClientsGetOfflineByteIdenticalSchedules) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  const std::string request = PlanTextOf(fx);

  OverlapUsageModel usage(0.5);
  auto offline = TreeSchedule(fx.op_tree, fx.task_tree, fx.costs, CostParams{},
                              MachineConfig{}, usage);
  ASSERT_TRUE(offline.ok());
  const std::string offline_json = TreeScheduleToJson(offline.value());

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  // One query at a time: each admission happens on a drained machine, so
  // every response must embed the exact offline schedule.
  options.online.admission.max_in_flight = 1;
  SchedService service(options);
  SchedServer server(&service);

  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> client_threads;
  std::vector<std::thread> server_threads;
  std::vector<std::unique_ptr<Connection>> server_ends;
  for (int i = 0; i < kClients; ++i) {
    auto [client_end, server_end] = CreateInProcessPipe();
    server_ends.push_back(std::move(server_end));
    server_threads.emplace_back(
        [&server, conn = server_ends.back().get()] {
          server.ServeConnection(conn);
        });
    client_threads.emplace_back(
        [&request, &responses, i, conn = std::move(client_end)]() mutable {
          SchedClient client(std::move(conn));
          auto response = client.Call(request);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(response).value();
          client.Close();
        });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : server_threads) t.join();
  server.Shutdown();

  for (const std::string& response : responses) {
    ASSERT_TRUE(HasStatus(response, "ok")) << response;
    EXPECT_EQ(ScheduleJsonOf(response), offline_json);
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"), 4u);
  EXPECT_EQ(snap.CounterValue("online.admitted"), 4u);
}

TEST(SchedServerTest, UnderLoadEveryRequestIsAccountedFor) {
  PlanFixture fx = SingleJoinFixture(20000, 10000);
  const std::string plan_text = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  options.online.admission.max_in_flight = 1;
  options.online.admission.max_queue_depth = 2;
  SchedService service(options);
  SchedServer server(&service);

  // A tight timeout forces queue expiries; a depth of 2 forces rejects.
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> client_threads;
  std::vector<std::thread> server_threads;
  std::vector<std::unique_ptr<Connection>> server_ends;
  for (int i = 0; i < kClients; ++i) {
    auto [client_end, server_end] = CreateInProcessPipe();
    server_ends.push_back(std::move(server_end));
    server_threads.emplace_back(
        [&server, conn = server_ends.back().get()] {
          server.ServeConnection(conn);
        });
    const std::string request = "@timeout 0.5\n" + plan_text;
    client_threads.emplace_back(
        [request, &responses, i, conn = std::move(client_end)]() mutable {
          SchedClient client(std::move(conn));
          auto response = client.Call(request);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          responses[i] = std::move(response).value();
          client.Close();
        });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : server_threads) t.join();
  server.Shutdown();
  ASSERT_TRUE(service.scheduler()->Drain().ok());

  int ok = 0, rejected = 0, timeout = 0;
  for (const std::string& response : responses) {
    if (HasStatus(response, "ok")) ++ok;
    if (HasStatus(response, "rejected")) ++rejected;
    if (HasStatus(response, "timeout")) ++timeout;
  }
  EXPECT_EQ(ok + rejected + timeout, kClients);

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("online.submitted"),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(snap.CounterValue("online.admitted") +
                snap.CounterValue("online.rejected") +
                snap.CounterValue("online.timeout"),
            static_cast<uint64_t>(kClients));
  ASSERT_TRUE(service.scheduler()->CheckInvariants().ok());
}

TEST(SchedServerTest, MalformedRequestsYieldErrorResponses) {
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);

  std::string response = service.Handle("this is not a plan");
  EXPECT_TRUE(HasStatus(response, "error")) << response;
  EXPECT_NE(response.find("\"code\":\"InvalidArgument\""), std::string::npos);

  response = service.Handle("@arrival nonsense\nrelation r 10\nplan (scan r)");
  EXPECT_TRUE(HasStatus(response, "error")) << response;

  response = service.Handle("@frobnicate 1\nrelation r 10\nplan (scan r)");
  EXPECT_TRUE(HasStatus(response, "error")) << response;
}

TEST(SchedServerTest, ArrivalDirectiveSetsVirtualTime) {
  PlanFixture fx = SingleJoinFixture(4000, 2000);
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  const std::string response =
      service.Handle("@arrival 123.5\n" + PlanTextOf(fx));
  ASSERT_TRUE(HasStatus(response, "ok")) << response;
  EXPECT_NE(response.find("\"arrival_ms\":123.500000"), std::string::npos)
      << response;
}

/// The number following `"key":` in a response, parsed with strtod.
double NumberField(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = response.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing from " << response;
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(response.c_str() + pos + needle.size(), nullptr);
}

TEST(SchedServerTest, NonFiniteOrNegativeDirectivesAreRejected) {
  PlanFixture fx = SingleJoinFixture(4000, 2000);
  const std::string plan_text = PlanTextOf(fx);
  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  for (const char* directive : {"@arrival", "@timeout"}) {
    for (const char* value : {"inf", "-inf", "nan", "1e400", "-1"}) {
      const std::string bad =
          std::string(directive) + " " + value + "\n" + plan_text;
      std::string response = service.Handle(bad);
      EXPECT_TRUE(HasStatus(response, "error")) << bad << "\n" << response;
      EXPECT_NE(response.find("\"code\":\"InvalidArgument\""),
                std::string::npos)
          << response;
      EXPECT_TRUE(IsValidJson(response)) << response;

      // The rejected directive must not have moved the shared virtual
      // clock: a valid request still reports finite times.
      response = service.Handle(plan_text);
      ASSERT_TRUE(HasStatus(response, "ok")) << response;
      EXPECT_TRUE(IsValidJson(response));
      EXPECT_TRUE(std::isfinite(NumberField(response, "arrival_ms")))
          << bad << "\n" << response;
      EXPECT_TRUE(std::isfinite(NumberField(response, "queue_wait_ms")))
          << bad << "\n" << response;
    }
  }
  EXPECT_TRUE(std::isfinite(service.scheduler()->now()));
  // Zero is a valid arrival and timeout.
  const std::string zero = service.Handle("@arrival 0\n@timeout 0\n" +
                                          plan_text);
  EXPECT_FALSE(HasStatus(zero, "error")) << zero;
}

TEST(SchedServerTest, ShutdownDrainsInFlightRequests) {
  PlanFixture fx = SingleJoinFixture(6000, 3000);
  const std::string request = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  auto server = std::make_unique<SchedServer>(&service);

  auto [client_end, server_end] = CreateInProcessPipe();
  std::thread server_thread(
      [srv = server.get(), conn = server_end.get()] {
        srv->ServeConnection(conn);
      });

  SchedClient client(std::move(client_end));
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "ok"));

  // Shutdown with the connection still open: the serve loop must wind
  // down without the client hanging up first.
  std::thread shutdown_thread([srv = server.get()] { srv->Shutdown(); });
  server_thread.join();
  shutdown_thread.join();

  // The caller of ServeConnection owns the endpoint; close it like the
  // accept loop would, then a late call fails cleanly instead of hanging.
  server_end->Close();
  auto late = client.Call(request);
  EXPECT_FALSE(late.ok());
  server.reset();
}

TEST(SchedServerTest, TcpLoopbackRoundTrip) {
  PlanFixture fx = SingleJoinFixture(5000, 2500);
  const std::string request = PlanTextOf(fx);

  SchedServiceOptions options;
  MetricsRegistry metrics;
  options.online.metrics = &metrics;
  SchedService service(options);
  SchedServer server(&service);
  Status started = server.Start("127.0.0.1", 0);
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_GT(server.port(), 0);

  auto client = SchedClient::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.value().Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(HasStatus(response.value(), "ok")) << response.value();
  client.value().Close();
  server.Shutdown();
}

}  // namespace
}  // namespace mrs
