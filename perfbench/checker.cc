#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_map>
#include <utility>

#include "src/geo/dijkstra.h"

namespace perfbench {

namespace {

constexpr size_t kMaxProblems = 8;
// Sums over thousands of orders are accumulated in a different order here
// than in the program, so totals are compared to a relative 1e-9.
constexpr double kRelTol = 1e-9;
// Per-record times are differences of route sums; allow rounding only.
constexpr double kAbsTol = 1e-6;

bool Close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a),
                                                 std::fabs(b)});
}

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

void DayCheck::Fail(int64_t order, std::string problem) {
  failed.insert(order);
  if (problems.size() < kMaxProblems) {
    problems.push_back("order " + std::to_string(order) + ": " +
                       std::move(problem));
  }
}

void DayCheck::FailAggregate(std::string problem) {
  aggregates_ok = false;
  if (problems.size() < kMaxProblems) problems.push_back(std::move(problem));
}

DayCheck CheckDay(const watter::Scenario& scenario,
                  const watter::MetricsReport& report,
                  const std::vector<watter::ServedRecord>& records,
                  const watter::MetricsOptions& metrics) {
  DayCheck check;
  check.attempted = static_cast<int64_t>(scenario.orders.size());
  std::unordered_map<int64_t, const watter::Order*> by_id;
  for (const watter::Order& order : scenario.orders) {
    if (!by_id.emplace(order.id, &order).second) {
      check.FailAggregate("order id " + std::to_string(order.id) +
                          " generated twice");
    }
  }

  const double alpha = metrics.weights.alpha;
  const double beta = metrics.weights.beta;
  const int max_group = scenario.options.max_capacity;
  std::unordered_map<int64_t, int> served_times;
  double extra_sum = 0.0;
  for (const watter::ServedRecord& r : records) {
    auto it = by_id.find(r.id);
    if (it == by_id.end()) {
      check.FailAggregate("served record for unknown order " +
                          std::to_string(r.id));
      continue;
    }
    if (++served_times[r.id] > 1) check.Fail(r.id, "served twice");
    const watter::Order& o = *it->second;
    extra_sum += r.extra;
    if (r.response < 0.0) check.Fail(r.id, "negative response");
    if (r.detour < -kAbsTol) check.Fail(r.id, "negative detour");
    if (!Close(r.extra, alpha * r.detour + beta * r.response)) {
      check.Fail(r.id, Format("extra %.9g != alpha*detour+beta*response %.9g",
                              r.extra, alpha * r.detour + beta * r.response));
    }
    if (r.group_size < 1 || r.group_size > max_group) {
      check.Fail(r.id, "group size " + std::to_string(r.group_size) +
                           " outside [1, Kw]");
    }
    double dropoff = o.release + r.response + o.shortest_cost + r.detour;
    if (dropoff > o.deadline + kAbsTol) {
      check.Fail(r.id, Format("drop-off %.9g after deadline %.9g", dropoff,
                              o.deadline));
    }
  }

  // Unserved orders carry the METRS penalty p(i) = tau(i) - t(i) -
  // cost(lp, ld) and the unified-cost penalty factor * cost(lp, ld).
  double metrs_penalty = 0.0;
  double uc_penalty = 0.0;
  int64_t unserved = 0;
  for (const watter::Order& o : scenario.orders) {
    if (served_times.count(o.id) != 0) continue;
    ++unserved;
    metrs_penalty += o.deadline - o.release - o.shortest_cost;
    uc_penalty += metrics.uc_penalty_factor * o.shortest_cost;
  }

  const int64_t served = static_cast<int64_t>(served_times.size());
  if (static_cast<int64_t>(records.size()) != report.served ||
      served != report.served) {
    check.FailAggregate("report counts " + std::to_string(report.served) +
                        " served, records hold " +
                        std::to_string(records.size()) + " (" +
                        std::to_string(served) + " distinct)");
  }
  if (report.served + report.rejected + report.failed_services !=
      check.attempted) {
    check.FailAggregate(
        "served + rejected + failed_services = " +
        std::to_string(report.served + report.rejected +
                       report.failed_services) +
        ", generated " + std::to_string(check.attempted));
  }
  if (unserved != report.rejected + report.failed_services) {
    check.FailAggregate("orders without a served record: " +
                        std::to_string(unserved) + ", report says " +
                        std::to_string(report.rejected +
                                       report.failed_services));
  }
  if (!Close(report.metrs_objective, extra_sum + metrs_penalty)) {
    check.FailAggregate(Format("metrs_objective %.12g, recomputed %.12g",
                               report.metrs_objective,
                               extra_sum + metrs_penalty));
  }
  if (!Close(report.unified_cost - report.worker_travel, uc_penalty)) {
    check.FailAggregate(Format("unified-cost penalty %.12g, recomputed %.12g",
                               report.unified_cost - report.worker_travel,
                               uc_penalty));
  }
  return check;
}

void CheckOracleSample(watter::Scenario& scenario, uint64_t seed, int samples,
                       DayCheck* check) {
  const watter::Graph& graph = scenario.city->graph;
  watter::Dijkstra dijkstra(&graph);
  const bool float_costs =
      scenario.options.oracle == watter::OracleKind::kMatrix;
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  for (int i = 0; i < samples; ++i) {
    const watter::Order& order = scenario.orders[pick(scenario.orders.size())];
    const watter::Worker& worker =
        scenario.workers[pick(scenario.workers.size())];
    const std::pair<watter::NodeId, watter::NodeId> legs[] = {
        {order.pickup, order.dropoff}, {worker.location, order.pickup}};
    for (const auto& [from, to] : legs) {
      dijkstra.Run(from, to);
      double expected = dijkstra.DistanceTo(to);
      if (float_costs) expected = static_cast<float>(expected);
      double got = scenario.oracle->Cost(from, to);
      if (float_costs ? got != expected : !Close(got, expected)) {
        check->Fail(order.id, Format("oracle cost %.12g, Dijkstra %.12g", got,
                                     expected));
      }
    }
    if (!Close(order.shortest_cost, scenario.oracle->Cost(order.pickup,
                                                          order.dropoff))) {
      check->Fail(order.id, "shortest_cost differs from the oracle");
    }
  }
}

bool SameQuality(const watter::MetricsReport& a,
                 const watter::MetricsReport& b) {
  return a.served == b.served && a.rejected == b.rejected &&
         a.failed_services == b.failed_services &&
         a.metrs_objective == b.metrs_objective &&
         a.total_extra_time == b.total_extra_time &&
         a.unified_cost == b.unified_cost &&
         a.worker_travel == b.worker_travel;
}

}  // namespace perfbench
