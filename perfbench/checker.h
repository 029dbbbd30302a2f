// Independent outcome checks for one simulated day. Every check recomputes
// its expectation from the scenario's orders, the served records and the
// road graph, or tests a property the method must have; none of them
// compares against stored output of an earlier run.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/workload/scenario.h"

namespace perfbench {

struct DayCheck {
  int64_t attempted = 0;     // Orders of the day.
  std::set<int64_t> failed;  // Ids of orders that failed some check.
  bool aggregates_ok = true;  // Totals and conservation matched.
  std::vector<std::string> problems;  // The first few failures, for stderr.

  /// Orders counted as failed: every order when an aggregate is wrong
  /// (it cannot be pinned on one order), else those that failed a check.
  int64_t failed_count() const {
    return aggregates_ok ? static_cast<int64_t>(failed.size()) : attempted;
  }
  void Fail(int64_t order, std::string problem);
  void FailAggregate(std::string problem);
};

/// Conservation, the METRS objective and the unified cost's rejection
/// penalty recomputed from the orders, and the per-record properties
/// (response and detour non-negative, extra = alpha*detour + beta*response,
/// group size within [1, Kw], drop-off by the deadline).
DayCheck CheckDay(const watter::Scenario& scenario,
                  const watter::MetricsReport& report,
                  const std::vector<watter::ServedRecord>& records,
                  const watter::MetricsOptions& metrics);

/// Compares the scenario oracle's cost for `samples` order trips and
/// worker-to-pickup legs, picked from `seed`, with a plain Dijkstra over the
/// city graph: to a relative 1e-9, or, for the APSP matrix, which stores
/// each cost as a float, exactly against the Dijkstra cost rounded to
/// float. Adds failures to `check`.
void CheckOracleSample(watter::Scenario& scenario, uint64_t seed, int samples,
                       DayCheck* check);

/// The quality figures that must repeat bitwise from one day to the next.
bool SameQuality(const watter::MetricsReport& a,
                 const watter::MetricsReport& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
