// Self-tests of the benchmark:
//   - every workload runs a tiny-shape day that passes the outcome checks
//     and repeats bitwise, with and without the oracle probe;
//   - the checker catches tampered reports, records, deadlines, thresholds
//     and oracle costs;
//   - quality metrics are bitwise equal at 1 and 4 threads on a reduced
//     shape of each multi-threaded workload.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "  %s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

struct RunResult {
  watter::MetricsReport report;
  std::vector<watter::ServedRecord> records;
  std::set<int64_t> bad_thresholds;
};

/// Runs the set-up's first day, or day `k`.
RunResult RunOnce(Setup* setup, const WorkloadSpec& spec,
                  watter::ThresholdProvider* provider = nullptr,
                  size_t k = 0) {
  ThresholdProbe probe(provider != nullptr ? provider : setup->provider.get(),
                       /*check_bounds=*/true);
  watter::WatterPlatform platform(&setup->scenarios[k], &probe, spec.sim);
  RunResult result;
  result.report = platform.Run();
  result.records = platform.metrics().served_records();
  result.bad_thresholds = probe.bad_orders();
  return result;
}

Setup MustSetup(const WorkloadSpec& spec) {
  auto setup = BuildSetup(spec);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up of %s failed: %s\n", spec.name.c_str(),
                 setup.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(setup).value();
}

DayCheck Check(const Setup& setup, const WorkloadSpec& spec,
               const watter::MetricsReport& report,
               const std::vector<watter::ServedRecord>& records,
               size_t k = 0) {
  return CheckDay(setup.scenarios[k], report, records, spec.sim.metrics);
}

void SmokeEveryWorkload() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec = *MakeWorkload(name, /*seed=*/3, /*scale=*/0.1);
    Setup setup = MustSetup(spec);
    EXPECT(static_cast<int>(setup.scenarios.size()) == spec.days);
    for (size_t k = 0; k < setup.scenarios.size(); ++k) {
      watter::Scenario& scenario = setup.scenarios[k];
      EXPECT(spec.options.oracle != watter::OracleKind::kCh ||
             scenario.oracle->NativeBatch());
      RunResult run = RunOnce(&setup, spec, nullptr, k);
      DayCheck check = Check(setup, spec, run.report, run.records, k);
      CheckOracleSample(scenario, 3, 16, &check);
      for (const std::string& p : check.problems) {
        std::fprintf(stderr, "  %s: %s\n", name.c_str(), p.c_str());
      }
      EXPECT(check.attempted > 0);
      EXPECT(check.failed_count() == 0);
      EXPECT(run.report.served > 0);
      if (spec.strategy == Strategy::kExpect) {
        EXPECT(run.bad_thresholds.empty());
      }
      // A second run of the same day repeats the first bitwise, also with
      // the oracle wrapped in the timing probe.
      EXPECT(SameQuality(run.report, RunOnce(&setup, spec, nullptr, k).report));
      auto unprobed = std::move(scenario.oracle);
      auto oracle_probe = std::make_unique<OracleProbe>(unprobed.get());
      OracleProbe* timed = oracle_probe.get();
      scenario.oracle = std::move(oracle_probe);
      EXPECT(SameQuality(run.report, RunOnce(&setup, spec, nullptr, k).report));
      EXPECT(timed->seconds() > 0.0);
      scenario.oracle = std::move(unprobed);
    }
    if (setup.scenarios.size() > 1) {  // The days differ in demand.
      EXPECT(setup.scenarios[0].orders[0].release !=
             setup.scenarios[1].orders[0].release);
    }
  }
  EXPECT(!MakeWorkload("no-such-workload", 1).has_value());
}

void CheckerCatchesTampering() {
  WorkloadSpec spec = *MakeWorkload("cdc-online", /*seed=*/5, /*scale=*/0.02);
  Setup setup = MustSetup(spec);
  const RunResult run = RunOnce(&setup, spec);
  EXPECT(Check(setup, spec, run.report, run.records).failed_count() == 0);
  EXPECT(run.records.size() >= 2);

  auto fails = [&](const watter::MetricsReport& report,
                   const std::vector<watter::ServedRecord>& records) {
    return Check(setup, spec, report, records).failed_count() > 0;
  };
  {  // A dropped served record breaks conservation and the objective.
    auto records = run.records;
    records.pop_back();
    EXPECT(fails(run.report, records));
  }
  {  // A record served twice.
    auto records = run.records;
    records.push_back(records.front());
    auto report = run.report;
    ++report.served;
    --report.rejected;
    EXPECT(fails(report, records));
  }
  {  // A shifted rejection penalty in the METRS objective.
    auto report = run.report;
    report.metrs_objective += 1.0;
    report.total_metrs_penalty += 1.0;
    EXPECT(fails(report, run.records));
  }
  {  // A shifted unified-cost penalty.
    auto report = run.report;
    report.unified_cost += 10.0;
    EXPECT(fails(report, run.records));
  }
  {  // Extra time that is not alpha*detour + beta*response.
    auto records = run.records;
    records[0].extra += 0.5;
    DayCheck check = Check(setup, spec, run.report, records);
    EXPECT(check.failed.count(records[0].id) == 1);
  }
  {  // A negative response and an oversized group.
    auto records = run.records;
    records[0].response = -1.0;
    records[0].extra = records[0].detour - 1.0;
    records[1].group_size = spec.options.max_capacity + 1;
    DayCheck check = Check(setup, spec, run.report, records);
    EXPECT(check.failed.count(records[0].id) == 1);
    EXPECT(check.failed.count(records[1].id) == 1);
  }
  {  // A served order whose deadline was earlier than its drop-off.
    const watter::ServedRecord& r = run.records[0];
    for (watter::Order& o : setup.scenarios[0].orders) {
      if (o.id != r.id) continue;
      const double saved = o.deadline;
      o.deadline = o.release + o.shortest_cost + r.detour + r.response - 1.0;
      DayCheck check = Check(setup, spec, run.report, run.records);
      EXPECT(check.failed.count(r.id) == 1);
      o.deadline = saved;
    }
  }
  {  // A threshold outside [0, p(i)] is caught by the probe.
    watter::FixedThresholdProvider too_high(
        std::numeric_limits<double>::max());
    EXPECT(!RunOnce(&setup, spec, &too_high).bad_thresholds.empty());
    watter::FixedThresholdProvider negative(-1.0);
    EXPECT(!RunOnce(&setup, spec, &negative).bad_thresholds.empty());
  }
}

/// Returns costs one part in 1e6 too high.
class SkewedOracle : public watter::TravelTimeOracle {
 public:
  explicit SkewedOracle(watter::TravelTimeOracle* inner) : inner_(inner) {}
  double Cost(watter::NodeId from, watter::NodeId to) override {
    return inner_->Cost(from, to) * (1.0 + 1e-6);
  }

 private:
  watter::TravelTimeOracle* inner_;
};

void CheckerCatchesWrongOracle() {
  for (const char* name : {"cdc-online", "nyc-ch"}) {
    WorkloadSpec spec = *MakeWorkload(name, /*seed=*/9, /*scale=*/0.02);
    Setup setup = MustSetup(spec);
    watter::Scenario& scenario = setup.scenarios[0];
    DayCheck clean;
    CheckOracleSample(scenario, 1, 8, &clean);
    EXPECT(clean.failed.empty());
    auto real = std::move(scenario.oracle);
    scenario.oracle = std::make_unique<SkewedOracle>(real.get());
    DayCheck skewed;
    CheckOracleSample(scenario, 1, 8, &skewed);
    EXPECT(!skewed.failed.empty());
    scenario.oracle = std::move(real);
  }
}

void ThreadCountsAgree() {
  for (const char* name : {"cdc-timeout", "nyc-ch"}) {
    WorkloadSpec spec = *MakeWorkload(name, /*seed=*/11, /*scale=*/0.2);
    Setup setup = MustSetup(spec);
    std::vector<watter::MetricsReport> reports;
    for (int threads : {1, 4}) {
      spec.sim.num_threads = threads;
      reports.push_back(RunOnce(&setup, spec).report);
    }
    EXPECT(SameQuality(reports[0], reports[1]));
    EXPECT(reports[0].pool.planner_plans == reports[1].pool.planner_plans);
    EXPECT(reports[0].dispatch.offers == reports[1].dispatch.offers);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"SmokeEveryWorkload", perfbench::SmokeEveryWorkload},
      {"CheckerCatchesTampering", perfbench::CheckerCatchesTampering},
      {"CheckerCatchesWrongOracle", perfbench::CheckerCatchesWrongOracle},
      {"ThreadCountsAgree", perfbench::ThreadCountsAgree},
  };
  for (const auto& [name, test] : tests) {
    int before = perfbench::g_failures;
    test();
    std::printf("%s %s\n", perfbench::g_failures == before ? "PASS" : "FAIL",
                name);
  }
  return perfbench::g_failures == 0 ? 0 : 1;
}
