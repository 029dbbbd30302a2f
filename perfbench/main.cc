// Benchmark runner: one workload per process.
//
//   watter_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR]
//
// A round replays each of the workload's simulated days once (most
// workloads have one day; those whose cost per order swings with the demand
// seed have several, drawn from consecutive seeds, to average it out).
// --trace 0 sets the workload up kSetupReps times (median = setup_s), runs
// one untimed warm-up round, then runs rounds until S seconds have passed,
// and at least kMinRounds, and reports medians over the rounds.
// --trace 1 sets up once and runs an untimed warm-up round. Then, until S
// seconds have passed, it runs pairs of rounds, one untraced and one with
// the platform's round timeline armed, so that the tracing overhead is a
// ratio within one process. Last, one probed round times oracle and
// threshold calls through the decorators in probes.h. It reports the
// per-layer figures.
// Every day of every round, warm-up included, goes through the outcome
// checker. The last line of stdout is one JSON object; the rest goes to
// stderr.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "probes.h"
#include "src/obs/histogram_registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kMinRounds = 3;
constexpr int kOracleSamples = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (0 < q <= 1).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

/// What the traced run reads off one day, taken right after Run() so the
/// checker's own oracle queries are not counted.
struct DayTrace {
  std::vector<watter::obs::RoundSample> rounds;  // One per check round.
  int64_t geo_queries = 0;
  int64_t geo_batches = 0;
  int64_t geo_batch_points = 0;
  double geo_query_s = 0.0;  // Probed days only.
  int64_t threshold_calls = 0;
  double threshold_s = 0.0;  // Probed days only.
};

struct Day {
  watter::MetricsReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  DayCheck check;
  DayTrace trace;
};

struct Counters {
  int64_t queries, batches, points;
};

Counters ReadCounters(const watter::TravelTimeOracle& oracle) {
  return {oracle.query_count(), oracle.batch_count(), oracle.batch_points()};
}

/// Runs one day. With `probe_oracle`, an OracleProbe wraps the scenario's
/// oracle for the day. A day with `sim.timeline_path` set arms the round
/// timeline, which also arms the process-global histogram registry; the
/// registry is disarmed again afterwards, so that the next untraced day is
/// untraced.
Day RunDay(watter::Scenario* scenario, const watter::SimOptions& sim,
           ThresholdProbe* probe, bool probe_oracle, uint64_t check_seed) {
  Day day;
  probe->Reset();
  watter::TravelTimeOracle& oracle = *scenario->oracle;
  const Counters before = ReadCounters(oracle);
  std::unique_ptr<watter::TravelTimeOracle> unprobed;
  OracleProbe* oracle_probe = nullptr;
  if (probe_oracle) {
    unprobed = std::move(scenario->oracle);
    auto owned = std::make_unique<OracleProbe>(unprobed.get());
    oracle_probe = owned.get();
    scenario->oracle = std::move(owned);
  }
  std::vector<watter::ServedRecord> records;
  {
    watter::WatterPlatform platform(scenario, probe, sim);
    Clocks start = Clocks::Now();
    day.report = platform.Run();
    Clocks end = Clocks::Now();
    day.wall_s = end.wall - start.wall;
    day.cpu_s = end.cpu - start.cpu;
    if (platform.timeline() != nullptr) {
      day.trace.rounds = platform.timeline()->samples();
    }
    records = platform.metrics().served_records();
  }
  if (!sim.timeline_path.empty()) {
    watter::obs::HistogramRegistry::Global().Disable();
  }
  if (oracle_probe != nullptr) {
    day.trace.geo_query_s = oracle_probe->seconds();
    scenario->oracle = std::move(unprobed);
  }
  const Counters after = ReadCounters(oracle);
  day.trace.geo_queries = after.queries - before.queries;
  day.trace.geo_batches = after.batches - before.batches;
  day.trace.geo_batch_points = after.points - before.points;
  day.trace.threshold_calls = probe->calls();
  day.trace.threshold_s = probe->nanos() * 1e-9;
  day.check = CheckDay(*scenario, day.report, records, sim.metrics);
  for (int64_t id : probe->bad_orders()) {
    day.check.Fail(id, "threshold outside [0, p(i)]");
  }
  CheckOracleSample(*scenario, check_seed, kOracleSamples, &day.check);
  return day;
}

/// One pass over every day of the set-up.
struct Round {
  std::vector<Day> days;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double orders = 0.0;

  /// Sum of `f(day)` over the round's days.
  template <typename F>
  double Sum(F f) const {
    double total = 0.0;
    for (const Day& d : days) total += static_cast<double>(f(d));
    return total;
  }
};

Round RunRound(Setup* setup, const watter::SimOptions& sim,
               ThresholdProbe* probe, bool probe_oracle, uint64_t check_seed) {
  Round round;
  for (size_t k = 0; k < setup->scenarios.size(); ++k) {
    watter::Scenario& scenario = setup->scenarios[k];
    round.days.push_back(RunDay(&scenario, sim, probe, probe_oracle,
                                check_seed * kDaySeedStride + k));
    round.wall_s += round.days.back().wall_s;
    round.cpu_s += round.days.back().cpu_s;
    round.orders += static_cast<double>(scenario.orders.size());
  }
  return round;
}

/// A workload that asks for the contraction hierarchy must really get the
/// batched bucket CH, the only oracle with NativeBatch().
bool OracleAsSpecified(const WorkloadSpec& spec, const Setup& setup) {
  if (spec.options.oracle != watter::OracleKind::kCh) return true;
  for (const watter::Scenario& s : setup.scenarios) {
    if (!s.oracle->NativeBatch()) return false;
  }
  return true;
}

class Output {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Tallies checked rounds: attempted and failed orders, and whether every
/// day repeated its first run's quality figures bitwise.
class Tally {
 public:
  void Add(const std::string& label, Round* round) {
    if (first_.empty()) {
      for (const Day& d : round->days) first_.push_back(d.report);
    }
    for (size_t k = 0; k < round->days.size(); ++k) {
      Day& day = round->days[k];
      if (!SameQuality(first_[k], day.report)) {
        day.check.FailAggregate("quality metrics differ from the first run");
      }
      attempted_ += day.check.attempted;
      failed_ += day.check.failed_count();
      for (const std::string& p : day.check.problems) {
        std::fprintf(stderr, "check failed (%s, day %zu): %s\n",
                     label.c_str(), k + 1, p.c_str());
      }
    }
  }
  /// The first round's reports, one per day.
  const std::vector<watter::MetricsReport>& first() const { return first_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::vector<watter::MetricsReport> first_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "watter_perfbench: %s\n", message.c_str());
  return 1;
}

int RunTimed(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_times;
  std::optional<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    Clocks start = Clocks::Now();
    auto built = BuildSetup(spec);
    if (!built.ok()) return Fail("set-up: " + built.status().ToString());
    setup.emplace(std::move(built).value());
    for (watter::Scenario& scenario : setup->scenarios) {
      watter::WatterPlatform platform(&scenario, setup->provider.get(),
                                      spec.sim);
    }
    setup_times.push_back(Clocks::Now().wall - start.wall);
  }
  if (!OracleAsSpecified(spec, *setup)) {
    return Fail("the scenario's oracle is not the batched bucket CH");
  }
  ThresholdProbe probe(setup->provider.get(),
                       spec.strategy == Strategy::kExpect);
  Tally tally;
  Round warm = RunRound(&*setup, spec.sim, &probe, false, args.seed);
  tally.Add("warm-up round", &warm);

  std::vector<double> us, cpu_us;
  Clocks start = Clocks::Now();
  for (int r = 0; r < kMinRounds || Clocks::Now().wall - start.wall <
                                        args.seconds; ++r) {
    Round round =
        RunRound(&*setup, spec.sim, &probe, false, args.seed + r + 1);
    tally.Add("round " + std::to_string(r + 1), &round);
    us.push_back(round.wall_s * 1e6 / round.orders);
    cpu_us.push_back(round.cpu_s * 1e6 / round.orders);
  }
  std::fprintf(stderr, "%s: seed %llu, %zu timed rounds of %zu days\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               us.size(), setup->scenarios.size());
  for (size_t r = 0; r < us.size(); ++r) {
    std::fprintf(stderr, "  round %zu: %.2f us/order wall, %.2f cpu\n", r + 1,
                 us[r], cpu_us[r]);
  }

  // Quality figures are means per day over the round's days.
  const std::vector<watter::MetricsReport>& first = tally.first();
  double served = 0.0, objective = 0.0, extra = 0.0, unified = 0.0;
  for (const watter::MetricsReport& r : first) {
    served += static_cast<double>(r.served);
    objective += r.metrs_objective;
    extra += r.total_extra_time;
    unified += r.unified_cost;
  }
  const double days = static_cast<double>(first.size());
  Output out;
  out.Add("setup_s", Median(setup_times), "s");
  out.Add("us_per_order", Median(us), "us");
  out.Add("cpu_us_per_order", Median(cpu_us), "us");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  out.Add("served_orders", served / days, "orders");
  out.Add("metrs_objective_s", objective / days, "s");
  out.Add("extra_time_s", served > 0.0 ? extra / served : 0.0, "s");
  out.Add("unified_cost_s", unified / days, "s");
  out.Print(tally.failed() == 0, tally.attempted(), tally.failed());
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  auto built = BuildSetup(spec);
  if (!built.ok()) return Fail("set-up: " + built.status().ToString());
  Setup setup = std::move(built).value();
  if (!OracleAsSpecified(spec, setup)) {
    return Fail("the scenario's oracle is not the batched bucket CH");
  }
  // One oracle build, timed apart from the rest of generation (every day
  // shares the city, so every day's build costs the same).
  Clocks geo_start = Clocks::Now();
  auto rebuilt = watter::BuildOracle(setup.scenarios.front().city->graph,
                                     spec.options.oracle, spec.options.geo);
  if (!rebuilt.ok()) return Fail("oracle: " + rebuilt.status().ToString());
  const double geo_build_s = Clocks::Now().wall - geo_start.wall;
  rebuilt.value().reset();

  ThresholdProbe probe(setup.provider.get(),
                       spec.strategy == Strategy::kExpect);
  Tally tally;
  uint64_t check_seed = args.seed;
  Round warm = RunRound(&setup, spec.sim, &probe, false, check_seed++);
  tally.Add("warm-up round", &warm);

  // Pairs of rounds, untraced and traced, in alternating order so that a
  // steady drift of the machine's speed favours neither. Each pair gives
  // one traced-to-untraced ratio.
  watter::SimOptions traced_sim = spec.sim;
  traced_sim.timeline_path =
      args.work_dir + "/perfbench-timeline-" + spec.name + ".csv";
  std::vector<Round> untraced, traced;
  std::vector<double> overhead;
  Clocks start = Clocks::Now();
  for (int r = 0; r < 1 || Clocks::Now().wall - start.wall < args.seconds;
       ++r) {
    for (bool trace : {r % 2 == 1, r % 2 == 0}) {
      Round round = RunRound(&setup, trace ? traced_sim : spec.sim, &probe,
                             false, check_seed++);
      tally.Add((trace ? "traced round " : "untraced round ") +
                    std::to_string(r + 1),
                &round);
      (trace ? traced : untraced).push_back(std::move(round));
    }
    overhead.push_back(traced.back().wall_s / untraced.back().wall_s);
  }
  // One round with the oracle and threshold calls timed.
  probe.set_timed(true);
  Round probed = RunRound(&setup, spec.sim, &probe, true, check_seed++);
  tally.Add("probed round", &probed);
  std::fprintf(stderr,
               "%s: seed %llu, %zu untraced/traced round pairs and one "
               "probed round, of %zu days each\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               traced.size(), setup.scenarios.size());

  // Timings are medians over the traced rounds of their sums over days.
  // Counts are the last traced round's sums; they repeat every round (the
  // geo counters only up to their documented racy increments).
  auto median_of = [](const std::vector<Round>& rounds, auto&& f) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(f(r));
    return Median(v);
  };
  auto us_per_order = [](const Round& r) { return r.wall_s * 1e6 / r.orders; };
  using watter::obs::RoundSample;
  auto phase = [&](double RoundSample::*field) {
    return median_of(traced, [field](const Round& round) {
      return round.Sum([field](const Day& d) {
        double s = 0.0;
        for (const RoundSample& r : d.trace.rounds) s += r.*field;
        return s;
      });
    });
  };
  const Round& last = traced.back();
  auto count = [&last](auto&& f) { return last.Sum(f); };
  double peak_pool = 0.0;
  for (const Day& d : last.days) {
    for (const RoundSample& r : d.trace.rounds) {
      peak_pool = std::max(peak_pool, static_cast<double>(r.pool_size));
    }
  }
  const double hits =
      count([](const Day& d) { return d.report.pool.plan_cache_hits; });
  const double lookups = hits + count([](const Day& d) {
                           return d.report.pool.plan_cache_misses;
                         });
  const double batches =
      count([](const Day& d) { return d.trace.geo_batches; });
  const double offers =
      count([](const Day& d) { return d.report.dispatch.offers; });
  double bucket_build_s = 0.0;
  for (const watter::Scenario& s : setup.scenarios) {
    bucket_build_s += s.oracle->bucket_build_seconds();
  }

  Output out;
  out.Add("workload.generate_s", setup.generate_s, "s");
  out.Add("geo.build_s", geo_build_s, "s");
  out.Add("geo.bucket_build_s", bucket_build_s, "s");
  out.Add("geo.queries", count([](const Day& d) { return d.trace.geo_queries; }),
          "count");
  out.Add("geo.batch_width",
          batches > 0 ? count([](const Day& d) {
                          return d.trace.geo_batch_points;
                        }) / batches
                      : 0.0,
          "points");
  out.Add("geo.query_s",
          probed.Sum([](const Day& d) { return d.trace.geo_query_s; }), "s");
  out.Add("pool.planner_plans",
          count([](const Day& d) { return d.report.pool.planner_plans; }),
          "count");
  out.Add("pool.pair_tests",
          count([](const Day& d) { return d.report.pool.pair_tests; }),
          "count");
  out.Add("pool.best_group_recomputes", count([](const Day& d) {
            return d.report.pool.best_group_recomputes;
          }),
          "count");
  out.Add("pool.groups_evaluated",
          count([](const Day& d) { return d.report.pool.groups_evaluated; }),
          "count");
  out.Add("pool.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
          "ratio");
  out.Add("pool.peak_size", peak_pool, "orders");
  out.Add("sim.refresh_s", phase(&RoundSample::refresh_s), "s");
  out.Add("sim.propose_s", phase(&RoundSample::propose_s), "s");
  out.Add("sim.resolve_s", phase(&RoundSample::resolve_s), "s");
  out.Add("sim.commit_s", phase(&RoundSample::commit_s), "s");
  out.Add("sim.maintenance_s", phase(&RoundSample::maintenance_s), "s");
  out.Add("sim.sweep_s", phase(&RoundSample::sweep_s), "s");
  // Time of Run()'s decision loop outside every round: arrival insertion
  // and the event loop itself (the timeline export is outside both).
  out.Add("sim.arrival_s", median_of(traced, [](const Round& round) {
            return round.Sum([](const Day& d) {
              double in_rounds = 0.0;
              for (const RoundSample& r : d.trace.rounds) {
                in_rounds += r.total_s;
              }
              return d.report.algorithm_seconds - in_rounds;
            });
          }),
          "s");
  out.Add("sim.rounds",
          count([](const Day& d) { return d.trace.rounds.size(); }), "count");
  auto round_pct = [&](double q) {
    return median_of(traced, [q](const Round& round) {
      std::vector<double> ms;
      for (const Day& d : round.days) {
        for (const RoundSample& r : d.trace.rounds) {
          ms.push_back(r.total_s * 1e3);
        }
      }
      return Percentile(std::move(ms), q);
    });
  };
  out.Add("sim.round_p50_ms", round_pct(0.50), "ms");
  out.Add("sim.round_p99_ms", round_pct(0.99), "ms");
  out.Add("dispatch.offers", offers, "count");
  out.Add("dispatch.commit_ratio",
          offers > 0 ? count([](const Day& d) {
                         return d.report.dispatch.committed;
                       }) / offers
                     : 0.0,
          "ratio");
  out.Add("dispatch.conflicts", count([](const Day& d) {
            return d.report.dispatch.worker_conflicts +
                   d.report.dispatch.order_conflicts;
          }),
          "count");
  const double threshold_calls =
      probed.Sum([](const Day& d) { return d.trace.threshold_calls; });
  out.Add("rl.threshold_calls", threshold_calls, "count");
  out.Add("rl.threshold_us",
          threshold_calls > 0
              ? probed.Sum([](const Day& d) { return d.trace.threshold_s; }) *
                    1e6 / threshold_calls
              : 0.0,
          "us");
  const double transitions =
      setup.model ? static_cast<double>(setup.model->experiences) : 0.0;
  out.Add("rl.train_s", setup.train_s, "s");
  out.Add("rl.train_transitions_per_s",
          setup.train_s > 0.0 ? transitions / setup.train_s : 0.0, "1/s");
  out.Add("obs.traced_us_per_order", median_of(traced, us_per_order), "us");
  out.Add("obs.untraced_us_per_order", median_of(untraced, us_per_order),
          "us");
  out.Add("obs.traced_over_untraced", Median(overhead), "ratio");
  out.Print(tally.failed() == 0, tally.attempted(), tally.failed());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: watter_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  auto spec = perfbench::MakeWorkload(args.workload, args.seed);
  if (!spec) {
    return perfbench::Fail("unknown workload " + args.workload +
                           " or seed out of range");
  }
  return args.trace ? perfbench::RunTraced(*spec, args)
                    : perfbench::RunTimed(*spec, args);
}
