#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

using watter::DatasetKind;
using watter::OracleKind;

namespace {

// WATTER-expect trains on fixed demand seeds (kTrainSeedBase and
// kTrainSeedBase + 100, see TrainExpectModel), so every run evaluates the
// same model and --seed only draws the evaluation day. Evaluation seeds must
// stay below kTrainSeedBase, which keeps the two sets disjoint. Training on
// seeds derived from --seed moved the cost per order by a third between
// seeds, because each seed got a different policy.
constexpr uint64_t kTrainSeedBase = 0xFFFFFFFF00000000ULL;
constexpr uint64_t kCitySeed = 7;

int Scaled(int count, double scale) {
  return std::max(2, static_cast<int>(std::lround(count * scale)));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"cdc-online", "cdc-timeout",
                                                  "nyc-ch", "cdc-expect"};
  return kNames;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed, double scale) {
  if (seed >= kTrainSeedBase - 64 * kDaySeedStride) return std::nullopt;
  WorkloadSpec spec;
  spec.name = name;
  watter::WorkloadOptions& w = spec.options;
  w.seed = seed;
  // The road network is fixed; the seed draws the demand and the fleet.
  // A seed-drawn city moves per-order cost by half between seeds on the
  // timeout workload, which would hide any change smaller than that.
  w.city_seed = kCitySeed;
  w.dataset = DatasetKind::kCdc;
  w.oracle = OracleKind::kMatrix;
  w.city_width = 32;
  w.city_height = 32;
  w.duration = 4.0 * 3600.0;
  w.num_threads = 1;
  int orders = 0;
  int workers = 0;
  if (name == "cdc-online") {
    // The 30k/3k reference day: small pool, propose- and fleet-bound.
    spec.strategy = Strategy::kOnline;
    orders = 30000;
    workers = 3000;
  } else if (name == "cdc-timeout") {
    // Orders are held to their wait limit, so a large resident pool is
    // re-read every round (best-group refresh dominates). One day's cost
    // per order swings by a fifth with the seed, because the groups the
    // pool enumerates grow combinatorially at the densest moments; a round
    // of four days averages that out.
    spec.strategy = Strategy::kTimeout;
    orders = 1000;
    workers = 100;
    w.duration = 1.5 * 3600.0;
    spec.days = 4;
  } else if (name == "nyc-ch") {
    // The only workload whose oracle is a contraction hierarchy with the
    // bucket batch backend: geo does most of the work here.
    spec.strategy = Strategy::kOnline;
    w.dataset = DatasetKind::kNyc;
    w.oracle = OracleKind::kCh;
    w.geo = watter::GeoBackend::kBucket;
    w.city_width = 48;
    w.city_height = 48;
    orders = 10000;
    workers = 2000;
  } else if (name == "cdc-expect") {
    // WATTER-expect at a contended shape; the value network is evaluated
    // once per threshold query. Two days per round, for the same reason
    // as cdc-timeout: threshold queries per order vary with the seed.
    spec.strategy = Strategy::kExpect;
    orders = 1500;
    workers = 150;
    w.duration = 2.0 * 3600.0;
    spec.days = 2;
    spec.train_shape = w;
    spec.train_shape.num_orders = Scaled(200, scale);
    spec.train_shape.num_workers = Scaled(20, scale);
    spec.train_shape.duration = 0.25 * 3600.0;
    spec.train.bootstrap_days = 1;
    spec.train.behavior_days = 1;
    spec.train.epochs = 1;
    spec.train.seed_base = kTrainSeedBase;
  } else {
    return std::nullopt;
  }
  w.num_orders = Scaled(orders, scale);
  w.num_workers = Scaled(workers, scale);
  return spec;
}

watter::Result<Setup> BuildSetup(const WorkloadSpec& spec) {
  Setup setup;
  Clocks start = Clocks::Now();
  for (int k = 0; k < spec.days; ++k) {
    watter::WorkloadOptions day = spec.options;
    day.seed += static_cast<uint64_t>(k) * kDaySeedStride;
    auto scenario = watter::GenerateScenario(day);
    if (!scenario.ok()) return scenario.status();
    setup.scenarios.push_back(std::move(scenario).value());
  }
  setup.generate_s = Clocks::Now().wall - start.wall;
  switch (spec.strategy) {
    case Strategy::kOnline:
      setup.provider = std::make_unique<watter::OnlineThresholdProvider>();
      break;
    case Strategy::kTimeout:
      setup.provider = std::make_unique<watter::TimeoutThresholdProvider>();
      break;
    case Strategy::kExpect: {
      Clocks train_start = Clocks::Now();
      auto model = watter::TrainExpectModel(spec.train_shape, spec.train);
      if (!model.ok()) return model.status();
      setup.train_s = Clocks::Now().wall - train_start.wall;
      setup.model = std::move(model).value();
      setup.provider = setup.model->MakeProvider();
      break;
    }
  }
  return setup;
}

Clocks Clocks::Now() {
  timespec wall{};
  timespec cpu{};
  clock_gettime(CLOCK_MONOTONIC, &wall);
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {wall.tv_sec + wall.tv_nsec * 1e-9, cpu.tv_sec + cpu.tv_nsec * 1e-9};
}

}  // namespace perfbench
