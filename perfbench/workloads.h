// The benchmark's workloads and the set-up each one needs before its first
// simulated day: scenario generation (which builds the oracle), WATTER-expect
// training where the strategy needs it, and the threshold provider.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace perfbench {

enum class Strategy { kOnline, kTimeout, kExpect };

struct WorkloadSpec {
  std::string name;
  Strategy strategy = Strategy::kOnline;
  watter::WorkloadOptions options;  // Shape, seed, threads and oracle.
  // Distinct demand days in one round; day k draws its demand from seed
  // options.seed + k * kDaySeedStride.
  int days = 1;
  watter::SimOptions sim;
  // Strategy::kExpect only: the training days' shape (the evaluation city,
  // other demand seeds) and the training pipeline's options.
  watter::WorkloadOptions train_shape;
  watter::ExpectTrainOptions train;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload for demand seed `seed`. `scale` multiplies the
/// order and worker counts and the training effort (1 = the benchmark's
/// shape; the self-tests use small values). Returns nullopt for an unknown
/// name or a seed too close to the training seeds (2^64 - 2^32).
std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed, double scale = 1.0);

inline constexpr uint64_t kDaySeedStride = 1000003;

/// Everything one round of simulated days needs, built once per set-up.
struct Setup {
  std::vector<watter::Scenario> scenarios;  // One per day of the round.
  std::optional<watter::ExpectModel> model;
  std::unique_ptr<watter::ThresholdProvider> provider;
  double generate_s = 0.0;  // GenerateScenario calls, oracle builds included.
  double train_s = 0.0;     // TrainExpectModel (0 when not trained).
};

/// Generates the round's scenarios, trains WATTER-expect if the strategy needs it and
/// makes the provider.
watter::Result<Setup> BuildSetup(const WorkloadSpec& spec);

/// Wall-clock and process CPU seconds, read together.
struct Clocks {
  double wall = 0.0;
  double cpu = 0.0;
  static Clocks Now();
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
