// Decorators the benchmark installs around the two interfaces the platform
// takes from its caller. ThresholdProbe checks every threshold it passes on
// and, when timed, times each call; OracleProbe times a sample of the oracle
// calls. Both forward everything else unchanged, so the platform's decisions
// are the same with or without them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "src/geo/travel_time_oracle.h"
#include "src/strategy/threshold_provider.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The platform queries thresholds serially (providers are stateful), so
/// plain counters suffice here.
class ThresholdProbe : public watter::ThresholdProvider {
 public:
  /// `inner` is borrowed. With `check_bounds`, every threshold must lie in
  /// [0, p(i)]; ids of orders that got one outside are kept in bad_orders().
  ThresholdProbe(watter::ThresholdProvider* inner, bool check_bounds)
      : inner_(inner), check_bounds_(check_bounds) {}

  double ThresholdFor(const watter::Order& order, watter::Time now,
                      const watter::PoolContext& context) override {
    int64_t start = timed_ ? NowNanos() : 0;
    double theta = inner_->ThresholdFor(order, now, context);
    if (timed_) nanos_ += NowNanos() - start;
    ++calls_;
    if (check_bounds_ && !(theta >= 0.0 && theta <= order.Penalty())) {
      bad_orders_.insert(order.id);
    }
    return theta;
  }
  const char* name() const override { return inner_->name(); }

  /// Times every call from now on; nanos() stays 0 while untimed.
  void set_timed(bool timed) { timed_ = timed; }
  int64_t calls() const { return calls_; }
  int64_t nanos() const { return nanos_; }
  const std::set<int64_t>& bad_orders() const { return bad_orders_; }
  void Reset() {
    calls_ = 0;
    nanos_ = 0;
    bad_orders_.clear();
  }

 private:
  watter::ThresholdProvider* inner_;
  bool check_bounds_;
  bool timed_ = false;
  int64_t calls_ = 0;
  int64_t nanos_ = 0;
  std::set<int64_t> bad_orders_;
};

/// Times one oracle call in kSampleEvery and scales the sampled time up to
/// every call. Each sampled interval also holds part of the clock's own
/// cost, which is measured once and taken off. A matrix lookup is about as
/// cheap as a clock read, so timing every call would mostly measure the
/// clock. The platform calls oracles from several threads, so the counters
/// are atomic.
class OracleProbe : public watter::TravelTimeOracle {
 public:
  static constexpr int64_t kSampleEvery = 16;

  /// `inner` is borrowed and must outlive the probe.
  explicit OracleProbe(watter::TravelTimeOracle* inner)
      : inner_(inner), clock_nanos_(ClockNanos()) {}

  double Cost(watter::NodeId from, watter::NodeId to) override {
    double cost = 0.0;
    Timed([&] { cost = inner_->Cost(from, to); });
    return cost;
  }
  void ManyToOne(std::span<const watter::NodeId> sources, watter::NodeId target,
                 std::span<double> out) override {
    Timed([&] { inner_->ManyToOne(sources, target, out); });
  }
  void OneToMany(watter::NodeId source, std::span<const watter::NodeId> targets,
                 std::span<double> out) override {
    Timed([&] { inner_->OneToMany(source, targets, out); });
  }
  void ManyToMany(std::span<const watter::NodeId> sources,
                  std::span<const watter::NodeId> targets,
                  std::span<double> out) override {
    Timed([&] { inner_->ManyToMany(sources, targets, out); });
  }
  bool NativeBatch() const override { return inner_->NativeBatch(); }
  double bucket_build_seconds() const override {
    return inner_->bucket_build_seconds();
  }

  /// Estimated seconds inside every oracle call so far.
  double seconds() const {
    const int64_t sampled = sampled_.load(std::memory_order_relaxed);
    if (sampled == 0) return 0.0;
    const double net = std::max<double>(
        0.0, static_cast<double>(nanos_.load(std::memory_order_relaxed)) -
                 static_cast<double>(sampled) * clock_nanos_);
    return net * 1e-9 * static_cast<double>(calls_.load()) /
           static_cast<double>(sampled);
  }

 private:
  template <typename F>
  void Timed(F&& call) {
    if (calls_.fetch_add(1, std::memory_order_relaxed) % kSampleEvery != 0) {
      call();
      return;
    }
    int64_t start = NowNanos();
    call();
    nanos_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    sampled_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Median length of an empty timed interval.
  static double ClockNanos() {
    std::vector<int64_t> empty(1001);
    for (int64_t& d : empty) {
      int64_t start = NowNanos();
      d = NowNanos() - start;
    }
    std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
    return static_cast<double>(empty[500]);
  }

  watter::TravelTimeOracle* inner_;
  const double clock_nanos_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> sampled_{0};
  std::atomic<int64_t> nanos_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
