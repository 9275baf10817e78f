// TimedPolicy: a bench-side Policy decorator that forwards every call to
// the real controller and records, per decide(), its host time (wall
// clock for the latency distribution, calling thread's CPU clock for the
// busy total, which is compared with process CPU time) and the
// inputs the layer replays need (load, real-scale QPS, the partition in
// force, the budget, whether the controller ran a fresh search).
//
// It is injected from outside the simulator -- through
// NodeSpec::make_policy on the fleet workloads, or handed straight to
// exp::run_colocation on the paper pairs -- so the traced run measures
// the same public entry points as the untraced one. The forwarding is
// exact: the controller sees the same samples, caps and telemetry
// context, and last_decision() mirrors the controller's, so a traced
// run's modelled outputs are bit-identical to the untraced run's (the
// benchmark checks this).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/policy.h"
#include "core/predictor.h"
#include "sim/server.h"
#include "telemetry/context.h"

namespace perfbench {

/// One decide() as seen through the decorator.
/// CPU time of the calling thread, nanoseconds.
inline double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e9 * static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec);
}

struct DecideRecord {
  double ns = 0.0;         ///< wall time of the forwarded decide()
  double cpu_ns = 0.0;     ///< thread CPU time of the forwarded decide()
  double load = 0.0;       ///< sample.load_fraction
  double qps = 0.0;        ///< sample.qps_real
  double budget_w = 0.0;   ///< controller budget at decide time
  sturgeon::Partition current;  ///< partition in force for the sample
  bool searched = false;   ///< the controller ran a fresh search
};

/// What a replay needs to rebuild this node's layers offline.
struct ReplayContext {
  sturgeon::LsProfile ls;
  sturgeon::BeProfile be;
  sturgeon::sim::ServerConfig server;
  /// Null for controllers without a model (PARTIES).
  std::shared_ptr<const sturgeon::core::Predictor> predictor;
};

class TimedPolicy final : public sturgeon::core::Policy {
 public:
  TimedPolicy(std::unique_ptr<sturgeon::core::Policy> inner,
              ReplayContext context)
      : inner_(std::move(inner)),
        sturgeon_(dynamic_cast<sturgeon::core::SturgeonController*>(
            inner_.get())),
        context_(std::move(context)) {}

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }

  void reset() override {
    inner_->reset();
    clear_decision();
  }

  using Policy::decide;
  sturgeon::Partition decide(const sturgeon::sim::ServerTelemetry& sample,
                             const sturgeon::Partition& current) override {
    const std::uint64_t searches_before =
        sturgeon_ != nullptr ? sturgeon_->searches_run() : 0;
    const double c0 = thread_cpu_ns();
    const auto t0 = std::chrono::steady_clock::now();
    sturgeon::Partition next = inner_->decide(sample, current);
    const auto t1 = std::chrono::steady_clock::now();
    const double c1 = thread_cpu_ns();
    last_decision_ = inner_->last_decision();

    DecideRecord rec;
    rec.ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    rec.cpu_ns = c1 - c0;
    rec.load = sample.load_fraction;
    rec.qps = sample.qps_real;
    rec.current = current;
    if (sturgeon_ != nullptr) {
      rec.budget_w = sturgeon_->power_budget_w();
      rec.searched = sturgeon_->searches_run() != searches_before;
    }
    records_.push_back(rec);
    return next;
  }

  bool supports_power_cap() const override {
    return inner_->supports_power_cap();
  }
  void set_power_cap(double watts) override { inner_->set_power_cap(watts); }

  const std::vector<DecideRecord>& records() const { return records_; }
  const ReplayContext& context() const { return context_; }
  /// The wrapped Sturgeon controller, or null for other policies.
  const sturgeon::core::SturgeonController* sturgeon() const {
    return sturgeon_;
  }

 protected:
  void on_telemetry_attached() override {
    // Non-owning alias: this decorator's base keeps the context alive,
    // and the inner policy dies with the decorator.
    inner_->attach_telemetry(
        std::shared_ptr<sturgeon::telemetry::TelemetryContext>(
            std::shared_ptr<void>{}, &telemetry()));
  }

 private:
  std::unique_ptr<sturgeon::core::Policy> inner_;
  sturgeon::core::SturgeonController* sturgeon_;
  ReplayContext context_;
  std::vector<DecideRecord> records_;
};

}  // namespace perfbench
