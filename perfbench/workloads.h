// The benchmark's three workloads, each generated from the seed passed on
// the command line. Every parameter that shapes a run is recorded in
// `params`, read back from the configs and constants the workload is
// built from, so a result can be reproduced from its record alone.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "exp/runner.h"
#include "fleet/fleet.h"
#include "workloads/load_trace.h"

namespace perfbench {

/// Ordered (key, JSON value) pairs describing a workload instance.
using Params = std::vector<std::pair<std::string, std::string>>;

/// A fleet workload: node specs plus the engine configuration. Specs are
/// produced by `build_specs` so that their cost lands in setup time.
struct FleetWorkload {
  std::string name;
  int nodes = 0;
  int epochs = 0;
  sturgeon::fleet::FleetConfig config;
  sturgeon::core::TrainerConfig trainer;
  Params params;
};

/// Phase-offset diurnal Sturgeon fleet on the event engine, quiescence
/// and churn on, slack-harvest + delta coordination, comms off.
FleetWorkload fleet_diurnal_churn(std::uint64_t seed, std::size_t threads);

/// Heterogeneous lockstep fleet over every LS x BE pair on the paper's
/// ramp trace, full-fidelity DES, slack-harvest through a faulty network.
FleetWorkload cluster_chaosnet(std::uint64_t seed, std::size_t threads);

/// Node specs for `w` (deterministic in the workload's seed).
std::vector<sturgeon::cluster::NodeSpec> build_specs(const FleetWorkload& w);

/// The paper-pairs workload: 18 LS x BE pairs under Sturgeon,
/// Sturgeon-NoB and PARTIES over the evaluation trace.
struct PairsWorkload {
  std::uint64_t seed = 1;
  sturgeon::LoadTrace trace = sturgeon::LoadTrace::constant(0.5, 1);
  sturgeon::core::TrainerConfig trainer;
  /// Base run configuration; the seed is replaced per pair.
  sturgeon::exp::RunConfig run;
  Params params;
};

/// Seed of the throwaway server whose power_budget_w() sets each pair's
/// budget.
inline constexpr std::uint64_t kBudgetProbeSeed = 7;

PairsWorkload paper_pairs(std::uint64_t seed);

/// Per-pair run seed for pair index `i` (LS-major catalog order).
std::uint64_t pair_run_seed(std::uint64_t seed, std::size_t i);

}  // namespace perfbench
