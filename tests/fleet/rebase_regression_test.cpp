// Regression: a slack-harvest rebalance after quiescent epochs must stay
// inside the cluster budget. Sleepers keep the cap_w of their last step
// in the persistent report vector while rebalances lower their real caps
// underneath, so the reported caps can sum past the budget; slack-harvest
// conserves its starting total, so without a renormalization the next
// rebalance hands DeltaCoordinator::rebase an oversubscribed split and
// the run aborts (64 nodes, first seen at epoch 64 of this exact config,
// which is bench/overhead_comms in full mode). Both the direct path and
// the zero-fault comms path must complete and stay bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::fleet {
namespace {

constexpr int kNodes = 64;
constexpr int kEpochs = 120;

std::vector<cluster::NodeSpec> phased_fleet() {
  LsProfile ls = find_ls("memcached");
  ls.name = "memcached-comms";
  ls.sim_scale = 0.02;
  core::TrainerConfig trainer;
  trainer.ls_samples = 250;
  trainer.ls_boundary_searches = 60;
  trainer.be_samples = 150;
  const auto& bes = be_catalog();
  std::vector<cluster::NodeSpec> specs;
  for (int i = 0; i < kNodes; ++i) {
    cluster::NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
    spec.trace = LoadTrace::diurnal_phased(
        0.18, 0.55, kEpochs,
        static_cast<double>(i) / static_cast<double>(kNodes));
    spec.trainer = trainer;
    specs.push_back(std::move(spec));
  }
  return specs;
}

FleetResult run_overhead_comms_config(bool comms) {
  FleetConfig config;
  config.cluster.seed = 11;
  config.cluster.threads = 2;
  config.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  config.cluster.governor.relax_margin = 0.90;
  config.cluster.comms.enabled = comms;  // zero-fault network
  config.quiescence.enabled = true;
  config.quiescence.load_epsilon = 0.10;
  config.quiescence.max_sleep_epochs = 64;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_epoch = 0.5;
  config.churn.mean_size_norm_s = 20.0;
  config.churn.slots_per_node = 4;
  config.delta.rebalance_period = 32;
  FleetSim sim(phased_fleet(), config);
  return sim.run(kEpochs);
}

TEST(FleetRebase, SlackHarvestAfterSleepersStaysInBudget) {
  const FleetResult direct = run_overhead_comms_config(false);
  const FleetResult comms = run_overhead_comms_config(true);
  for (const FleetResult* r : {&direct, &comms}) {
    EXPECT_EQ(r->cluster.epochs, kEpochs);
    EXPECT_LE(r->cluster.max_cap_sum_ratio, 1.0 + cluster::kBudgetTolerance);
    EXPECT_EQ(r->rebalances, 4u);  // t = 0, 32, 64, 96
    EXPECT_GT(r->total_skipped_epochs, 0u);
  }
  EXPECT_EQ(direct.cluster.fleet_qos_guarantee_rate,
            comms.cluster.fleet_qos_guarantee_rate);
  EXPECT_EQ(direct.cluster.aggregate_be_throughput,
            comms.cluster.aggregate_be_throughput);
  EXPECT_EQ(direct.cluster.mean_cluster_power_w,
            comms.cluster.mean_cluster_power_w);
  EXPECT_EQ(direct.cluster.max_cap_sum_ratio, comms.cluster.max_cap_sum_ratio);
  EXPECT_EQ(direct.total_skipped_epochs, comms.total_skipped_epochs);
  EXPECT_EQ(direct.jobs_completed, comms.jobs_completed);
}

}  // namespace
}  // namespace sturgeon::fleet
