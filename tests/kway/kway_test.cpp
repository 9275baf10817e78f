// K-way allocation core: WorkloadSet/Allocation contracts, KwaySearch
// (greedy + warm start vs the exhaustive oracle, K = 2 pair delegation),
// the KwayArbiter's unit arbitration, and the bit-compatibility twin
// runs that pin route_via_allocation to the pair path at K = 2.
#include "core/kway_search.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "../core/fake_models.h"
#include "core/balancer.h"
#include "core/config_search.h"
#include "core/controller.h"
#include "exp/runner.h"
#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::core {
namespace {

const MachineSpec big = MachineSpec::xeon_e5_2630_v4();

MachineSpec tiny_machine() {
  MachineSpec m;
  m.num_cores = 4;
  m.freq_ghz = {1.0, 1.5, 2.0};
  m.llc_ways = 4;
  m.llc_mb = 4.0;
  m.mem_bw_gbps = 10.0;
  return m;
}

WorkloadSet ls_be_pair() { return WorkloadSet::pair(10.0); }

// ---------------------------------------------------------------- types

TEST(WorkloadSet, ValidateRejectsBadShapes) {
  EXPECT_THROW(WorkloadSet{}.validate(), std::invalid_argument);
  WorkloadSet bad_target{{Workload::latency_sensitive("ls", 0.0)}};
  EXPECT_THROW(bad_target.validate(), std::invalid_argument);
  WorkloadSet bad_prio{{Workload::best_effort("be", -1)}};
  EXPECT_THROW(bad_prio.validate(), std::invalid_argument);
  WorkloadSet ok{{Workload::latency_sensitive("ls", 10.0),
                  Workload::best_effort("be", 2)}};
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(ok.is_pair());
  EXPECT_EQ(ok.ls_indices(), std::vector<int>{0});
  EXPECT_EQ(ok.be_indices(), std::vector<int>{1});
  EXPECT_EQ(ok[1].weight(), 3.0);  // 1 + priority
  EXPECT_EQ(ok[0].weight(), 0.0);  // LS never enters the objective
}

TEST(Allocation, ValidForCatchesOverAndUndersubscription) {
  const MachineSpec m = tiny_machine();
  Allocation three(std::vector<AppSlice>{
      {2, 0, 2}, {1, 1, 1}, {1, 2, 1}});  // exactly the machine
  EXPECT_TRUE(three.valid_for(m));

  Allocation over_cores = three;
  over_cores[2].cores = 2;  // 5 > 4 cores
  EXPECT_FALSE(over_cores.valid_for(m));

  Allocation over_ways = three;
  over_ways[0].llc_ways = 3;  // 5 > 4 ways
  EXPECT_FALSE(over_ways.valid_for(m));

  Allocation bad_freq = three;
  bad_freq[1].freq_level = 3;  // only levels 0..2 exist
  EXPECT_FALSE(bad_freq.valid_for(m));

  // Undersubscription (spare cores/ways) is fine; a zero-resource slice
  // is not, unless it is wholly empty AND empties are allowed.
  Allocation spare(std::vector<AppSlice>{{1, 0, 1}, {1, 0, 1}});
  EXPECT_TRUE(spare.valid_for(m));
  Allocation hollow = spare;
  hollow[1] = AppSlice{0, 0, 1};  // cores == 0 but holds a way
  EXPECT_FALSE(hollow.valid_for(m));
  EXPECT_FALSE(hollow.valid_for(m, /*allow_empty=*/true));
  hollow[1] = AppSlice{};  // wholly empty
  EXPECT_FALSE(hollow.valid_for(m));
  EXPECT_TRUE(hollow.valid_for(m, /*allow_empty=*/true));
  // ...but never for the first (LS-by-convention) slice.
  Allocation headless(std::vector<AppSlice>{AppSlice{}, {1, 0, 1}});
  EXPECT_FALSE(headless.valid_for(m, /*allow_empty=*/true));
}

TEST(Allocation, PairRoundTripAndComplement) {
  Partition p;
  p.ls = {6, big.max_freq_level(), 8};
  p.be = Allocation::complement(big, p.ls, 2);
  EXPECT_EQ(p.be.cores, big.num_cores - 6);
  EXPECT_EQ(p.be.llc_ways, big.llc_ways - 8);
  EXPECT_EQ(p.be.freq_level, 2);
  const Allocation a = Allocation::of(p);
  ASSERT_EQ(a.size(), 2);
  EXPECT_EQ(a.to_partition(), p);
  Allocation three = Allocation::all_to_first(big, 3);
  EXPECT_THROW(three.to_partition(), std::invalid_argument);
}

// ----------------------------------------------------------- KwaySearch

TEST(KwaySearch, SingleLsWorkloadMeetsItsTarget) {
  const auto pred = testing::fake_predictor(big, 1.0, 3);
  WorkloadSet ws{{Workload::latency_sensitive("ls", 10.0)}};
  KwaySearch search(ws, *pred, 200.0);
  const auto r = search.search({12000.0});
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.best.size(), 1);
  EXPECT_TRUE(pred->ls_qos_ok(12000.0, r.best[0]));
  EXPECT_EQ(r.objective, 0.0);  // no BE slice, nothing to maximize
  EXPECT_LE(r.predicted_power_w, 200.0);
}

TEST(KwaySearch, ThreeWaySatisfiesBothQosTargets) {
  // Two LS services with different demand models plus one BE app, each
  // with its own predictor.
  const auto light = testing::fake_predictor(big, 0.5, 2);
  const auto heavy = testing::fake_predictor(big, 1.5, 4);
  const auto batch = testing::fake_predictor(big, 1.0, 1);
  WorkloadSet ws{{Workload::latency_sensitive("light", 10.0),
                  Workload::latency_sensitive("heavy", 25.0),
                  Workload::best_effort("batch", 1)}};
  KwaySearch search(ws, {light.get(), heavy.get(), batch.get()}, 260.0);
  const auto r = search.search({4000.0, 6000.0, 0.0});
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.best.size(), 3);
  EXPECT_TRUE(light->ls_qos_ok(4000.0, r.best[0]));
  EXPECT_TRUE(heavy->ls_qos_ok(6000.0, r.best[1]));
  EXPECT_GT(r.best[2].cores, 0);
  EXPECT_GT(r.objective, 0.0);
  EXPECT_EQ(r.slice_throughput.size(), 3u);
  EXPECT_EQ(r.slice_throughput[0], 0.0);
  EXPECT_GT(r.slice_throughput[2], 0.0);
  EXPECT_LE(r.predicted_power_w, 260.0 + 1e-9);
  EXPECT_GT(r.model_invocations, 0u);
}

TEST(KwaySearch, WarmStartFromOptimumMatchesExhaustive) {
  // On a 4-core/3-level/4-way machine the full K = 3 grid is small
  // enough to enumerate. Hill-climbing FROM the global optimum must
  // return exactly it (only strict improvements are taken), so search
  // and oracle agree bit-for-bit.
  const MachineSpec m = tiny_machine();
  const auto pred = testing::fake_predictor(m, 1.0, 1);
  WorkloadSet ws{{Workload::latency_sensitive("ls", 10.0),
                  Workload::best_effort("hi", 2),
                  Workload::best_effort("lo", 0)}};
  KwaySearch search(ws, *pred, 60.0);
  const auto oracle = search.exhaustive({1000.0, 0.0, 0.0});
  ASSERT_TRUE(oracle.feasible);
  const auto warm = search.search({1000.0, 0.0, 0.0}, &oracle.best);
  ASSERT_TRUE(warm.feasible);
  EXPECT_EQ(warm.best, oracle.best);
  EXPECT_EQ(warm.objective, oracle.objective);
  EXPECT_EQ(warm.rounds, 0);
  // The cold search cannot beat the oracle, and the greedy + hill-climb
  // combination should land within 10% of it on this tiny grid.
  const auto cold = search.search({1000.0, 0.0, 0.0});
  ASSERT_TRUE(cold.feasible);
  EXPECT_LE(cold.objective, oracle.objective + 1e-12);
  EXPECT_GE(cold.objective, 0.9 * oracle.objective);
}

TEST(KwaySearch, PairDelegationIsBitIdenticalToConfigSearch) {
  const auto pred = testing::fake_predictor(big, 1.0, 3);
  ConfigSearch pair_search(*pred, 150.0);
  KwaySearch kway(ls_be_pair(), *pred, 150.0);
  for (const double qps : {4000.0, 9000.0, 14000.0}) {
    const auto expect = pair_search.search(qps);
    const auto got = kway.search({qps, 0.0});
    EXPECT_EQ(got.feasible, expect.feasible);
    ASSERT_EQ(got.best.size(), 2);
    EXPECT_EQ(got.best.to_partition(), expect.best);
    EXPECT_EQ(got.predicted_power_w, expect.predicted_power_w);
    EXPECT_EQ(got.slice_throughput[1], expect.predicted_throughput);
    EXPECT_EQ(got.rounds, 0);
  }
}

TEST(KwaySearch, InfeasibleFallsBackToAllToFirst) {
  const auto pred = testing::fake_predictor(big, 10.0, 3);
  WorkloadSet ws{{Workload::latency_sensitive("ls", 10.0),
                  Workload::latency_sensitive("ls2", 10.0),
                  Workload::best_effort("be", 0)}};
  KwaySearch search(ws, *pred, 200.0);
  const auto r = search.search({20000.0, 20000.0, 0.0});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.best, Allocation::all_to_first(big, 3));
  EXPECT_EQ(r.objective, 0.0);
}

TEST(KwaySearch, RejectsBadConstructionAndLoads) {
  const auto pred = testing::fake_predictor(big);
  WorkloadSet ws = ls_be_pair();
  EXPECT_THROW(KwaySearch(ws, {pred.get()}, 100.0), std::invalid_argument);
  EXPECT_THROW(KwaySearch(ws, {pred.get(), nullptr}, 100.0),
               std::invalid_argument);
  EXPECT_THROW(KwaySearch(ws, *pred, 0.0), std::invalid_argument);
  KwaySearch ok(ws, *pred, 100.0);
  EXPECT_THROW(ok.search({1000.0}), std::invalid_argument);  // K mismatch
  EXPECT_THROW(ok.set_power_budget(-5.0), std::invalid_argument);
}

// ---------------------------------------------------------- KwayArbiter

TEST(KwayArbiter, StarvedLsHarvestsFromLowestPriorityBe) {
  WorkloadSet ws{{Workload::latency_sensitive("ls", 10.0),
                  Workload::best_effort("hi", 3),
                  Workload::best_effort("lo", 0)}};
  Allocation a(std::vector<AppSlice>{{6, 2, 8}, {8, 3, 6}, {6, 3, 6}});
  KwayArbiter arbiter;
  const auto next = arbiter.step(ws, {0.02, 0.0, 0.0}, a);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(arbiter.last_action(), "cores");
  EXPECT_EQ((*next)[0].cores, 7);   // starved LS gained the unit
  EXPECT_EQ((*next)[2].cores, 5);   // the priority-0 BE paid it
  EXPECT_EQ((*next)[1].cores, 8);   // the priority-3 BE is untouched

  // Cores-first across the whole BE pool: with the low-priority BE down
  // to its last core, the higher-priority one donates a core before
  // anyone gives up a way.
  Allocation thin(std::vector<AppSlice>{{6, 2, 8}, {13, 3, 6}, {1, 3, 6}});
  const auto next2 = arbiter.step(ws, {0.02, 0.0, 0.0}, thin);
  ASSERT_TRUE(next2.has_value());
  EXPECT_EQ(arbiter.last_action(), "cores");
  EXPECT_EQ((*next2)[1].cores, 12);
  EXPECT_EQ((*next2)[0].cores, 7);

  // Only when EVERY BE slice is down to one core do ways move, again
  // from the lowest-priority slice.
  Allocation bare(std::vector<AppSlice>{{12, 2, 8}, {1, 3, 6}, {1, 3, 6}});
  const auto next3 = arbiter.step(ws, {0.02, 0.0, 0.0}, bare);
  ASSERT_TRUE(next3.has_value());
  EXPECT_EQ(arbiter.last_action(), "ways");
  EXPECT_EQ((*next3)[2].llc_ways, 5);
  EXPECT_EQ((*next3)[0].llc_ways, 9);
}

TEST(KwayArbiter, AllLsFatReturnsToHighestPriorityBe) {
  WorkloadSet ws{{Workload::latency_sensitive("a", 10.0),
                  Workload::latency_sensitive("b", 10.0),
                  Workload::best_effort("hi", 3),
                  Workload::best_effort("lo", 0)}};
  Allocation a(std::vector<AppSlice>{
      {5, 2, 5}, {5, 2, 5}, {5, 3, 5}, {5, 3, 5}});
  KwayArbiter arbiter;
  const auto next = arbiter.step(ws, {0.30, 0.45, 0.0, 0.0}, a);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(arbiter.last_action(), "return:cores");
  EXPECT_EQ((*next)[1].cores, 4);  // fattest LS donated
  EXPECT_EQ((*next)[2].cores, 6);  // highest-priority BE received

  // One LS inside the band blocks any return.
  EXPECT_FALSE(arbiter.step(ws, {0.30, 0.15, 0.0, 0.0}, a).has_value());
  EXPECT_EQ(arbiter.last_action(), "");
  // Everyone in the band: nothing to do either.
  EXPECT_FALSE(arbiter.step(ws, {0.15, 0.15, 0.0, 0.0}, a).has_value());
}

// ------------------------------------------------- bit-compat twin runs

TEST(KwayTwin, RunnerRouteViaAllocationIsBitIdentical) {
  const auto& ls = find_ls("memcached");
  const auto& be = be_catalog()[0];
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.7, 40);

  const auto run_once = [&](bool via_allocation) {
    sim::SimulatedServer probe(ls, be, 7);
    core::SturgeonController policy(
        core::testing::fake_predictor(probe.machine()), ls.qos_target_ms,
        probe.power_budget_w());
    exp::RunConfig rc;
    rc.seed = 11;
    rc.route_via_allocation = via_allocation;
    return exp::run_colocation(ls, be, policy, trace, rc);
  };
  const auto pair = run_once(false);
  const auto kway = run_once(true);
  EXPECT_EQ(pair.qos_guarantee_rate, kway.qos_guarantee_rate);
  EXPECT_EQ(pair.mean_be_throughput_norm, kway.mean_be_throughput_norm);
  EXPECT_EQ(pair.interval_qos_rate, kway.interval_qos_rate);
  EXPECT_EQ(pair.power_overshoot_fraction, kway.power_overshoot_fraction);
  EXPECT_EQ(pair.max_power_ratio, kway.max_power_ratio);
  EXPECT_EQ(pair.intervals_run, kway.intervals_run);
}

TEST(KwayTwin, ClusterRouteViaAllocationIsBitIdentical) {
  const auto make_fleet = [] {
    std::vector<cluster::NodeSpec> specs;
    for (int i = 0; i < 3; ++i) {
      cluster::NodeSpec spec;
      spec.ls = find_ls("memcached");
      spec.be = be_catalog()[0];
      spec.trace = LoadTrace::constant(0.3 + 0.1 * i, 12);
      const double qos_ms = spec.ls.qos_target_ms;
      spec.make_policy = [qos_ms](const sim::SimulatedServer& server) {
        return std::make_unique<core::SturgeonController>(
            core::testing::fake_predictor(server.machine()), qos_ms,
            server.power_budget_w());
      };
      specs.push_back(std::move(spec));
    }
    return specs;
  };
  const auto run_once = [&](bool via_allocation, std::size_t threads = 0) {
    fleet::FleetConfig config;
    config.cluster.seed = 23;
    config.cluster.route_via_allocation = via_allocation;
    config.cluster.threads = threads;
    fleet::FleetSim sim(make_fleet(), config);
    return sim.run().cluster;
  };
  const auto pair = run_once(false);
  const auto kway = run_once(true);
  // The Allocation route stays bit-identical across lockstep widths too.
  const auto kway_1t = run_once(true, 1);
  const auto kway_8t = run_once(true, 8);
  EXPECT_EQ(kway_1t.fleet_qos_guarantee_rate, kway.fleet_qos_guarantee_rate);
  EXPECT_EQ(kway_8t.fleet_qos_guarantee_rate, kway.fleet_qos_guarantee_rate);
  EXPECT_EQ(kway_1t.mean_cluster_power_w, kway.mean_cluster_power_w);
  EXPECT_EQ(kway_8t.mean_cluster_power_w, kway.mean_cluster_power_w);
  EXPECT_EQ(pair.fleet_qos_guarantee_rate, kway.fleet_qos_guarantee_rate);
  EXPECT_EQ(pair.aggregate_be_throughput, kway.aggregate_be_throughput);
  EXPECT_EQ(pair.mean_cluster_power_w, kway.mean_cluster_power_w);
  EXPECT_EQ(pair.max_cluster_power_ratio, kway.max_cluster_power_ratio);
  ASSERT_EQ(pair.node_results.size(), kway.node_results.size());
  for (std::size_t i = 0; i < pair.node_results.size(); ++i) {
    EXPECT_EQ(pair.node_results[i].total_completed,
              kway.node_results[i].total_completed);
    EXPECT_EQ(pair.node_results[i].total_violations,
              kway.node_results[i].total_violations);
    EXPECT_EQ(pair.node_results[i].mean_be_throughput_norm,
              kway.node_results[i].mean_be_throughput_norm);
    EXPECT_EQ(pair.node_results[i].mean_cap_w,
              kway.node_results[i].mean_cap_w);
  }
}

}  // namespace
}  // namespace sturgeon::core
