// Comms-fabric overhead gate: routing every cap grant, node report, and
// heartbeat through the in-process message channel must cost (almost)
// nothing when the network is reliable -- the protocol layer is pure
// bookkeeping until faults are configured.
//
// Two 64-node event-engine runs, identical seed and fleet:
//
//   direct -- the engines' shared-memory path (comms disabled);
//   comms  -- every coordinator<->node exchange crosses the zero-fault
//             MessageChannel (typed envelopes, sequence numbers, grant
//             ledger accounting all active).
//
// Gates:
//   1. the two runs are bit-identical on every behavioral output (QoS,
//      throughput, power, skipping, churn) -- the reliable channel is a
//      refactor, not a behavior change;
//   2. the comms run's throughput stays within 2% of direct. Each path
//      is timed over several repetitions, alternating direct and comms
//      so host drift hits both alike, and compared by its fastest
//      repetition (min-of-N: noise only ever adds time). Nodes step on
//      one worker thread and each run is timed in process CPU time, so
//      pool scheduling and preemption stay out of the figure.
//
// Exits non-zero if a gate fails. STURGEON_QUICK=1 runs fewer
// repetitions.
#include <algorithm>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet.h"
#include "util/rng.h"
#include "util/table.h"

using namespace sturgeon;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  [pass] " : "  [FAIL] ") << what << "\n";
  if (!ok) ++g_failures;
}

/// Same scaled-DES profile trick as fleet_scale.cpp: the bench times the
/// control plane (where the channel lives), not event fidelity.
LsProfile scaled_ls() {
  LsProfile ls = find_ls("memcached");
  ls.name = "memcached-comms";
  ls.sim_scale = 0.02;
  return ls;
}

std::vector<cluster::NodeSpec> phased_fleet(int n, int epochs) {
  const auto& bes = be_catalog();
  const LsProfile ls = scaled_ls();
  core::TrainerConfig trainer;
  trainer.ls_samples = 250;
  trainer.ls_boundary_searches = 60;
  trainer.be_samples = 150;
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cluster::NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
    spec.trace = LoadTrace::diurnal_phased(
        0.18, 0.55, epochs, static_cast<double>(i) / static_cast<double>(n));
    spec.trainer = trainer;
    specs.push_back(std::move(spec));
  }
  return specs;
}

fleet::FleetConfig fleet_config(bool comms) {
  fleet::FleetConfig config;
  config.cluster.seed = 11;
  config.cluster.threads = 1;
  config.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  config.cluster.governor.relax_margin = 0.90;
  config.quiescence.enabled = true;
  config.quiescence.load_epsilon = 0.10;
  config.quiescence.max_sleep_epochs = 64;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_epoch = 0.5;
  config.churn.mean_size_norm_s = 20.0;
  config.churn.slots_per_node = 4;
  config.delta.rebalance_period = 32;
  // comms.network stays all-zero: the channel is RELIABLE, the exact
  // configuration the bit-identity contract covers.
  config.cluster.comms.enabled = comms;
  return config;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed run; keeps the least CPU time seen in `*best_cpu_s`.
fleet::FleetResult timed_run(int nodes, int epochs, bool comms,
                             double* best_cpu_s) {
  fleet::FleetSim sim(phased_fleet(nodes, epochs), fleet_config(comms));
  const double c0 = process_cpu_s();
  fleet::FleetResult result = sim.run();
  *best_cpu_s = std::min(*best_cpu_s, process_cpu_s() - c0);
  return result;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const int nodes = 64;
  const int epochs = 120;
  const int reps = quick ? 7 : 15;

  std::cout << "== overhead_comms: zero-fault channel cost at " << nodes
            << " nodes, min of " << reps << " alternating runs ==\n";
  double direct_cpu = 1e30, comms_cpu = 1e30;
  fleet::FleetResult direct, comms;
  for (int rep = 0; rep < reps; ++rep) {
    direct = timed_run(nodes, epochs, /*comms=*/false, &direct_cpu);
    comms = timed_run(nodes, epochs, /*comms=*/true, &comms_cpu);
  }
  const double direct_eps = static_cast<double>(direct.cluster.epochs) /
                            direct_cpu;
  const double comms_eps = static_cast<double>(comms.cluster.epochs) /
                           comms_cpu;

  TablePrinter table({"path", "epochs", "cpu s", "epochs/s"});
  table.add_row({"direct (shared memory)", std::to_string(direct.cluster.epochs),
                 TablePrinter::fmt(direct_cpu, 3),
                 TablePrinter::fmt(direct_eps, 1)});
  table.add_row({"zero-fault channel", std::to_string(comms.cluster.epochs),
                 TablePrinter::fmt(comms_cpu, 3),
                 TablePrinter::fmt(comms_eps, 1)});
  table.print(std::cout);

  expect(comms.cluster.fleet_qos_guarantee_rate ==
                 direct.cluster.fleet_qos_guarantee_rate &&
             comms.cluster.aggregate_be_throughput ==
                 direct.cluster.aggregate_be_throughput &&
             comms.cluster.mean_cluster_power_w ==
                 direct.cluster.mean_cluster_power_w &&
             comms.cluster.max_cap_sum_ratio ==
                 direct.cluster.max_cap_sum_ratio,
         "reliable channel is bit-identical to the direct path "
         "(QoS, throughput, power, cap-sum)");
  expect(comms.total_skipped_epochs == direct.total_skipped_epochs &&
             comms.total_wakes == direct.total_wakes &&
             comms.jobs_completed == direct.jobs_completed &&
             comms.events_processed == direct.events_processed,
         "engine bookkeeping (skipping, wakes, churn, events) matches");
  expect(comms.cluster.comms_sent > 0 && direct.cluster.comms_sent == 0,
         "the comms run actually used the channel and the direct run "
         "did not");
  const double overhead = (direct_eps - comms_eps) / direct_eps;
  std::cout << "  channel overhead: " << TablePrinter::fmt_pct(overhead, 2)
            << " of direct throughput\n";
  expect(overhead <= 0.02,
         "zero-fault channel stays within 2% of direct throughput");

  std::cout << (g_failures == 0 ? "\nall gates passed\n" : "\ngates FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
