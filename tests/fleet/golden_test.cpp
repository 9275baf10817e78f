// Golden results: every ClusterResult and FleetResult field, for each
// coordinator x quiescence off/on x churn off/on x comms off / zero-fault
// / chaos-net, plus a node-fault schedule in both modes, on small
// fake-model fleets. The committed file (golden_results.txt) holds each
// field's exact value in shortest round-trip form (node fields list one
// value per node), so any change to an engine's arithmetic shows up as a
// named field with its old and new value.
//
// On a mismatch the test writes the full actual table to
// golden_results.actual.txt in its working directory (build/tests under
// ctest). A deliberate result change is accepted by copying that file
// over tests/fleet/golden_results.txt and naming each moved field, with
// its largest relative difference, in the commit message.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "../core/fake_models.h"
#include "core/controller.h"
#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::fleet {
namespace {

using cluster::ClusterResult;
using cluster::CoordinatorKind;
using cluster::NodeResult;
using cluster::NodeSpec;

constexpr int kNodes = 4;
constexpr int kEpochs = 40;

NodeSpec fake_spec(const LoadTrace& trace) {
  NodeSpec spec;
  spec.ls = find_ls("memcached");
  spec.be = be_catalog()[0];
  spec.trace = trace;
  const double qos_ms = spec.ls.qos_target_ms;
  spec.make_policy = [qos_ms](const sim::SimulatedServer& server) {
    return std::make_unique<core::SturgeonController>(
        core::testing::fake_predictor(server.machine()), qos_ms,
        server.power_budget_w());
  };
  return spec;
}

/// Even nodes hold a constant load (quiescence candidates); odd nodes
/// step through load levels, so the event engine sees trace-shift wakes.
std::vector<NodeSpec> fleet_specs() {
  std::vector<NodeSpec> specs;
  for (int i = 0; i < kNodes; ++i) {
    specs.push_back(fake_spec(
        i % 2 == 0 ? LoadTrace::constant(0.3 + 0.1 * i, kEpochs)
                   : LoadTrace::steps({0.3, 0.6, 0.4, 0.7}, kEpochs / 4)));
  }
  return specs;
}

comms::CommsConfig chaos_net() {
  comms::CommsConfig c;
  c.enabled = true;
  c.lease_epochs = 8;
  c.renew_ahead_epochs = 2;
  c.retry_max_epochs = 4;
  c.network.drop_p = 0.10;
  c.network.delay_p = 0.10;
  c.network.duplicate_p = 0.05;
  c.network.reorder_p = 0.30;
  c.network.partition_start_epoch = 15;
  c.network.partition_epochs = 10;
  c.network.partition_node = -1;
  return c;
}

/// Sensor dropout everywhere, one actuator burst, and node 1 crashing
/// for six epochs mid-run, under the full defense stack.
void arm_faults(cluster::ClusterConfig& c) {
  c.resilience.sanitize_sensors = true;
  c.resilience.watchdog.enabled = true;
  c.resilience.retry.max_attempts = 4;
  c.resilience.heartbeat.dead_after_epochs = 3;
  c.faults.enabled = true;
  c.faults.sensor.dropout_p = 0.05;
  c.faults.actuator.burst_start_epoch = 10;
  c.faults.actuator.burst_epochs = 3;
  c.faults.actuator.burst_fail_p = 0.9;
  c.faults.node.victim = 1;
  c.faults.node.crash_epoch = 15;
  c.faults.node.crash_epochs = 6;
}

struct GoldenCase {
  std::string name;
  FleetConfig config;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto make = [](CoordinatorKind kind, bool quiesce, bool churn) {
    FleetConfig fc;
    fc.cluster.seed = 101;
    fc.cluster.threads = 2;
    fc.cluster.coordinator = kind;
    fc.quiescence.enabled = quiesce;
    fc.quiescence.min_sleep_epochs = 1;
    fc.quiescence.max_sleep_epochs = 8;
    fc.delta.rebalance_period = 10;
    fc.churn.enabled = churn;
    fc.churn.arrival_rate_per_epoch = 0.4;
    fc.churn.mean_size_norm_s = 2.0;
    fc.churn.size_cv = 0.5;
    fc.churn.slots_per_node = 2;
    return fc;
  };
  for (const auto kind :
       {CoordinatorKind::kStaticEqual, CoordinatorKind::kDemandProportional,
        CoordinatorKind::kSlackHarvest}) {
    for (const bool quiesce : {false, true}) {
      for (const bool churn : {false, true}) {
        for (const int net : {0, 1, 2}) {
          FleetConfig fc = make(kind, quiesce, churn);
          if (net == 1) fc.cluster.comms.enabled = true;
          if (net == 2) fc.cluster.comms = chaos_net();
          cases.push_back(
              {std::string(cluster::to_string(kind)) +
                   (quiesce ? "/quiesce" : "/no-quiesce") +
                   (churn ? "/churn" : "/no-churn") +
                   (net == 0 ? "/direct"
                             : net == 1 ? "/zero-fault" : "/chaos-net"),
               fc});
        }
      }
    }
  }
  for (const bool quiesce : {false, true}) {
    FleetConfig fc = make(CoordinatorKind::kSlackHarvest, quiesce, quiesce);
    arm_faults(fc.cluster);
    cases.push_back({std::string("node-faults") +
                         (quiesce ? "/quiesce/churn" : "/no-quiesce/no-churn"),
                     fc});
  }
  return cases;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

template <typename T>
std::string text(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    // Shortest round-trip form: exact for doubles, plain for integers.
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
  }
}

template <typename T>
std::string join(const std::vector<T>& vs) {
  std::string out = vs.empty() ? "-" : "";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    out += (i == 0 ? "" : " ") + text(vs[i]);
  }
  return out;
}

Fields cluster_fields(const ClusterResult& r) {
  Fields f;
  const auto put = [&f](const std::string& name, const auto& v) {
    f.emplace_back(name, text(v));
  };
  put("fleet_qos_guarantee_rate", r.fleet_qos_guarantee_rate);
  put("aggregate_be_throughput", r.aggregate_be_throughput);
  put("cluster_power_budget_w", r.cluster_power_budget_w);
  put("cluster_overshoot_fraction", r.cluster_overshoot_fraction);
  put("max_cluster_power_ratio", r.max_cluster_power_ratio);
  put("mean_cluster_power_w", r.mean_cluster_power_w);
  put("max_cap_sum_ratio", r.max_cap_sum_ratio);
  put("dead_node_epochs", r.dead_node_epochs);
  f.emplace_back("recovery_mttr_epochs", join(r.recovery_mttr_epochs));
  put("mttr_p95_epochs", r.mttr_p95_epochs);
  put("epochs", r.epochs);
  put("nodes", r.nodes);
  put("coordinator", r.coordinator);
  put("comms_sent", r.comms_sent);
  put("comms_dropped", r.comms_dropped);
  put("comms_delayed", r.comms_delayed);
  put("comms_duplicated", r.comms_duplicated);
  put("comms_grants_sent", r.comms_grants_sent);
  put("comms_grants_delivered", r.comms_grants_delivered);
  put("comms_grants_dropped", r.comms_grants_dropped);
  put("comms_grants_in_flight", r.comms_grants_in_flight);
  put("comms_lease_renewals", r.comms_lease_renewals);
  put("comms_lease_expiries", r.comms_lease_expiries);
  put("comms_autonomy_epochs", r.comms_autonomy_epochs);

  // One line per NodeResult field, values in node order.
  const auto per_node = [&f, &r](const std::string& name, auto get) {
    std::string line;
    for (std::size_t i = 0; i < r.node_results.size(); ++i) {
      line += (i == 0 ? "" : " ") + text(get(r.node_results[i]));
    }
    f.emplace_back("node." + name, line);
  };
  per_node("node", [](const NodeResult& n) { return n.node; });
  per_node("policy", [](const NodeResult& n) { return n.policy; });
  per_node("ls", [](const NodeResult& n) { return n.ls; });
  per_node("be", [](const NodeResult& n) { return n.be; });
  per_node("epochs", [](const NodeResult& n) { return n.epochs; });
  per_node("total_completed",
           [](const NodeResult& n) { return n.total_completed; });
  per_node("total_violations",
           [](const NodeResult& n) { return n.total_violations; });
  per_node("qos_guarantee_rate",
           [](const NodeResult& n) { return n.qos_guarantee_rate; });
  per_node("interval_qos_rate",
           [](const NodeResult& n) { return n.interval_qos_rate; });
  per_node("mean_be_throughput_norm",
           [](const NodeResult& n) { return n.mean_be_throughput_norm; });
  per_node("budget_w", [](const NodeResult& n) { return n.budget_w; });
  per_node("mean_cap_w", [](const NodeResult& n) { return n.mean_cap_w; });
  per_node("max_power_ratio",
           [](const NodeResult& n) { return n.max_power_ratio; });
  per_node("throttled_epochs",
           [](const NodeResult& n) { return n.throttled_epochs; });
  per_node("epochs_down", [](const NodeResult& n) { return n.epochs_down; });
  per_node("epochs_hung", [](const NodeResult& n) { return n.epochs_hung; });
  per_node("safe_mode_epochs",
           [](const NodeResult& n) { return n.safe_mode_epochs; });
  per_node("watchdog_trips",
           [](const NodeResult& n) { return n.watchdog_trips; });
  per_node("safe_mode_episodes", [](const NodeResult& n) {
    return "[" + join(n.safe_mode_episodes) + "]";
  });
  per_node("faults_injected",
           [](const NodeResult& n) { return n.faults_injected; });
  per_node("sensor_rejected",
           [](const NodeResult& n) { return n.sensor_rejected; });
  per_node("actuator_retries",
           [](const NodeResult& n) { return n.actuator_retries; });
  per_node("actuator_gave_up",
           [](const NodeResult& n) { return n.actuator_gave_up; });
  per_node("skipped_epochs",
           [](const NodeResult& n) { return n.skipped_epochs; });
  per_node("wakes", [](const NodeResult& n) { return n.wakes; });
  per_node("lease_renewals",
           [](const NodeResult& n) { return n.lease_renewals; });
  per_node("lease_expiries",
           [](const NodeResult& n) { return n.lease_expiries; });
  per_node("autonomy_epochs",
           [](const NodeResult& n) { return n.autonomy_epochs; });
  per_node("last_autonomy_epoch",
           [](const NodeResult& n) { return n.last_autonomy_epoch; });
  return f;
}

Fields fleet_fields(const FleetResult& r) {
  Fields f = cluster_fields(r.cluster);
  const auto put = [&f](const std::string& name, const auto& v) {
    f.emplace_back("fleet." + name, text(v));
  };
  put("total_skipped_epochs", r.total_skipped_epochs);
  put("total_wakes", r.total_wakes);
  put("skipped_fraction", r.skipped_fraction);
  put("events_processed", r.events_processed);
  put("event_queue_peak", r.event_queue_peak);
  put("cap_revisions", r.cap_revisions);
  put("rebalances", r.rebalances);
  put("jobs_submitted", r.jobs_submitted);
  put("jobs_placed", r.jobs_placed);
  put("jobs_completed", r.jobs_completed);
  put("jobs_migrated", r.jobs_migrated);
  put("jobs_rejected", r.jobs_rejected);
  put("job_queue_peak", r.job_queue_peak);
  put("mean_job_completion_epochs", r.mean_job_completion_epochs);
  put("jobs_active_at_end", r.jobs_active_at_end);
  put("jobs_queued_at_end", r.jobs_queued_at_end);
  return f;
}

/// "[case]" headers, then "field value" lines (value = rest of line).
using Golden = std::map<std::string, std::map<std::string, std::string>>;

Golden read_golden(const std::string& path) {
  Golden g;
  std::ifstream in(path);
  std::string line, current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[' && line.back() == ']') {
      current = line.substr(1, line.size() - 2);
      continue;
    }
    const std::size_t sp = line.find(' ');
    g[current][line.substr(0, sp)] =
        sp == std::string::npos ? "" : line.substr(sp + 1);
  }
  return g;
}

/// Compare `fields` against the golden entries of `name`; returns the
/// number of mismatches and reports each.
int compare(const Golden& golden, const std::string& name,
            const Fields& fields) {
  const auto it = golden.find(name);
  if (it == golden.end()) {
    ADD_FAILURE() << "no golden entry for case " << name;
    return 1;
  }
  int mismatches = 0;
  for (const auto& [field, value] : fields) {
    const auto want = it->second.find(field);
    if (want == it->second.end()) {
      ADD_FAILURE() << name << ": no golden value for " << field;
      ++mismatches;
    } else if (want->second != value) {
      ADD_FAILURE() << name << ": " << field << " moved\n  golden: "
                    << want->second << "\n  actual: " << value;
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(FleetGolden, EveryModeMatchesCommittedResults) {
  const Golden golden = read_golden(STURGEON_GOLDEN_FILE);
  std::ostringstream actual;
  actual << "# Golden results for tests/fleet/golden_test.cpp; "
            "regenerate only for a deliberate result change.\n";
  int mismatches = 0;
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    FleetSim sim(fleet_specs(), c.config);
    const Fields fields = fleet_fields(sim.run());
    actual << "[" << c.name << "]\n";
    for (const auto& [field, value] : fields) {
      actual << field << " " << value << "\n";
    }
    mismatches += compare(golden, c.name, fields);
  }
  if (mismatches > 0) {
    std::ofstream("golden_results.actual.txt") << actual.str();
  }
}

}  // namespace
}  // namespace sturgeon::fleet
