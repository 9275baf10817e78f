#include "workloads.h"

#include <sstream>

#include "util/rng.h"
#include "workloads/app_profile.h"

namespace perfbench {

using namespace sturgeon;

namespace {

// -- params: every entry is read from the field or constant it names ----

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void put(Params& p, const std::string& key, double v) {
  p.emplace_back(key, num(v));
}
void put_flag(Params& p, const std::string& key, bool v) {
  p.emplace_back(key, v ? "true" : "false");
}
void put_str(Params& p, const std::string& key, const std::string& v) {
  p.emplace_back(key, "\"" + v + "\"");
}
void put_list(Params& p, const std::string& key,
              const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + items[i] + "\"";
  }
  p.emplace_back(key, out + "]");
}

void describe(Params& p, const std::string& pre, const sim::ServerConfig& s) {
  const MachineSpec& m = s.machine;
  put(p, pre + "machine.num_cores", m.num_cores);
  put(p, pre + "machine.freq_levels", m.num_freq_levels());
  put(p, pre + "machine.min_freq_ghz", m.min_freq_ghz());
  put(p, pre + "machine.max_freq_ghz", m.max_freq_ghz());
  put(p, pre + "machine.llc_ways", m.llc_ways);
  put(p, pre + "machine.llc_mb", m.llc_mb);
  put(p, pre + "machine.mem_bw_gbps", m.mem_bw_gbps);
  put(p, pre + "power.uncore_w", s.power.uncore_w);
  put(p, pre + "power.core_static_w", s.power.core_static_w);
  put(p, pre + "power.k_dyn", s.power.k_dyn);
  put(p, pre + "power.alpha", s.power.alpha);
  put(p, pre + "power.util_floor", s.power.util_floor);
  put(p, pre + "power.k_bw_w_per_gbps", s.power.k_bw_w_per_gbps);
  put_flag(p, pre + "interference.enabled", s.interference.enabled);
  put(p, pre + "interference.episode_rate_per_s",
      s.interference.episode_rate_per_s);
  put(p, pre + "interference.min_duration_s", s.interference.min_duration_s);
  put(p, pre + "interference.max_duration_s", s.interference.max_duration_s);
  put(p, pre + "interference.min_factor", s.interference.min_factor);
  put(p, pre + "interference.max_factor", s.interference.max_factor);
  put(p, pre + "power_noise", s.power_noise);
}

void describe(Params& p, const core::TrainerConfig& t) {
  put(p, "trainer.ls_samples", t.ls_samples);
  put(p, "trainer.ls_boundary_searches", t.ls_boundary_searches);
  put(p, "trainer.be_samples", t.be_samples);
  put(p, "trainer.intervals_per_sample", t.intervals_per_sample);
  put(p, "trainer.test_fraction", t.test_fraction);
  put(p, "trainer.qos_label_margin", t.qos_label_margin);
  put(p, "trainer.seed", static_cast<double>(t.seed));
  describe(p, "trainer.server.", t.server);
}

void describe(Params& p, const fleet::FleetConfig& fc) {
  const cluster::ClusterConfig& c = fc.cluster;
  put(p, "cluster.seed", static_cast<double>(c.seed));
  put(p, "cluster.threads", static_cast<double>(c.threads));
  put(p, "cluster.power_budget_w", c.power_budget_w);
  put(p, "cluster.oversubscription", c.oversubscription);
  put(p, "cluster.power_tolerance", c.power_tolerance);
  put_str(p, "cluster.coordinator", cluster::to_string(c.coordinator));
  put(p, "cluster.coordinator.alpha", c.coordinator_config.alpha);
  put(p, "cluster.coordinator.beta", c.coordinator_config.beta);
  put(p, "cluster.coordinator.donate_fraction",
      c.coordinator_config.donate_fraction);
  put(p, "cluster.coordinator.headroom_margin",
      c.coordinator_config.headroom_margin);
  put(p, "cluster.coordinator.min_cap_fraction",
      c.coordinator_config.min_cap_fraction);
  put_str(p, "cluster.placement", cluster::to_string(c.placement));
  put_flag(p, "cluster.governor.enabled", c.governor.enabled);
  put(p, "cluster.governor.relax_margin", c.governor.relax_margin);
  put_flag(p, "cluster.route_via_allocation", c.route_via_allocation);
  const cluster::ResilienceConfig& r = c.resilience;
  put_flag(p, "resilience.sanitize_sensors", r.sanitize_sensors);
  put_flag(p, "resilience.watchdog.enabled", r.watchdog.enabled);
  put(p, "resilience.watchdog.trip_after", r.watchdog.trip_after);
  put(p, "resilience.watchdog.clear_after", r.watchdog.clear_after);
  put(p, "resilience.watchdog.cap_overshoot_tolerance",
      r.watchdog.cap_overshoot_tolerance);
  put(p, "resilience.retry.max_attempts", r.retry.max_attempts);
  put(p, "resilience.retry.base_backoff_us", r.retry.base_backoff_us);
  put(p, "resilience.retry.max_backoff_us", r.retry.max_backoff_us);
  put(p, "resilience.retry.jitter", r.retry.jitter);
  put(p, "resilience.heartbeat.dead_after_epochs",
      r.heartbeat.dead_after_epochs);
  const comms::CommsConfig& cc = c.comms;
  put_flag(p, "comms.enabled", cc.enabled);
  put(p, "comms.lease_epochs", cc.lease_epochs);
  put(p, "comms.renew_ahead_epochs", cc.renew_ahead_epochs);
  put(p, "comms.grant_epsilon_w", cc.grant_epsilon_w);
  put(p, "comms.retry_base_epochs", cc.retry_base_epochs);
  put(p, "comms.retry_max_epochs", cc.retry_max_epochs);
  put(p, "comms.retry_jitter", cc.retry_jitter);
  const fault::NetworkFaultConfig& n = cc.network;
  put(p, "comms.network.drop_p", n.drop_p);
  put(p, "comms.network.delay_p", n.delay_p);
  put(p, "comms.network.max_delay_epochs", n.max_delay_epochs);
  put(p, "comms.network.duplicate_p", n.duplicate_p);
  put(p, "comms.network.reorder_p", n.reorder_p);
  put(p, "comms.network.partition_start_epoch", n.partition_start_epoch);
  put(p, "comms.network.partition_epochs", n.partition_epochs);
  put(p, "comms.network.partition_node", n.partition_node);
  const fleet::QuiescenceConfig& q = fc.quiescence;
  put_flag(p, "quiescence.enabled", q.enabled);
  put(p, "quiescence.load_epsilon", q.load_epsilon);
  put(p, "quiescence.min_slack", q.min_slack);
  put(p, "quiescence.cap_headroom", q.cap_headroom);
  put(p, "quiescence.max_sleep_epochs", q.max_sleep_epochs);
  put(p, "quiescence.min_sleep_epochs", q.min_sleep_epochs);
  const fleet::ChurnConfig& ch = fc.churn;
  put_flag(p, "churn.enabled", ch.enabled);
  put(p, "churn.arrival_rate_per_epoch", ch.arrival_rate_per_epoch);
  put(p, "churn.mean_size_norm_s", ch.mean_size_norm_s);
  put(p, "churn.size_cv", ch.size_cv);
  put(p, "churn.slots_per_node", ch.slots_per_node);
  put_flag(p, "churn.queue_when_full", ch.queue_when_full);
  put(p, "churn.migrate_after_epochs", ch.migrate_after_epochs);
  const fleet::DeltaCoordinatorConfig& d = fc.delta;
  put(p, "delta.rebalance_period", d.rebalance_period);
  put(p, "delta.pressure_ratio", d.pressure_ratio);
  put(p, "delta.grant_fraction", d.grant_fraction);
  put(p, "delta.shrink_ratio", d.shrink_ratio);
  put(p, "delta.headroom_margin", d.headroom_margin);
  put(p, "delta.min_cap_fraction", d.min_cap_fraction);
  put_str(p, "job_placement", cluster::to_string(fc.job_placement));
}

std::vector<std::string> ls_names() {
  std::vector<std::string> out;
  for (const auto& ls : ls_catalog()) out.push_back(ls.name);
  return out;
}

std::vector<std::string> be_names() {
  std::vector<std::string> out;
  for (const auto& be : be_catalog()) out.push_back(be.name);
  return out;
}

// -- fleet-diurnal-churn ------------------------------------------------
constexpr int kDiurnalNodes = 10000;
constexpr int kDiurnalEpochs = 200;
/// Job arrivals per node-epoch: arrivals scale with the fleet so that
/// per-node utilization stays fixed as the fleet grows.
constexpr double kArrivalsPerNodeEpoch = 0.002;
constexpr const char* kDiurnalLs = "memcached";
/// The fleet's LS profile trains its own (tiny) profiling campaign.
constexpr const char* kDiurnalLsName = "memcached-fleet";
/// DES arrival scale of the fleet's LS profile: the workload times the
/// fleet engine, not DES fidelity.
constexpr double kDiurnalSimScale = 0.002;
/// Diurnal load band; node i is phase-offset by i / nodes of a period.
constexpr double kDiurnalLow = 0.18;
constexpr double kDiurnalHigh = 0.50;

// -- cluster-chaosnet ---------------------------------------------------
constexpr int kChaosNodes = 72;
constexpr int kChaosEpochs = 240;
/// The paper's 20 -> 80 -> 20% ramp, with per-node relative noise.
constexpr double kRampLow = 0.2;
constexpr double kRampHigh = 0.8;
constexpr double kChaosTraceNoise = 0.05;
constexpr std::uint64_t kTraceNoiseStream = 0x7261;
constexpr int kMachineClasses = 4;

/// Machine class `k`: stock, low-uncore efficient, high-uncore leaky,
/// and a noisy-neighbour-prone box.
sim::ServerConfig machine_class(int k) {
  sim::ServerConfig s;
  switch (k) {
    case 1:
      s.power.uncore_w = 16.0;
      s.power.k_dyn = 0.55;
      break;
    case 2:
      s.power.uncore_w = 20.0;
      s.power.k_dyn = 0.66;
      break;
    case 3:
      s.interference.episode_rate_per_s = 0.016;
      s.power_noise = 0.02;
      break;
    default:
      break;
  }
  return s;
}

// -- paper-pairs --------------------------------------------------------
constexpr int kPairsIntervals = 240;
constexpr std::uint64_t kPairSeedStream = 0x70616972;

/// Trainer used by both fleet workloads: a reduced campaign so that a
/// 72-node fleet's setup stays a few seconds.
core::TrainerConfig fleet_trainer() {
  core::TrainerConfig t;
  t.ls_samples = 250;
  t.ls_boundary_searches = 60;
  t.be_samples = 150;
  return t;
}

}  // namespace

FleetWorkload fleet_diurnal_churn(std::uint64_t seed, std::size_t threads) {
  FleetWorkload w;
  w.name = "fleet-diurnal-churn";
  w.nodes = kDiurnalNodes;
  w.epochs = kDiurnalEpochs;
  w.trainer = fleet_trainer();

  fleet::FleetConfig& fc = w.config;
  fc.cluster.seed = seed;
  fc.cluster.threads = threads;
  fc.cluster.oversubscription = 1.0;
  fc.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  fc.cluster.governor.relax_margin = 0.90;
  fc.quiescence.enabled = true;
  fc.quiescence.load_epsilon = 0.12;
  fc.quiescence.cap_headroom = 0.02;
  fc.quiescence.max_sleep_epochs = 128;
  fc.churn.enabled = true;
  fc.churn.arrival_rate_per_epoch = kArrivalsPerNodeEpoch * kDiurnalNodes;
  fc.churn.mean_size_norm_s = 30.0;
  fc.churn.slots_per_node = 4;
  fc.delta.rebalance_period = 64;

  Params& p = w.params;
  put(p, "nodes", w.nodes);
  put(p, "epochs", w.epochs);
  put_str(p, "engine", fc.quiescence.enabled ? "events" : "lockstep");
  put_str(p, "ls", kDiurnalLs);
  put_str(p, "ls_profile_name", kDiurnalLsName);
  put(p, "ls_sim_scale", kDiurnalSimScale);
  put_list(p, "be_round_robin", be_names());
  put_str(p, "trace", "diurnal_phased");
  put(p, "trace.low", kDiurnalLow);
  put(p, "trace.high", kDiurnalHigh);
  put(p, "trace.duration_s", w.epochs);
  put_str(p, "trace.phase", "node / nodes");
  put(p, "arrivals_per_node_epoch", kArrivalsPerNodeEpoch);
  describe(p, w.config);
  describe(p, "node.server.", machine_class(0));
  describe(p, w.trainer);
  return w;
}

FleetWorkload cluster_chaosnet(std::uint64_t seed, std::size_t threads) {
  FleetWorkload w;
  w.name = "cluster-chaosnet";
  w.nodes = kChaosNodes;
  w.epochs = kChaosEpochs;
  w.trainer = fleet_trainer();

  fleet::FleetConfig& fc = w.config;
  fc.cluster.seed = seed;
  fc.cluster.threads = threads;
  fc.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  fc.cluster.resilience.heartbeat.dead_after_epochs = 3;
  fc.cluster.comms.enabled = true;
  fc.cluster.comms.lease_epochs = 8;
  fc.cluster.comms.renew_ahead_epochs = 3;
  fault::NetworkFaultConfig& net = fc.cluster.comms.network;
  net.drop_p = 0.05;
  net.delay_p = 0.05;
  net.max_delay_epochs = 3;
  net.duplicate_p = 0.02;
  net.reorder_p = 0.05;
  net.partition_start_epoch = kChaosEpochs / 2;
  net.partition_epochs = 20;
  net.partition_node = -1;

  Params& p = w.params;
  put(p, "nodes", w.nodes);
  put(p, "epochs", w.epochs);
  put_str(p, "engine", fc.quiescence.enabled ? "events" : "lockstep");
  put_list(p, "ls_catalog", ls_names());
  put_list(p, "be_catalog", be_names());
  put_str(p, "pair_of_node", "node % (ls x be) in LS-major order");
  put_str(p, "trace", "ramp_up_down + with_noise");
  put(p, "trace.low", kRampLow);
  put(p, "trace.high", kRampHigh);
  put(p, "trace.duration_s", w.epochs);
  put(p, "trace.noise", kChaosTraceNoise);
  put(p, "trace.noise_seed_stream", static_cast<double>(kTraceNoiseStream));
  describe(p, w.config);
  put(p, "machine_classes", kMachineClasses);
  for (int k = 0; k < kMachineClasses; ++k) {
    describe(p, "node_class." + std::to_string(k) + ".server.",
             machine_class(k));
  }
  describe(p, w.trainer);
  return w;
}

std::vector<cluster::NodeSpec> build_specs(const FleetWorkload& w) {
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(w.nodes));
  const auto& lss = ls_catalog();
  const auto& bes = be_catalog();
  if (w.config.churn.enabled) {
    LsProfile ls = find_ls(kDiurnalLs);
    ls.name = kDiurnalLsName;
    ls.sim_scale = kDiurnalSimScale;
    for (int i = 0; i < w.nodes; ++i) {
      cluster::NodeSpec spec;
      spec.ls = ls;
      spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
      spec.trace = LoadTrace::diurnal_phased(
          kDiurnalLow, kDiurnalHigh, w.epochs,
          static_cast<double>(i) / static_cast<double>(w.nodes));
      spec.server = machine_class(0);
      spec.trainer = w.trainer;
      specs.push_back(std::move(spec));
    }
    return specs;
  }
  const LoadTrace ramp = LoadTrace::ramp_up_down(kRampLow, kRampHigh, w.epochs);
  const std::size_t pairs = lss.size() * bes.size();
  for (int i = 0; i < w.nodes; ++i) {
    const auto u = static_cast<std::size_t>(i);
    cluster::NodeSpec spec;
    spec.ls = lss[(u % pairs) / bes.size()];
    spec.be = bes[u % bes.size()];
    spec.trace = ramp.with_noise(
        kChaosTraceNoise,
        derive_seed(w.config.cluster.seed, kTraceNoiseStream, u));
    spec.trainer = w.trainer;
    spec.server = machine_class(i % kMachineClasses);
    specs.push_back(std::move(spec));
  }
  return specs;
}

PairsWorkload paper_pairs(std::uint64_t seed) {
  PairsWorkload w;
  w.seed = seed;
  w.trace = LoadTrace::ramp_up_down(kRampLow, kRampHigh, kPairsIntervals);

  Params& p = w.params;
  put(p, "seed", static_cast<double>(seed));
  put_list(p, "ls_catalog", ls_names());
  put_list(p, "be_catalog", be_names());
  put(p, "pairs", static_cast<double>(ls_catalog().size() *
                                      be_catalog().size()));
  put_list(p, "policies", {"sturgeon", "sturgeon-nob", "parties"});
  put_str(p, "trace", "ramp_up_down");
  put(p, "trace.low", kRampLow);
  put(p, "trace.high", kRampHigh);
  put(p, "trace.duration_s", w.trace.duration_s());
  put(p, "threads", 1);
  put_str(p, "run_seed", "derive_seed(seed, pair_seed_stream, pair index)");
  put(p, "pair_seed_stream", static_cast<double>(kPairSeedStream));
  put(p, "budget_probe_seed", static_cast<double>(kBudgetProbeSeed));
  put_flag(p, "run.route_via_allocation", w.run.route_via_allocation);
  put(p, "run.abort_after_violation_s", w.run.abort_after_violation_s);
  put(p, "run.power_cap_w", w.run.power_cap_w);
  describe(p, "run.server.", w.run.server);
  describe(p, w.trainer);
  return w;
}

std::uint64_t pair_run_seed(std::uint64_t seed, std::size_t i) {
  return derive_seed(seed, kPairSeedStream, i);
}

}  // namespace perfbench
