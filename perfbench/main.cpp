// perfbench: one measured repetition of one benchmark workload.
//
//   perfbench --workload NAME --seed N --threads T [--traced 0|1]
//             [--thread-check T2]
//
// Builds the workload from the seed (setup: specs, cold model training,
// engine construction), runs it through the simulator's public entry
// points (fleet::FleetSim::run, exp::run_colocation), checks the outputs
// and prints one JSON record on stdout. Host time is time spent by this
// process; simulated (modelled) time is epochs on the modelled machines.
// At one worker thread a fixed reference loop is timed beside the timed
// items (ref_s), to gauge the shared host's speed at the time.
//
// With --traced 1 it runs kTracePairs untraced/traced pairs of passes
// (policies wrapped in TimedPolicy), each pass on a freshly constructed
// engine with fresh controllers, so every pass starts its simulated
// nodes cold and only the trained models are shared. The tracing
// overhead is the median over the pairs, and each layer is timed by
// replaying calls to its public functions after the last traced pass,
// so nothing inside the simulator is instrumented. Every pass must
// produce bit-identical modelled outputs. --thread-check T2 runs the
// workload once more at T2 threads and checks the same.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/parties.h"
#include "cluster/coordinator.h"
#include "comms/channel.h"
#include "core/config_search.h"
#include "core/controller.h"
#include "exp/model_registry.h"
#include "exp/runner.h"
#include "fleet/event_queue.h"
#include "fleet/fleet.h"
#include "timed_policy.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace sturgeon;

namespace perfbench {
namespace {

// -- host clocks --------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), seconds.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time of the calling thread, seconds.
double thread_cpu_s() { return thread_cpu_ns() * 1e-9; }

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
/// is not inherited from the parent across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// -- host speed ---------------------------------------------------------
//
// The host is a few vCPUs of a shared machine whose speed drifts by tens
// of percent in phases that last minutes. CPU time stretches with wall
// time, and no statistic over one run removes the drift. So at one
// worker thread, where run.py pins the process to one CPU, samples of a
// fixed reference loop are taken on that CPU beside the timed items: one
// before each co-location run of the paper pairs, and a batch before and
// after a fleet run. The loop lives here, outside the simulator, so no
// change to the simulator moves it; run.py scales the items by the
// loop's nominal over its median time. Pool threads on other CPUs do not
// share the sampled CPU's speed, so multi-threaded runs take no samples.

/// Wall seconds of one reference loop: branchy binary searches of random
/// keys in a sorted 256 KiB table, the shape of the decision-tree walks
/// and small-table lookups of the simulator's decide path.
double reference_loop_s() {
  static const std::vector<double> table = [] {
    std::vector<double> t(std::size_t{1} << 15);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = std::sin(static_cast<double>(i));
    }
    std::sort(t.begin(), t.end());
    return t;
  }();
  constexpr int kLookups = 30000;
  const double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::size_t hits = 0;
  for (int k = 0; k < kLookups; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double key = static_cast<double>(x >> 11) * 0x1p-52 - 1.0;
    std::size_t lo = 0, hi = table.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (table[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    hits += lo;
  }
  const double elapsed = now_s() - t0;
  static volatile std::size_t sink;
  sink = hits;
  return elapsed;
}

/// Loops run and dropped before a pass's samples: the first builds the
/// table, and in a fresh process the next few run up to twice as slow.
constexpr int kWarmupLoops = 20;
/// Samples before and after a fleet run.
constexpr int kFleetReferenceSamples = 16;

/// Appends kFleetReferenceSamples reference-loop times to `ref_s`.
void sample_reference(std::vector<double>& ref_s) {
  for (int i = 0; i < kFleetReferenceSamples; ++i) {
    ref_s.push_back(reference_loop_s());
  }
}

// -- record output ------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat, insertion-ordered JSON object.
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, json_num(v)); }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& raw(const std::string& k, const std::string& v) {
    kv_.emplace_back(k, v);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + kv_[i].first + "\":" + kv_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

std::string params_json(const Params& params) {
  Json j;
  for (const auto& [k, v] : params) j.raw(k, v);
  return j.dump();
}

/// FNV-1a over the exact bit patterns of the modelled outputs.
class Digest {
 public:
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -- statistics ---------------------------------------------------------

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Every `stride`-th element so that at most `cap` remain.
template <typename T>
std::vector<T> thin(const std::vector<T>& v, std::size_t cap) {
  if (v.size() <= cap) return v;
  std::vector<T> out;
  const double stride =
      static_cast<double>(v.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(v[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

// -- passes -------------------------------------------------------------

/// Host time of one pass of the run loop.
struct PassTiming {
  bool traced = false;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  /// Wall time of each independently timed item of the pass, in a fixed
  /// order: one per co-location run on the paper pairs, the whole run
  /// on a fleet.
  std::vector<double> item_s;
  /// Median reference-loop time beside the items; 0 when not sampled.
  double ref_s = 0.0;
};

std::string array_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? "," : "") + json_num(v[i]);
  }
  return out + "]";
}

std::string passes_json(const std::vector<PassTiming>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) out += ",";
    Json pass;
    pass.flag("traced", passes[i].traced)
        .num("run_s", passes[i].run_s)
        .num("run_cpu_s", passes[i].run_cpu_s)
        .raw("item_s", array_json(passes[i].item_s));
    if (passes[i].ref_s > 0.0) pass.num("ref_s", passes[i].ref_s);
    out += pass.dump();
  }
  return out + "]";
}

/// Untraced/traced pass pairs of a traced run.
constexpr int kTracePairs = 3;

int pass_count(bool traced) { return traced ? 2 * kTracePairs : 1; }

/// Whether pass `i` of a run is traced. A traced run's passes form
/// untraced/traced pairs, ordered U,T and T,U by turns so that a drift in
/// host speed across the passes cancels in the overhead; the last pass
/// is always traced, for the replays.
bool is_traced_pass(bool traced, int i, int passes) {
  if (!traced) return false;
  const int pairs_after = (passes - 1 - i) / 2;
  return (i % 2 == 1) == (pairs_after % 2 == 0);
}

/// Median over the untraced/traced pass pairs of the traced pass's loss
/// in epochs per second (both passes run the same epochs).
double trace_overhead(const std::vector<PassTiming>& passes) {
  std::vector<double> losses;
  for (std::size_t i = 0; i + 1 < passes.size(); i += 2) {
    const PassTiming& a = passes[i];
    const PassTiming& b = passes[i + 1];
    if (a.traced == b.traced) continue;
    losses.push_back(1.0 - (a.traced ? b.run_s / a.run_s
                                     : a.run_s / b.run_s));
  }
  if (losses.empty()) return 0.0;
  std::sort(losses.begin(), losses.end());
  const std::size_t m = losses.size() / 2;
  return losses.size() % 2 == 1 ? losses[m]
                                : 0.5 * (losses[m - 1] + losses[m]);
}

std::uint64_t model_invocations(
    const std::set<const core::Predictor*>& predictors) {
  std::uint64_t calls = 0;
  for (const auto* p : predictors) calls += p->model_invocations();
  return calls;
}

// -- layer replays (traced runs only) -------------------------------------
//
// Per-call figures (p50/p99, op_ns) are wall-clock. The busy estimates
// that are subtracted from process CPU time use the replaying thread's
// CPU clock, so both sides of bench.unattributed_cpu_s are CPU time.

/// Replay results land here so the timed calls cannot be optimized away.
volatile double g_sink = 0.0;

constexpr std::size_t kSearchReplays = 200;
constexpr std::size_t kPredictReplays = 2000;
constexpr std::size_t kStepReplays = 3000;

struct Replayed {
  const DecideRecord* rec;
  const ReplayContext* ctx;
};

std::vector<Replayed> gather(const std::vector<const TimedPolicy*>& policies,
                             bool searched_only) {
  std::vector<Replayed> out;
  for (const TimedPolicy* p : policies) {
    if (p->context().predictor == nullptr) continue;
    for (const DecideRecord& r : p->records()) {
      if (!searched_only || r.searched) out.push_back({&r, &p->context()});
    }
  }
  return out;
}

/// Wall time of every recorded decide(), in microseconds.
std::vector<double> decide_us(const std::vector<const TimedPolicy*>& policies) {
  std::vector<double> us;
  for (const TimedPolicy* p : policies) {
    for (const DecideRecord& r : p->records()) us.push_back(r.ns * 1e-3);
  }
  return us;
}

/// Summed thread CPU time of every recorded decide(), in seconds.
double decide_cpu_s(const std::vector<const TimedPolicy*>& policies) {
  double ns = 0.0;
  for (const TimedPolicy* p : policies) {
    for (const DecideRecord& r : p->records()) ns += r.cpu_ns;
  }
  return ns * 1e-9;
}

/// Decide-time distribution and counts of the Sturgeon controllers in
/// `policies`, plus the replayed search and predictor costs. Returns the
/// decide busy time (CPU seconds).
double core_layers(const std::vector<const TimedPolicy*>& policies,
                   std::uint64_t model_calls, Json& layers) {
  std::uint64_t searches = 0, balancer = 0;
  for (const TimedPolicy* p : policies) {
    searches += p->sturgeon()->searches_run();
    balancer += p->sturgeon()->balancer_actions();
  }
  std::vector<double> us = decide_us(policies);
  const double busy_s = decide_cpu_s(policies);
  layers.num("core.decide_us.p50", quantile(us, 0.50))
      .num("core.decide_us.p99", quantile(us, 0.99))
      .count("core.decide.calls", us.size())
      .num("core.decide.busy_s", busy_s)
      .count("core.searches", searches)
      .count("core.balancer_actions", balancer)
      .num("ml.model_calls_per_search",
           searches == 0 ? 0.0
                         : static_cast<double>(model_calls) /
                               static_cast<double>(searches));

  std::vector<double> search_us;
  double candidates = 0.0;
  for (const Replayed& r : thin(gather(policies, true), kSearchReplays)) {
    core::ConfigSearch search(*r.ctx->predictor, r.rec->budget_w);
    const double t0 = now_s();
    const core::SearchResult result = search.search(r.rec->qps);
    search_us.push_back((now_s() - t0) * 1e6);
    candidates += static_cast<double>(result.candidates.size());
  }
  const std::size_t replays = search_us.size();
  layers.num("core.search_us.p50", quantile(search_us, 0.50))
      .num("core.search_us.p99", quantile(search_us, 0.99))
      .num("core.search.candidates",
           replays == 0 ? 0.0 : candidates / static_cast<double>(replays));

  double predict_s = 0.0;
  std::uint64_t predict_calls = 0;
  double sink = 0.0;
  for (const Replayed& r : thin(gather(policies, false), kPredictReplays)) {
    const core::Predictor& pred = *r.ctx->predictor;
    const Partition& p = r.rec->current;
    const std::uint64_t before = pred.model_invocations();
    const double t0 = now_s();
    sink += pred.ls_qos_ok(r.rec->qps, p.ls) ? 1.0 : 0.0;
    sink += pred.ls_power_w(r.rec->qps, p.ls);
    if (p.be.cores > 0) sink += pred.be_power_w(p.be) + pred.be_ipc(p.be);
    predict_s += now_s() - t0;
    predict_calls += pred.model_invocations() - before;
  }
  g_sink = g_sink + sink;
  layers.num("ml.predict_ns",
             predict_calls == 0
                 ? 0.0
                 : predict_s * 1e9 / static_cast<double>(predict_calls));
  return busy_s;
}

/// Replayed SimulatedServer::step on the recorded loads and partitions.
/// Returns the mean CPU seconds of one step.
double sim_step_layers(const std::vector<const TimedPolicy*>& policies,
                       Json& layers) {
  std::vector<const TimedPolicy*> with_records;
  std::size_t total = 0;
  for (const TimedPolicy* p : policies) {
    if (!p->records().empty()) {
      with_records.push_back(p);
      total += p->records().size();
    }
  }
  // Whole per-node sequences (queue state carries across steps), on an
  // evenly thinned subset of nodes.
  const std::size_t per_node =
      with_records.empty() ? 1 : std::max<std::size_t>(1, total / with_records.size());
  const auto chosen =
      thin(with_records, std::max<std::size_t>(1, kStepReplays / per_node));
  std::vector<double> step_us;
  double cpu = 0.0;
  std::uint64_t seed = 1;
  for (const TimedPolicy* p : chosen) {
    const ReplayContext& ctx = p->context();
    sim::SimulatedServer server(ctx.ls, ctx.be, seed++, ctx.server);
    const double c0 = thread_cpu_s();
    for (const DecideRecord& r : p->records()) {
      server.set_partition(r.current);
      const double t0 = now_s();
      server.step(r.load);
      step_us.push_back((now_s() - t0) * 1e6);
    }
    cpu += thread_cpu_s() - c0;
  }
  const double step_cpu_s =
      step_us.empty() ? 0.0 : cpu / static_cast<double>(step_us.size());
  layers.num("sim.step_us.p50", quantile(step_us, 0.50))
      .num("sim.step_us.p99", quantile(step_us, 0.99));
  return step_cpu_s;
}

struct AssignReplay {
  double median_us = 0.0;  ///< wall clock, per assign
  double cpu_s = 0.0;      ///< thread CPU, per assign
};

/// Replayed coordinator assign over the fleet's final reports.
AssignReplay assign_replay(fleet::FleetSim& sim, const fleet::FleetConfig& fc) {
  std::vector<cluster::NodeReport> reports;
  for (int i = 0; i < sim.num_nodes(); ++i) {
    cluster::NodeReport r = sim.node(static_cast<std::size_t>(i)).report();
    r.liveness = cluster::Liveness::kAlive;
    reports.push_back(std::move(r));
  }
  auto coordinator = cluster::make_coordinator(
      fc.cluster.coordinator, fc.cluster.coordinator_config);
  constexpr int kAssigns = 41;
  std::vector<double> us;
  double sink = 0.0;
  const double c0 = thread_cpu_s();
  for (int k = 0; k < kAssigns; ++k) {
    const double t0 = now_s();
    sink += coordinator->assign(sim.cluster_budget_w(), reports).front();
    us.push_back((now_s() - t0) * 1e6);
  }
  const double cpu = (thread_cpu_s() - c0) / kAssigns;
  g_sink = g_sink + sink;
  return {quantile(us, 0.5), cpu};
}

/// Replayed EventQueue push+pop at `depth` pending events, ns per op.
double event_queue_op_ns(std::size_t depth, int epochs) {
  fleet::EventQueue queue;
  Rng rng(0x6576);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(fleet::EventKind::kWake, rng.uniform_int(0, epochs),
               static_cast<int>(i));
  }
  constexpr int kOps = 200000;
  std::uint64_t sink = 0;
  const double t0 = now_s();
  for (int i = 0; i < kOps; ++i) {
    const fleet::FleetEvent ev = queue.pop();
    sink += static_cast<std::uint64_t>(ev.node);
    queue.push(fleet::EventKind::kWake, ev.time + 1 + (i & 63), ev.node);
  }
  const double dt = now_s() - t0;
  g_sink = g_sink + static_cast<double>(sink);
  return dt * 1e9 / kOps;
}

struct ChannelReplay {
  double op_ns = 0.0;  ///< wall clock, per send+recv
  double cpu_s = 0.0;  ///< thread CPU, per send+recv
};

/// Replayed MessageChannel send+recv under the workload's network.
ChannelReplay channel_replay(const comms::CommsConfig& cc, std::uint64_t seed,
                             int nodes) {
  comms::MessageChannel channel(cc.network, seed, nodes);
  comms::Message msg;
  msg.kind = comms::MsgKind::kCapGrant;
  constexpr int kEpochs = 200;
  std::uint64_t ops = 0, sink = 0;
  const double c0 = thread_cpu_s();
  const double t0 = now_s();
  for (int t = 0; t < kEpochs; ++t) {
    for (int n = 0; n < nodes; ++n) {
      msg.grant.seq = static_cast<std::uint64_t>(t + 1);
      msg.grant.cap_w = 100.0 + n;
      channel.send_to_node(n, msg, t);
      sink += channel.recv_node(n, t).size();
      ++ops;
    }
  }
  const double dt = now_s() - t0;
  const double cpu = thread_cpu_s() - c0;
  g_sink = g_sink + static_cast<double>(sink);
  const auto n = static_cast<double>(ops);
  return {dt * 1e9 / n, cpu / n};
}

// -- fleet workloads ----------------------------------------------------

struct FleetPass {
  std::unique_ptr<fleet::FleetSim> sim;
  fleet::FleetResult res;
  PassTiming timing;
  std::uint64_t model_calls = 0;
};

/// Engine for `w` over `specs`; traced engines wrap every node's
/// Sturgeon controller in a TimedPolicy.
std::unique_ptr<fleet::FleetSim> make_sim(const FleetWorkload& w,
                                          std::vector<cluster::NodeSpec> specs,
                                          bool traced) {
  if (traced) {
    for (auto& spec : specs) {
      spec.make_policy = [ls = spec.ls, be = spec.be, server = spec.server,
                          trainer = spec.trainer](
                             const sim::SimulatedServer& node_server) {
        auto predictor = exp::predictor_for(ls, be, trainer);
        auto inner = std::make_unique<core::SturgeonController>(
            predictor, ls.qos_target_ms, node_server.power_budget_w());
        return std::unique_ptr<core::Policy>(std::make_unique<TimedPolicy>(
            std::move(inner), ReplayContext{ls, be, server, predictor}));
      };
    }
  }
  return std::make_unique<fleet::FleetSim>(std::move(specs), w.config);
}

void run_pass(FleetPass& pass, const FleetWorkload& w,
              const std::set<const core::Predictor*>& predictors) {
  const bool gauge = w.config.cluster.threads == 1;
  std::vector<double> ref_s;
  if (gauge) {
    for (int i = 0; i < kWarmupLoops; ++i) reference_loop_s();
    sample_reference(ref_s);
  }
  const std::uint64_t calls_before = model_invocations(predictors);
  const double cpu0 = cpu_s();
  const double r0 = now_s();
  pass.res = pass.sim->run(w.epochs);
  pass.timing.run_s = now_s() - r0;
  pass.timing.run_cpu_s = cpu_s() - cpu0;
  pass.timing.item_s = {pass.timing.run_s};
  pass.model_calls = model_invocations(predictors) - calls_before;
  if (gauge) {
    sample_reference(ref_s);
    pass.timing.ref_s = quantile(ref_s, 0.5);
  }
}

std::uint64_t stepped_node_epochs(const fleet::FleetResult& res) {
  std::uint64_t steps = 0;
  for (const cluster::NodeResult& n : res.cluster.node_results) {
    steps += static_cast<std::uint64_t>(n.epochs);
  }
  return steps;
}

std::string fleet_digest(const fleet::FleetResult& res) {
  const cluster::ClusterResult& c = res.cluster;
  Digest digest;
  for (const cluster::NodeResult& n : c.node_results) {
    digest.add(n.epochs);
    digest.add(n.skipped_epochs);
    digest.add(n.wakes);
    digest.add(n.total_completed);
    digest.add(n.total_violations);
    digest.add(n.mean_be_throughput_norm);
    digest.add(n.mean_cap_w);
    digest.add(n.max_power_ratio);
    digest.add(n.throttled_epochs);
    digest.add(n.lease_renewals);
    digest.add(n.lease_expiries);
    digest.add(n.autonomy_epochs);
  }
  for (double v : {c.fleet_qos_guarantee_rate, c.aggregate_be_throughput,
                   c.cluster_power_budget_w, c.cluster_overshoot_fraction,
                   c.max_cluster_power_ratio, c.mean_cluster_power_w,
                   c.max_cap_sum_ratio, res.skipped_fraction,
                   res.mean_job_completion_epochs}) {
    digest.add(v);
  }
  for (std::uint64_t v :
       {res.total_wakes, res.events_processed, res.cap_revisions,
        res.rebalances, res.jobs_submitted, res.jobs_placed,
        res.jobs_completed, res.jobs_migrated, res.jobs_rejected,
        static_cast<std::uint64_t>(res.jobs_active_at_end),
        static_cast<std::uint64_t>(res.jobs_queued_at_end),
        c.comms_sent, c.comms_dropped, c.comms_delayed, c.comms_duplicated,
        c.comms_grants_sent, c.comms_grants_delivered,
        c.comms_grants_dropped, c.comms_grants_in_flight}) {
    digest.add(v);
  }
  digest.add(c.dead_node_epochs);
  return digest.hex();
}

std::string run_fleet(const FleetWorkload& w, bool traced,
                      std::size_t check_threads) {
  const int passes = pass_count(traced);
  const std::size_t threads = w.config.cluster.threads;
  // Setup: specs, cold training of every model the fleet needs, engine.
  const double t_begin = now_s();
  std::vector<cluster::NodeSpec> specs = build_specs(w);
  const double t_specs = now_s();
  std::vector<std::pair<const LsProfile*, const BeProfile*>> pairs;
  for (const auto& s : specs) pairs.emplace_back(&s.ls, &s.be);
  {
    ThreadPool pool(threads);
    exp::warm_models(pairs, &pool, w.trainer);
  }
  const double t_trained = now_s();
  std::set<const core::Predictor*> predictors;
  for (const auto& [ls, be] : pairs) {
    predictors.insert(exp::predictor_for(*ls, *be, w.trainer).get());
  }
  FleetPass pass;
  pass.sim = make_sim(w, std::move(specs), is_traced_pass(traced, 0, passes));
  const double t_built = now_s();

  // Passes: the first runs the engine built in setup.
  FleetPass first;
  std::vector<PassTiming> timings;
  bool identical = true;
  std::string digest;
  double rss_mb = 0.0;  // after the first pass: one setup + one run
  for (int i = 0; i < passes; ++i) {
    const bool traced_pass = is_traced_pass(traced, i, passes);
    if (i > 0) {
      pass.sim.reset();
      pass.sim = make_sim(w, build_specs(w), traced_pass);
    }
    pass.timing.traced = traced_pass;
    run_pass(pass, w, predictors);
    timings.push_back(pass.timing);
    const std::string d = fleet_digest(pass.res);
    if (i == 0) {
      digest = d;
      first.res = pass.res;
      first.model_calls = pass.model_calls;
      rss_mb = peak_rss_mb();
    }
    identical = identical && d == digest;
  }

  const fleet::FleetResult& res = first.res;
  const cluster::ClusterResult& c = res.cluster;
  const std::uint64_t node_steps = stepped_node_epochs(res);
  std::uint64_t throttled = 0;
  for (const cluster::NodeResult& n : c.node_results) {
    throttled += static_cast<std::uint64_t>(n.throttled_epochs);
  }

  Json checks;
  checks.flag("cap_sum_within_budget", c.max_cap_sum_ratio <= 1.0 + 1e-9);
  checks.flag("churn_submitted_identity",
              res.jobs_submitted == res.jobs_placed + res.jobs_rejected +
                                        res.jobs_queued_at_end);
  checks.flag("churn_placed_identity",
              res.jobs_placed == res.jobs_completed + res.jobs_active_at_end);
  checks.flag("channel_grant_identity",
              c.comms_grants_sent == c.comms_grants_delivered +
                                         c.comms_grants_dropped +
                                         c.comms_grants_in_flight);
  checks.flag("epochs_run", c.epochs == w.epochs && c.nodes == w.nodes);
  checks.flag("node_epoch_coverage",
              node_steps + res.total_skipped_epochs ==
                  static_cast<std::uint64_t>(w.nodes) *
                      static_cast<std::uint64_t>(w.epochs));
  checks.flag("outcomes_in_range",
              c.fleet_qos_guarantee_rate > 0.0 &&
                  c.fleet_qos_guarantee_rate <= 1.0 &&
                  c.aggregate_be_throughput > 0.0 &&
                  std::isfinite(c.aggregate_be_throughput));
  if (traced) checks.flag("traced_matches_untraced", identical);

  const bool events = w.config.quiescence.enabled;
  const bool comms = w.config.cluster.comms.enabled;
  // fleet.*, comms.* and cluster.* are the engine's own counters; the
  // exp and baselines layers do not run on a fleet workload.
  Json layers;
  layers.num("fleet.skipped_fraction", res.skipped_fraction)
      .count("fleet.wakes", res.total_wakes)
      .count("fleet.events", res.events_processed)
      .count("fleet.event_queue_peak", res.event_queue_peak)
      .count("fleet.cap_revisions", res.cap_revisions)
      .count("fleet.rebalances", res.rebalances)
      .count("fleet.jobs_submitted", res.jobs_submitted)
      .count("fleet.jobs_completed", res.jobs_completed)
      .count("fleet.jobs_migrated", res.jobs_migrated)
      .count("fleet.jobs_rejected", res.jobs_rejected)
      .num("fleet.job_completion_epochs", res.mean_job_completion_epochs)
      .count("sim.steps", node_steps)
      .count("ml.model_calls", first.model_calls)
      .num("ml.train_s", t_trained - t_specs)
      .count("cluster.throttled_epochs", throttled)
      .num("cluster.max_cap_sum_ratio", c.max_cap_sum_ratio)
      .count("cluster.dead_node_epochs",
             static_cast<std::uint64_t>(c.dead_node_epochs))
      .num("cluster.power_overshoot_fraction", c.cluster_overshoot_fraction)
      .count("comms.sent", c.comms_sent)
      .count("comms.dropped", c.comms_dropped)
      .count("comms.delayed", c.comms_delayed)
      .count("comms.duplicated", c.comms_duplicated)
      .count("comms.grants_sent", c.comms_grants_sent)
      .count("comms.grants_delivered", c.comms_grants_delivered)
      .count("comms.lease_renewals", c.comms_lease_renewals)
      .count("comms.lease_expiries", c.comms_lease_expiries)
      .count("comms.autonomy_epochs", c.comms_autonomy_epochs);

  // Whole-run figures come from the last pass (the traced one when
  // tracing), whose engine is still alive for the replays.
  const PassTiming& last = timings.back();
  if (traced) {
    std::vector<const TimedPolicy*> policies;
    for (int i = 0; i < pass.sim->num_nodes(); ++i) {
      const auto* p = dynamic_cast<const TimedPolicy*>(
          &pass.sim->node(static_cast<std::size_t>(i)).policy());
      if (p != nullptr) policies.push_back(p);
    }
    const double decide_busy_s =
        core_layers(policies, pass.model_calls, layers);
    const double step_cpu_s = sim_step_layers(policies, layers);
    const AssignReplay assign = assign_replay(*pass.sim, w.config);
    // Full-strategy assigns: every epoch in lockstep, every rebalance on
    // the event path (delta revisions between them are not replayed).
    const double assigns = events ? static_cast<double>(res.rebalances)
                                  : static_cast<double>(c.epochs);
    const double queue_ns =
        events ? event_queue_op_ns(res.event_queue_peak, w.epochs) : 0.0;
    ChannelReplay channel;
    if (comms) {
      channel = channel_replay(
          w.config.cluster.comms,
          derive_seed(w.config.cluster.seed, comms::kCommsStream), w.nodes);
    }
    layers.num("cluster.assign_us", assign.median_us)
        .num("fleet.event_queue.op_ns", queue_ns)
        .num("fleet.ns_per_node_step",
             events ? last.run_s * 1e9 / static_cast<double>(node_steps)
                    : 0.0)
        .num("comms.channel.op_ns", channel.op_ns);
    // Layer busy estimates (CPU): measured decide time, replayed step,
    // assign and channel costs times their counts. The remainder is
    // engine bookkeeping, aggregation and metric lookups.
    const double busy_s = decide_busy_s +
                          static_cast<double>(node_steps) * step_cpu_s +
                          assigns * assign.cpu_s +
                          static_cast<double>(c.comms_sent) * channel.cpu_s;
    layers.num("bench.unattributed_cpu_s", last.run_cpu_s - busy_s);
  }
  layers.num("bench.run_cpu_s", last.run_cpu_s)
      .num("bench.cpu_utilization",
           last.run_cpu_s / (last.run_s * static_cast<double>(threads)));

  // The same seed at another thread count must model the same fleet.
  std::string check_digest;
  if (check_threads > 0) {
    pass.sim.reset();
    FleetWorkload other = w;
    other.config.cluster.threads = check_threads;
    pass.sim = make_sim(other, build_specs(other), false);
    run_pass(pass, other, predictors);
    check_digest = fleet_digest(pass.res);
    checks.flag("same_digest_at_" + std::to_string(check_threads) + "_threads",
                check_digest == digest);
  }

  Json rec;
  rec.str("workload", w.name)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .count("seed", w.config.cluster.seed)
      .count("threads", threads)
      .flag("traced", traced)
      .raw("params", params_json(w.params))
      .num("setup_s", t_built - t_begin)
      .num("spec_s", t_specs - t_begin)
      .num("train_s", t_trained - t_specs)
      .num("construct_s", t_built - t_trained)
      .raw("passes", passes_json(timings))
      .count("epochs", static_cast<std::uint64_t>(c.epochs))
      .count("node_steps", node_steps)
      .num("peak_rss_mb", rss_mb)
      .raw("outcomes",
           Json()
               .num("fleet_qos", c.fleet_qos_guarantee_rate)
               .num("be_throughput", c.aggregate_be_throughput)
               .num("power_overshoot_fraction", c.cluster_overshoot_fraction)
               .num("job_completion_epochs", res.mean_job_completion_epochs)
               .num("pairs_qos_met", 0.0)
               .dump())
      .raw("checks", checks.dump())
      .str("digest", digest)
      .raw("layers", layers.dump());
  if (traced) rec.num("trace_overhead", trace_overhead(timings));
  return rec.dump();
}

// -- paper pairs --------------------------------------------------------

using Pairs = std::vector<std::pair<const LsProfile*, const BeProfile*>>;

struct PairRun {
  exp::RunResult sturgeon, nob, parties;
};

struct PairsPass {
  std::vector<PairRun> runs;
  /// The traced pass's decorators, kept for the replays.
  std::vector<std::unique_ptr<TimedPolicy>> timed;
  PassTiming timing;
  std::uint64_t model_calls = 0;
};

/// Every pair under Sturgeon, Sturgeon-NoB and PARTIES, fresh controllers.
void run_pairs_pass(PairsPass& pass, const PairsWorkload& w,
                    const Pairs& pairs,
                    const std::set<const core::Predictor*>& predictors) {
  const bool traced = pass.timing.traced;
  for (int i = 0; i < kWarmupLoops; ++i) reference_loop_s();
  // The reference samples' own time and CPU are left out of run_s and
  // run_cpu_s.
  std::vector<double> ref_s;
  double ref_cpu_s = 0.0;
  const std::uint64_t calls_before = model_invocations(predictors);
  const double cpu0 = cpu_s();
  const double r0 = now_s();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const LsProfile& ls = *pairs[i].first;
    const BeProfile& be = *pairs[i].second;
    const auto predictor = exp::predictor_for(ls, be, w.trainer);
    const sim::SimulatedServer probe(ls, be, kBudgetProbeSeed);
    const double budget = probe.power_budget_w();
    exp::RunConfig rc = w.run;
    rc.seed = pair_run_seed(w.seed, i);

    core::SturgeonOptions nob_opts;
    nob_opts.enable_balancer = false;
    baselines::PartiesOptions po;
    po.power_budget_w = budget;
    const auto run = [&](std::unique_ptr<core::Policy> policy,
                         std::shared_ptr<const core::Predictor> pred) {
      core::Policy* timed = policy.get();
      if (traced) {
        pass.timed.push_back(std::make_unique<TimedPolicy>(
            std::move(policy), ReplayContext{ls, be, rc.server, pred}));
        timed = pass.timed.back().get();
      }
      const double c0 = thread_cpu_s();
      ref_s.push_back(reference_loop_s());
      ref_cpu_s += thread_cpu_s() - c0;
      const double t0 = now_s();
      exp::RunResult result =
          exp::run_colocation(ls, be, *timed, w.trace, rc);
      pass.timing.item_s.push_back(now_s() - t0);
      return result;
    };
    PairRun pair_run;
    pair_run.sturgeon = run(std::make_unique<core::SturgeonController>(
                                predictor, ls.qos_target_ms, budget),
                            predictor);
    pair_run.nob = run(std::make_unique<core::SturgeonController>(
                           predictor, ls.qos_target_ms, budget, nob_opts),
                       predictor);
    pair_run.parties = run(std::make_unique<baselines::PartiesController>(
                               probe.machine(), ls.qos_target_ms, po),
                           nullptr);
    pass.runs.push_back(std::move(pair_run));
  }
  double ref_total_s = 0.0;
  for (double t : ref_s) ref_total_s += t;
  pass.timing.run_s = now_s() - r0 - ref_total_s;
  pass.timing.run_cpu_s = cpu_s() - cpu0 - ref_cpu_s;
  pass.timing.ref_s = quantile(ref_s, 0.5);
  pass.model_calls = model_invocations(predictors) - calls_before;
}

std::string pairs_digest(const std::vector<PairRun>& runs) {
  Digest digest;
  for (const PairRun& pair_run : runs) {
    for (const exp::RunResult* r :
         {&pair_run.sturgeon, &pair_run.nob, &pair_run.parties}) {
      for (double v : {r->qos_guarantee_rate, r->mean_be_throughput_norm,
                       r->interval_qos_rate, r->power_budget_w,
                       r->power_overshoot_fraction, r->max_power_ratio}) {
        digest.add(v);
      }
      digest.add(r->intervals_run);
    }
  }
  return digest.hex();
}

std::string run_pairs(const PairsWorkload& w, bool traced) {
  const int passes = pass_count(traced);
  Pairs pairs;
  for (const auto& ls : ls_catalog()) {
    for (const auto& be : be_catalog()) pairs.emplace_back(&ls, &be);
  }
  // Setup: the paper-scale training campaign, single-threaded.
  const double t_begin = now_s();
  exp::warm_models(pairs, nullptr, w.trainer);
  const double setup_s = now_s() - t_begin;
  std::set<const core::Predictor*> predictors;
  for (const auto& [ls, be] : pairs) {
    predictors.insert(exp::predictor_for(*ls, *be, w.trainer).get());
  }

  PairsPass first, pass;
  std::vector<PassTiming> timings;
  bool identical = true;
  std::string digest;
  double rss_mb = 0.0;  // after the first pass: one setup + one run
  for (int i = 0; i < passes; ++i) {
    pass = PairsPass{};
    pass.timing.traced = is_traced_pass(traced, i, passes);
    run_pairs_pass(pass, w, pairs, predictors);
    timings.push_back(pass.timing);
    const std::string d = pairs_digest(pass.runs);
    if (i == 0) {
      digest = d;
      first.runs = pass.runs;
      first.model_calls = pass.model_calls;
      rss_mb = peak_rss_mb();
    }
    identical = identical && d == digest;
  }

  std::uint64_t intervals = 0;
  int met_st = 0, met_pa = 0, fail_nob = 0, overload_st = 0, aborted = 0;
  double qos_st = 0.0, thr_st = 0.0, thr_nob = 0.0, thr_pa = 0.0;
  bool in_range = true;
  for (const PairRun& pair_run : first.runs) {
    for (const exp::RunResult* r :
         {&pair_run.sturgeon, &pair_run.nob, &pair_run.parties}) {
      intervals += static_cast<std::uint64_t>(r->intervals_run);
      if (r->aborted || r->intervals_run != w.trace.duration_s()) ++aborted;
      in_range = in_range && r->qos_guarantee_rate >= 0.0 &&
                 r->qos_guarantee_rate <= 1.0 &&
                 std::isfinite(r->mean_be_throughput_norm);
    }
    if (pair_run.sturgeon.qos_guarantee_rate >= 0.95) ++met_st;
    if (pair_run.parties.qos_guarantee_rate >= 0.95) ++met_pa;
    if (pair_run.nob.qos_guarantee_rate < 0.95) ++fail_nob;
    if (pair_run.sturgeon.max_power_ratio > 1.02) ++overload_st;
    qos_st += pair_run.sturgeon.qos_guarantee_rate;
    thr_st += pair_run.sturgeon.mean_be_throughput_norm;
    thr_nob += pair_run.nob.mean_be_throughput_norm;
    thr_pa += pair_run.parties.mean_be_throughput_norm;
  }
  const double n = static_cast<double>(first.runs.size());
  Json checks;
  checks.flag("runs_complete", aborted == 0 && first.runs.size() == pairs.size())
      .flag("outcomes_in_range", in_range && thr_st > 0.0);
  if (traced) checks.flag("traced_matches_untraced", identical);

  // Only the core, ml, sim, baselines and exp layers run here.
  Json layers;
  layers.count("sim.steps", intervals)
      .count("ml.model_calls", first.model_calls)
      .num("ml.train_s", setup_s)
      .count("exp.runs", first.runs.size() * 3)
      .count("exp.intervals", intervals)
      .num("exp.pairs_qos_met", met_st);
  const PassTiming& last = timings.back();
  if (traced) {
    std::vector<const TimedPolicy*> sturgeons, parties, all;
    for (const auto& p : pass.timed) {
      (p->sturgeon() != nullptr ? sturgeons : parties).push_back(p.get());
      all.push_back(p.get());
    }
    const double decide_busy_s = core_layers(sturgeons, pass.model_calls,
                                             layers) +
                                 decide_cpu_s(parties);
    std::vector<double> parties_us = decide_us(parties);
    layers.num("baselines.parties.decide_us.p50", quantile(parties_us, 0.50))
        .num("baselines.parties.decide_us.p99", quantile(parties_us, 0.99));
    const double step_cpu_s = sim_step_layers(all, layers);
    const double busy_s =
        decide_busy_s + static_cast<double>(intervals) * step_cpu_s;
    layers.num("bench.unattributed_cpu_s", last.run_cpu_s - busy_s);
  }
  layers.num("bench.run_cpu_s", last.run_cpu_s)
      .num("bench.cpu_utilization", last.run_cpu_s / last.run_s);

  Json rec;
  rec.str("workload", "paper-pairs")
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .count("seed", w.seed)
      .count("threads", 1)
      .flag("traced", traced)
      .raw("params", params_json(w.params))
      .num("setup_s", setup_s)
      .num("spec_s", 0.0)
      .num("train_s", setup_s)
      .num("construct_s", 0.0)
      .raw("passes", passes_json(timings))
      .count("epochs", intervals)
      .count("node_steps", intervals)
      .num("peak_rss_mb", rss_mb)
      .raw("outcomes",
           Json()
               .num("fleet_qos", qos_st / n)
               .num("be_throughput", thr_st / n)
               .num("power_overshoot_fraction", overload_st / n)
               .num("job_completion_epochs", 0.0)
               .num("pairs_qos_met", met_st)
               .dump())
      .raw("reference",
           Json()
               .num("sturgeon_pairs_qos_met", met_st)
               .num("parties_pairs_qos_met", met_pa)
               .num("nob_pairs_failing", fail_nob)
               .num("sturgeon_vs_parties_throughput", thr_st / thr_pa - 1.0)
               .num("balancer_cost_vs_nob", 1.0 - thr_st / thr_nob)
               .num("mean_throughput_sturgeon", thr_st / n)
               .num("mean_throughput_nob", thr_nob / n)
               .num("mean_throughput_parties", thr_pa / n)
               .num("sturgeon_overload_runs", overload_st)
               .count("pairs", first.runs.size())
               .dump())
      .raw("checks", checks.dump())
      .str("digest", digest)
      .raw("layers", layers.dump());
  if (traced) rec.num("trace_overhead", trace_overhead(timings));
  return rec.dump();
}

int usage() {
  std::cerr << "usage: perfbench --workload fleet-diurnal-churn|"
               "cluster-chaosnet|paper-pairs --seed N --threads T "
               "[--traced 0|1] [--thread-check T2]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::size_t check_threads = 0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--threads") {
      threads = std::stoul(value);
    } else if (flag == "--traced") {
      traced = value == "1";
    } else if (flag == "--thread-check") {
      check_threads = std::stoul(value);
    } else {
      return perfbench::usage();
    }
  }
  if (threads == 0) return perfbench::usage();
  std::string record;
  if (workload == "fleet-diurnal-churn") {
    record = perfbench::run_fleet(perfbench::fleet_diurnal_churn(seed, threads),
                                  traced, check_threads);
  } else if (workload == "cluster-chaosnet") {
    record = perfbench::run_fleet(perfbench::cluster_chaosnet(seed, threads),
                                  traced, check_threads);
  } else if (workload == "paper-pairs") {
    record = perfbench::run_pairs(perfbench::paper_pairs(seed), traced);
  } else {
    return perfbench::usage();
  }
  std::cout << record << std::endl;
  return 0;
}
