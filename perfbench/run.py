#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, then measures the workload in child
processes of the perfbench binary, one process per repetition, so every
repetition starts cold (the process-wide model registry is empty) and a
STURGEON_CHECK abort costs one repetition, not the benchmark.

--trace 0  repeats setup + run until the timed runs add up to S seconds
           (at least MIN_REPS repetitions). setup_s and peak_rss_mb are
           medians over repetitions; epochs_per_s and node_steps_per_s
           take each timed item of the run loop (a fleet run, or one
           co-location run of the paper pairs) at its fastest over the
           repetitions, since other load on the host only ever lengthens
           an item; at one worker thread each item is taken at the
           reference host speed (see at_reference_speed). Runs the output checks,
           including a run of each fleet workload at a second thread
           count.
--trace 1  runs one repetition of three untraced/traced pass pairs
           (TimedPolicy decorator, then layer replays), and reports the
           per-layer table and the tracing overhead (median over the
           pairs).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full record (provenance, every
repetition, checks) goes to <build dir>/results/. Exit status is 0 only
when every check passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

MIN_REPS = 3
MAX_REPS = 12
# Nominal wall time of the child's reference loop, about its median on a
# 4-vCPU Xeon (Sapphire Rapids) KVM guest: items of 1-thread workloads are
# reported as if the loop had taken this long beside them.
REFERENCE_LOOP_S = 0.0055
# No repetition starts after WALL_BUDGET_S and none may run past
# HARD_LIMIT_S, which leaves headroom under the 180 s per-invocation limit.
WALL_BUDGET_S = 150.0
HARD_LIMIT_S = 170.0
# Worker threads per workload, and the second thread count at which a
# fleet workload must model the same outputs. Fewer threads than cores
# keep the timings steady: host load that delays one worker stalls the
# others at the epoch barrier, so at 2 threads fleet-diurnal-churn (whose
# per-epoch work is small) spread twice as far as at 1.
THREADS = {"fleet-diurnal-churn": 1, "cluster-chaosnet": 2, "paper-pairs": 1}
CHECK_THREADS = {"fleet-diurnal-churn": 2, "cluster-chaosnet": 3}
# Layers that do not run on a workload; the child leaves them out and
# they read zero.
ABSENT_LAYERS = {
    "fleet-diurnal-churn": ("exp", "baselines"),
    "cluster-chaosnet": ("exp", "baselines"),
    "paper-pairs": ("fleet", "cluster", "comms"),
}

# Names, units, bounds and the workloads' "why" live in BENCHMARK.json;
# this file adds only what that file has no room for.

# End-to-end metric -> (clock, meaning). clock: "host" = time spent by
# the simulator process, "model" = outcome on the modelled machines.
END_TO_END_INFO = {
    "setup_s": ("host", "spec build, cold model training, engine "
                "construction (median over repetitions)"),
    "epochs_per_s": ("host", "simulated epochs (paper-pairs: intervals) "
                     "per second of the run loop (each item at its "
                     "fastest; at 1 thread, at reference speed)"),
    "node_steps_per_s": ("host", "stepped node-epochs per second of the "
                         "run loop (each item at its fastest; at 1 "
                         "thread, at reference speed)"),
    "peak_rss_mb": ("host", "peak resident memory of a repetition"),
    "fleet_qos": ("model", "query-weighted QoS guarantee rate "
                  "(paper-pairs: mean over Sturgeon pairs)"),
    "be_throughput": ("model", "aggregate normalized BE throughput "
                      "(paper-pairs: Sturgeon mean)"),
}
# Printed with the end-to-end table, but zero on some workloads by
# design, so BENCHMARK.json lists them as the per-layer metric named
# second (whose unit they share).
END_TO_END_EXTRA = {
    "power_overshoot_fraction": (
        "cluster.power_overshoot_fraction", "model", "epochs with fleet "
        "power over budget (paper-pairs: Sturgeon runs >2% over budget)"),
    "job_completion_epochs": (
        "fleet.job_completion_epochs", "model", "mean arrival-to-finish "
        "time of completed churn jobs"),
    "pairs_qos_met": ("exp.pairs_qos_met", "model",
                      "Sturgeon pairs at or above 95% QoS"),
    "failed_fraction": ("bench.failed_fraction", "host", "repetitions that "
                        "aborted or failed a check / attempted"),
}

FLEET_FIRST = "fleet-diurnal-churn: epochs_per_s, node_steps_per_s"
# Per-layer metric -> the e2e metric and workload it should move.
LAYER_MOVES = {
    "fleet.skipped_fraction": FLEET_FIRST,
    "fleet.wakes": FLEET_FIRST,
    "fleet.events": FLEET_FIRST,
    "fleet.event_queue_peak": FLEET_FIRST,
    "fleet.cap_revisions": FLEET_FIRST,
    "fleet.rebalances": FLEET_FIRST,
    "fleet.jobs_submitted": FLEET_FIRST,
    "fleet.jobs_completed": FLEET_FIRST,
    "fleet.jobs_migrated": FLEET_FIRST,
    "fleet.jobs_rejected": FLEET_FIRST,
    "fleet.job_completion_epochs": "fleet-diurnal-churn: be_throughput "
                                   "(job_completion_epochs)",
    "fleet.event_queue.op_ns": FLEET_FIRST,
    "fleet.ns_per_node_step": FLEET_FIRST,
    "core.decide_us.p50": "cluster-chaosnet: node_steps_per_s; "
                          "paper-pairs: epochs_per_s",
    "core.decide_us.p99": "cluster-chaosnet: node_steps_per_s; "
                          "paper-pairs: epochs_per_s",
    "core.decide.calls": "cluster-chaosnet, paper-pairs",
    "core.decide.busy_s": "cluster-chaosnet: node_steps_per_s; "
                          "paper-pairs: epochs_per_s",
    "core.searches": "cluster-chaosnet, paper-pairs",
    "core.balancer_actions": "cluster-chaosnet, paper-pairs",
    "core.search_us.p50": "cluster-chaosnet: node_steps_per_s; "
                          "paper-pairs: epochs_per_s",
    "core.search_us.p99": "cluster-chaosnet: node_steps_per_s; "
                          "paper-pairs: epochs_per_s",
    "core.search.candidates": "paper-pairs: epochs_per_s",
    "ml.train_s": "paper-pairs, cluster-chaosnet: setup_s",
    "ml.model_calls": "paper-pairs: epochs_per_s",
    "ml.model_calls_per_search": "paper-pairs: epochs_per_s",
    "ml.predict_ns": "paper-pairs: epochs_per_s",
    "sim.steps": "cluster-chaosnet, paper-pairs: node_steps_per_s",
    "sim.step_us.p50": "cluster-chaosnet, paper-pairs: node_steps_per_s",
    "sim.step_us.p99": "cluster-chaosnet, paper-pairs: node_steps_per_s",
    "cluster.assign_us": "cluster-chaosnet: epochs_per_s",
    "cluster.throttled_epochs": "all: fleet_qos, be_throughput",
    "cluster.max_cap_sum_ratio": "all: fleet_qos, be_throughput",
    "cluster.dead_node_epochs": "all: fleet_qos, be_throughput",
    "cluster.power_overshoot_fraction": "fleet workloads: "
                                        "power_overshoot_fraction",
    "comms.sent": "cluster-chaosnet: epochs_per_s",
    "comms.dropped": "cluster-chaosnet: epochs_per_s",
    "comms.delayed": "cluster-chaosnet: epochs_per_s",
    "comms.duplicated": "cluster-chaosnet: epochs_per_s",
    "comms.grants_sent": "cluster-chaosnet: epochs_per_s",
    "comms.grants_delivered": "cluster-chaosnet: epochs_per_s",
    "comms.lease_renewals": "cluster-chaosnet: epochs_per_s",
    "comms.lease_expiries": "cluster-chaosnet: epochs_per_s",
    "comms.autonomy_epochs": "cluster-chaosnet: epochs_per_s",
    "comms.channel.op_ns": "cluster-chaosnet: epochs_per_s",
    "baselines.parties.decide_us.p50": "paper-pairs: epochs_per_s",
    "baselines.parties.decide_us.p99": "paper-pairs: epochs_per_s",
    "exp.runs": "paper-pairs",
    "exp.intervals": "paper-pairs: epochs_per_s",
    "exp.pairs_qos_met": "paper-pairs: pairs_qos_met",
    "bench.run_cpu_s": "all: epochs_per_s",
    "bench.cpu_utilization": "fleet workloads: epochs_per_s",
    "bench.unattributed_cpu_s": "all: epochs_per_s",
    "bench.trace_overhead": "none (tracing cost; median over untraced/"
                            "traced pass pairs)",
    "bench.failed_fraction": "all (failed_fraction)",
}
# Per-layer metrics computed here rather than by the child.
RUNNER_LAYERS = ("bench.trace_overhead", "bench.failed_fraction")

# The paper's Fig 9/10 numbers, printed beside the modelled values.
PAPER_REFERENCE = [
    ("Sturgeon pairs >= 95% QoS", "sturgeon_pairs_qos_met", "18/18", None),
    ("PARTIES pairs >= 95% QoS", "parties_pairs_qos_met", "18/18", None),
    ("Sturgeon-NoB pairs failing", "nob_pairs_failing", "12/18", None),
    ("BE throughput vs PARTIES", "sturgeon_vs_parties_throughput", "+24.96%",
     "%+.2f%%"),
    ("balancer cost vs NoB", "balancer_cost_vs_nob", "4.38%", "%.2f%%"),
]


def load_spec():
    """BENCHMARK.json, checked against the tables above; None on error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = sorted((set(e2e) ^ set(END_TO_END_INFO)) |
                     (set(layers) ^ set(LAYER_MOVES)) |
                     ({v[0] for v in END_TO_END_EXTRA.values()} - set(layers)))
    if missing:
        log("perfbench: BENCHMARK.json and run.py disagree on: %s" %
            ", ".join(missing))
        return None
    return {"why": {w["name"]: w["why"] for w in spec["workloads"]},
            "e2e": e2e, "layers": layers}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    print(msg, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


def build(bdir):
    """Configure once, then build incrementally; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if cfg.returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=subprocess.DEVNULL, stderr=sys.stderr,
                          env=env)
    return done.returncode == 0


def provenance(threads, cpus):
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT,
                                 capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = None if commit is None else bool(git("status", "--porcelain"))
    # Content hash of what gets built, for checkouts without git.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "cpus": cpus,
    }


def pin(threads):
    """Pins this process, and so every repetition, to one CPU when the
    workload has one worker thread; returns the CPUs it may run on.

    The engines hand each epoch's work to pool threads and wait for it.
    Spread over idle vCPUs, each hand-off waits for a halted vCPU to wake,
    which on a shared host varies with the neighbours' load: a 1-thread
    fleet-diurnal-churn run spent from 0 to 1.4 s of its 3-5 s outside
    the CPU. On one CPU the caller and its one worker never run at once,
    and a hand-off is a context switch on a CPU that is already awake.
    More threads are left to the scheduler to spread: cluster-chaosnet's
    2 workers ran no faster or steadier pinned to 2 CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    if threads == 1:
        allowed = allowed[-1:]
        os.sched_setaffinity(0, allowed)
    return allowed


def child(binary, args, threads, start, traced=False, check_threads=0):
    """One repetition in its own process; returns (record or None, error)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(threads),
           "--traced", "1" if traced else "0",
           "--thread-check", str(check_threads)]
    timeout = max(1.0, start + HARD_LIMIT_S - time.monotonic())
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if out.returncode != 0:
        tail = (out.stderr or "").strip().splitlines()[-3:]
        return None, "exit %d: %s" % (out.returncode, " | ".join(tail))
    try:
        return json.loads(out.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "no record on stdout"


def failed_checks(rec):
    return sorted(k for k, ok in rec["checks"].items() if not ok)


def at_reference_speed(seconds, ref_s):
    """Host seconds scaled to the reference host speed.

    The shared host's speed drifts by tens of percent over minutes. At
    one worker thread the child times a fixed reference loop of its own
    (not simulator code) on its one CPU beside the items; ref_s is its
    median over the pass. An item timed while the loop took twice its
    nominal time counts half. A change to the simulator moves the items
    but not the loop. Passes without ref_s (cluster-chaosnet, whose pool
    threads run on other CPUs) keep their wall time."""
    return seconds * REFERENCE_LOOP_S / ref_s if ref_s else seconds


def fastest_run_s(reps, reference=True):
    """Run-loop time with every timed item (one co-location run on the
    paper pairs, the whole run on a fleet) at its fastest over the
    untraced passes of all repetitions; reference=False keeps wall time."""
    items = [[at_reference_speed(t, p.get("ref_s") if reference else None)
              for t in p["item_s"]]
             for rec in reps for p in rec["passes"] if not p["traced"]]
    return sum(min(times) for times in zip(*items))


def e2e_values(reps):
    out = reps[0]["outcomes"]
    run_s = fastest_run_s(reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "epochs_per_s": reps[0]["epochs"] / run_s,
        "node_steps_per_s": reps[0]["node_steps"] / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "fleet_qos": out["fleet_qos"],
        "be_throughput": out["be_throughput"],
        "power_overshoot_fraction": out["power_overshoot_fraction"],
        "job_completion_epochs": out["job_completion_epochs"],
        "pairs_qos_met": out["pairs_qos_met"],
    }


def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def run_e2e(binary, args, threads, start):
    reps, problems = [], []
    attempted = failed = 0
    run_total = 0.0
    check_threads = CHECK_THREADS.get(args.workload, 0)
    while attempted < MAX_REPS and (
            attempted < MIN_REPS or run_total < args.seconds):
        if time.monotonic() > start + WALL_BUDGET_S and attempted >= 1:
            break
        attempted += 1
        # The first repetition also reruns the fleet at another thread
        # count, after its timed run.
        rec, err = child(binary, args, threads, start,
                         check_threads=check_threads if attempted == 1
                         else 0)
        if rec is None or failed_checks(rec):
            failed += 1
            problems.append(err or "checks failed: %s" %
                            ", ".join(failed_checks(rec)))
            continue
        reps.append(rec)
        run_total += sum(p["run_s"] for p in rec["passes"])

    # Every repetition of one seed must model the same outputs.
    odd = [r for r in reps if r["digest"] != reps[0]["digest"]]
    if odd:
        problems.append("%d repetition(s) disagree on the modelled digest" %
                        len(odd))
        failed += len(odd)
    return reps, attempted, failed, problems


def run_traced(binary, args, threads, start):
    rec, err = child(binary, args, threads, start, traced=True)
    if rec is None or failed_checks(rec):
        return None, [err or "checks failed: %s" %
                      ", ".join(failed_checks(rec))]
    return rec, []


def layer_values(rec, workload, spec):
    """Every per-layer metric of a traced record; None if one is missing."""
    absent = ABSENT_LAYERS[workload]
    values = {}
    for name in spec["layers"]:
        if name in RUNNER_LAYERS:
            continue
        if name in rec["layers"]:
            values[name] = rec["layers"][name]
        elif name.split(".")[0] in absent:
            values[name] = 0
        else:
            log("perfbench: the traced record lacks %s" % name)
            return None
    return values


def layer_clock(name, unit):
    """Host timers give times and the whole-run bench.* figures; every
    other layer metric is a deterministic count or ratio of the model."""
    return "host" if unit in ("ns", "us", "s") or name.startswith(
        "bench.") else "model"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(ABSENT_LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if spec is None:
        return 2
    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 2
    start = time.monotonic()  # the time limits exclude a first build
    binary = os.path.join(bdir, "perfbench")
    threads = min(THREADS[args.workload], os.cpu_count() or 1)
    cpus = pin(threads)

    record = {
        "workload": args.workload,
        "why": spec["why"][args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(threads, cpus),
    }
    metrics = {}
    if args.trace == 0:
        reps, attempted, failed, problems = run_e2e(binary, args, threads,
                                                    start)
        record["repetitions"] = reps
        if reps:
            med = e2e_values(reps)
            med["failed_fraction"] = failed / attempted
            record["params"] = reps[0]["params"]
            record["reference"] = reps[0].get("reference")
            units = {**spec["e2e"], **{k: spec["layers"][v[0]] for k, v in
                                       END_TO_END_EXTRA.items()}}
            clocks = {**{k: v for k, v in END_TO_END_INFO.items()},
                      **{k: v[1:] for k, v in END_TO_END_EXTRA.items()}}
            say("\n== %s  seed %d  %d repetition(s), %d thread(s) ==" %
                (args.workload, args.seed, len(reps), threads))
            refs = [p["ref_s"] for r in reps for p in r["passes"]
                    if "ref_s" in p]
            if refs:
                record["host_speed"] = (REFERENCE_LOOP_S /
                                        statistics.median(refs))
                record["wall_epochs_per_s"] = (reps[0]["epochs"] /
                                               fastest_run_s(reps, False))
                say("host speed %.3f of the reference; epochs_per_s in "
                    "wall time %s" % (record["host_speed"],
                                      fmt(record["wall_epochs_per_s"])))
            say("%-26s %14s %-9s %-6s %s" % ("metric", "value", "unit",
                                            "clock", "meaning"))
            for name, (clock, meaning) in clocks.items():
                say("%-26s %14s %-9s %-6s %s" % (name, fmt(med[name]),
                                                 units[name], clock, meaning))
            if record["reference"]:
                ref = record["reference"]
                say("\nPaper Fig 9/10 reference (information only; the model "
                    "is not validated against hardware):")
                for label, key, paper, pct in PAPER_REFERENCE:
                    v = ref[key]
                    shown = (pct % (100 * v) if pct
                             else "%d/%d" % (v, ref["pairs"]))
                    say("  %-30s model %-10s paper %s" % (label, shown, paper))
            metrics = {k: {"value": med[k], "unit": u}
                       for k, u in spec["e2e"].items()}
            record["e2e"] = {k: {"value": med[k], "unit": units[k],
                                 "clock": clocks[k][0]} for k in clocks}
    else:
        attempted = 1
        rec, problems = run_traced(binary, args, threads, start)
        record["repetitions"] = [rec] if rec else []
        layers = layer_values(rec, args.workload, spec) if rec else None
        if rec and layers is None:
            problems.append("per-layer metrics missing from the record")
        failed = 1 if problems else 0
        if layers is not None:
            layers["bench.trace_overhead"] = rec["trace_overhead"]
            layers["bench.failed_fraction"] = failed / attempted
            record["params"] = rec["params"]
            say("\n== %s  seed %d  per-layer (traced passes) ==" %
                (args.workload, args.seed))
            say("%-34s %14s %-9s %-6s %s" % ("metric", "value", "unit",
                                             "clock", "should move"))
            for name, unit in spec["layers"].items():
                say("%-34s %14s %-9s %-6s %s" % (
                    name, fmt(layers[name]), unit, layer_clock(name, unit),
                    LAYER_MOVES[name]))
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in spec["layers"].items()}
            record["layers"] = metrics
            record["layer_moves"] = LAYER_MOVES

    if record["repetitions"]:
        first = record["repetitions"][0]
        record["provenance"].update(compiler=first["compiler"],
                                    build_type=first["build_type"])
    for p in problems:
        log("perfbench: FAILED: %s" % p)
    correct = failed == 0 and bool(metrics)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    out_path = os.path.join(bdir, "results", "%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
    log("full record: %s" % out_path)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
