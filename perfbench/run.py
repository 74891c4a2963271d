#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lazyrep (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the lazyrep libraries from src/) into
.bench_build/perfbench, then repeats the workload's points for about S host
seconds, one process per repetition, and prints as its last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of the plain binary. --trace 1
spends a third of the budget on the plain binary and the rest on the traced
one, and reports the per-layer metrics plus the tracing overhead.

Host times are scaled to a reference host speed. The driver times a fixed
probe job that does not touch lazyrep (ProbeHost in driver.cc) before every
point and after the last, and each point's host times are multiplied by
REFERENCE_PROBE_S over the mean of the two probes around it. On a shared host
whose speed swings by half within seconds, this keeps the figures of one
build steady from run to run while a change in lazyrep's own cost still shows
in full. Each time figure is then the per-point median over the repetitions,
summed over the points. stderr logs the unscaled figures too.

A point is one System run. `attempted` counts point runs; `failed` counts
those that crashed (a LAZYREP_CHECK abort, reported with a reproducer on
stderr; the next repetition process carries on after it) or failed an
enabled audit. `correct` is false when a point's digest of simulated results
differs between repetitions, between the plain and traced binaries, or, at
the default seed, from reference.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("oc3_sweep", "fleet_1024", "geo_eager", "chaos_audit")
REFERENCE_SEED = 1
# A run must end within 180 s; stop launching processes after this.
HARD_LIMIT_S = 160.0
# Host seconds are reported as if the probe job took this long, which is
# about its typical time on the 4-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_PROBE_S = 0.010


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: configuring the build failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the build failed")


class Harness:
    def __init__(self, workload, seed, t0):
        self.workload = workload
        self.seed = seed
        self.t0 = t0
        self.attempted = 0
        self.failed = 0

    def elapsed(self):
        return time.monotonic() - self.t0

    def run_rep(self, binary):
        """Runs every point once; returns (points by index, peak RSS in KB).

        A process that dies mid-point fails that point; a fresh process
        continues from the next one. Each finished point gets "probes", the
        probe times just before and just after it.
        """
        points = {}
        peak_kb = 0
        first = 0
        stderr_path = os.path.join(BUILD, "driver.stderr")
        while True:
            if self.elapsed() > HARD_LIMIT_S:
                raise RuntimeError("out of time at point %d" % first)
            cmd = [binary, "--workload=" + self.workload,
                   "--seed=%d" % self.seed, "--first=%d" % first]
            with open(stderr_path, "w+") as err:
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                        stderr=err, text=True)
                timer = threading.Timer(
                    max(1.0, HARD_LIMIT_S + 10 - self.elapsed()), proc.kill)
                timer.start()
                started = None
                pending = None  # finished point awaiting its closing probe
                for line in proc.stdout:
                    if not line.endswith("\n"):
                        break  # cut short by a crash
                    rec = json.loads(line)
                    if "probe_s" in rec and pending is not None:
                        pending["probes"].append(rec["probe_s"])
                        pending = None
                    if "start" in rec:
                        started = rec
                        self.attempted += 1
                    elif "point" in rec:
                        rec["probes"] = [started["probe_s"]]
                        points[rec["point"]] = rec
                        pending = rec
                        started = None
                        if not rec["ok"]:
                            self.failed += 1
                            self.report(binary, rec["point"], rec["label"],
                                        rec["why"])
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                timer.cancel()
                peak_kb = max(peak_kb, usage.ru_maxrss)
                err.seek(0)
                err_lines = err.read().strip().splitlines()
            if proc.returncode == 0 and started is None:
                return points, peak_kb
            if started is None:
                raise RuntimeError("%s exited with %d: %s" % (
                    " ".join(cmd), proc.returncode,
                    err_lines[-1] if err_lines else ""))
            self.failed += 1
            code = proc.returncode
            how = ("killed by %s" % signal.Signals(-code).name if code < 0
                   else "exit code %d" % code)
            self.report(binary, started["start"], started["label"], "%s: %s" % (
                how, err_lines[-1] if err_lines else ""))
            first = started["start"] + 1

    def report(self, binary, point, label, why):
        """Logs a failed point with a one-line reproducer."""
        log("FAILED %s point %d (%s): %s; reproduce: %s --workload=%s "
            "--seed=%d --first=%d --count=1"
            % (self.workload, point, label, why,
               os.path.relpath(binary, ROOT), self.workload, self.seed,
               point))

    def run_for(self, binary, budget_s):
        """Repeats the workload until another repetition would overrun."""
        start = self.elapsed()
        reps = []
        while True:
            rep_start = self.elapsed()
            points, peak_kb = self.run_rep(binary)
            reps.append(Rep(points, peak_kb))
            rep_s = self.elapsed() - rep_start
            if (self.elapsed() + rep_s > start + budget_s or
                    self.elapsed() + rep_s > HARD_LIMIT_S):
                return reps


class Rep:
    """One repetition of a workload: its finished points by index and the
    peak resident memory of its processes."""

    def __init__(self, points, peak_kb):
        self.points = points
        self.peak_kb = peak_kb

    def total(self, key):
        return sum(p[key] for p in self.points.values())

    def layer(self, key):
        values = [p["layers"][key] for p in self.points.values()]
        return max(values) if key == "peak_pending" else sum(values)

    def mean(self, key):
        return statistics.fmean(p[key] for p in self.points.values())

    def max(self, key):
        return max(p[key] for p in self.points.values())

    def digests(self):
        return {i: p["digest"] for i, p in self.points.items()}


def check_digests(workload, seed, passes):
    """True when every point's digest agrees across all repetitions of all
    passes and, at the reference seed, with reference.json."""
    ok = True
    expected = {}
    if seed == REFERENCE_SEED:
        with open(REFERENCE) as f:
            ref = json.load(f)["workloads"].get(workload)
        if ref is None:
            log("no reference digests for %s" % workload)
            ok = False
        else:
            expected = dict(enumerate(ref))
    for name, reps in passes:
        for r, rep in enumerate(reps):
            for i, digest in sorted(rep.digests().items()):
                if i not in expected:
                    expected[i] = digest
                elif expected[i] != digest:
                    log("DIGEST MISMATCH %s point %d (%s), %s repetition %d: "
                        "%s, expected %s" % (workload, i,
                                             rep.points[i]["label"], name, r,
                                             digest, expected[i]))
                    ok = False
            for p in rep.points.values():
                if p["events"] == 0 or p["committed"] == 0:
                    log("EMPTY RESULT %s point %d (%s)" % (
                        workload, p["point"], p["label"]))
                    ok = False
    return ok


def common_points(reps):
    return sorted(set.intersection(*(set(r.points) for r in reps)))


def host_s(p, key, scaled=True):
    """A point's host seconds under `key`, scaled to the reference host
    speed by the probes around the point unless `scaled` is false."""
    raw = p[key] if key in p else p["layers"][key]
    return raw * REFERENCE_PROBE_S / statistics.fmean(p["probes"]) if scaled \
        else raw


def typical(reps, key, scaled=True):
    """Host seconds under `key`: per point, the median over the
    repetitions, summed over the points every repetition finished."""
    return sum(statistics.median(host_s(r.points[i], key, scaled)
                                 for r in reps)
               for i in common_points(reps))


def common_txns(reps):
    return sum(reps[0].points[i]["txns"] for i in common_points(reps))


def end_to_end(harness, reps):
    ok_ratio = (harness.attempted - harness.failed) / harness.attempted
    return {
        "sim_txn_per_s": (common_txns(reps) / typical(reps, "run_s"),
                          "txn/s"),
        "wall_s": (typical(reps, "wall_s"), "s"),
        "setup_s": (typical(reps, "setup_s"), "s"),
        "peak_rss_mb": (
            statistics.median(r.peak_kb for r in reps) / 1024.0, "MB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain, traced):
    """Counts come from the first traced repetition (they repeat exactly),
    layer times from the traced repetitions, and the untraced figures (ns
    per event, core times) from the plain ones."""
    t = traced[0]
    ev = t.total("events")
    plain_run = typical(plain, "run_s")
    return {
        "sim.events": (ev, "count"),
        "sim.events_per_txn": (ratio(ev, t.total("txns")), "events/txn"),
        "sim.ns_per_event": (
            1e9 * plain_run / sum(plain[0].points[i]["events"]
                                  for i in common_points(plain)), "ns"),
        "sim.peak_pending": (t.layer("peak_pending"), "count"),
        "sim.cancels_per_event": (ratio(t.layer("cancels"), ev), "ratio"),
        "sim.queue_s": (typical(traced, "queue_s"), "s"),
        "sim.stat_sets": (t.layer("stat_set_calls"), "count"),
        "sim.stat_set_s": (typical(traced, "stat_set_s"), "s"),
        "sim.allocs_per_event": (ratio(t.total("allocs"), ev), "allocs/event"),
        "sim.frame_pool_hit": (
            ratio(t.total("frames_pooled"),
                  t.total("frames_pooled") + t.total("frames_fresh")),
            "ratio"),
        "hw.facility_uses": (t.layer("facility_uses"), "count"),
        "hw.site_cpu_util": (t.mean("site_cpu_util"), "ratio"),
        "hw.disk_util": (t.mean("disk_util"), "ratio"),
        "hw.graph_cpu_util": (t.mean("graph_cpu_util"), "ratio"),
        "hw.graph_cpu_queue": (t.mean("graph_cpu_queue"), "requests"),
        "net.transfers": (t.layer("transfers"), "count"),
        "net.multicasts": (t.layer("multicasts"), "count"),
        "net.util_max": (t.max("net_util_max"), "ratio"),
        "db.lock_acquires": (t.layer("lock_acquires"), "count"),
        "db.lock_waits": (t.total("lock_waits"), "count"),
        "db.lock_timeouts": (t.total("lock_timeouts"), "count"),
        "db.lock_releases": (t.layer("lock_release_calls"), "count"),
        "db.lock_release_s": (typical(traced, "lock_release_s"), "s"),
        "db.store_applies": (t.layer("store_apply_calls"), "count"),
        "db.store_apply_s": (typical(traced, "store_apply_s"), "s"),
        "db.store_reads": (t.layer("store_read_calls"), "count"),
        "db.twr_ignored": (t.total("twr_ignored"), "count"),
        "rg.tests": (t.layer("rg_test_calls"), "count"),
        "rg.rgtest_s": (typical(traced, "rg_test_s"), "s"),
        "rg.check_edges": (t.layer("check_edges"), "count"),
        "rg.ok_ratio": (
            ratio(t.layer("rg_ok"), t.layer("rg_test_calls")), "ratio"),
        "rg.remove_s": (typical(traced, "rg_remove_s"), "s"),
        "proto.commit_ratio": (
            ratio(t.total("committed"), t.total("submitted")), "ratio"),
        "proto.abort_rate": (
            ratio(t.total("aborted"), t.total("submitted")), "ratio"),
        "proto.eager_retry_ratio": (
            ratio(t.total("eager_retries"), t.total("eager_rounds")),
            "ratio"),
        "core.run_s": (plain_run, "s"),
        "core.audit_s": (typical(plain, "audit_s"), "s"),
        "fault.deliveries": (t.layer("delivery_calls"), "count"),
        "fault.delivery_s": (typical(traced, "delivery_s"), "s"),
        "fault.retransmissions": (t.total("retransmissions"), "count"),
        "fault.wal_forces": (t.total("wal_forces"), "count"),
        "fault.recoveries": (t.total("recoveries"), "count"),
        "trace.overhead": (typical(traced, "run_s") / plain_run, "ratio"),
    }


def counts_repeat(plain, traced):
    """True when every point fired the same events in every repetition of
    both binaries, and made the same layer calls in every traced one."""
    ok = True
    events = {}
    calls = {}
    for rep in plain + traced:
        for i, p in rep.points.items():
            if events.setdefault(i, p["events"]) != p["events"]:
                log("EVENTS DIFFER %s" % p["label"])
                ok = False
    for rep in traced:
        for i, p in rep.points.items():
            counts = {k: v for k, v in p["layers"].items()
                      if not k.endswith("_s")}
            if calls.setdefault(i, counts) != counts:
                log("LAYER COUNTS DIFFER %s" % p["label"])
                ok = False
    return ok


def update_reference(workload, reps):
    with open(REFERENCE) as f:
        ref = json.load(f)
    digests = reps[0].digests()
    ref["workloads"][workload] = [digests[i] for i in sorted(digests)]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite this workload's digests in reference.json "
                        "(requires --seed %d --trace 0)" % REFERENCE_SEED)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in [1, 120]")
    if args.update_reference and (args.seed != REFERENCE_SEED or args.trace):
        p.error("--update-reference needs --seed %d --trace 0"
                % REFERENCE_SEED)
    return args


def main(argv):
    args = parse_args(argv)
    t0 = time.monotonic()
    build()
    harness = Harness(args.workload, args.seed, time.monotonic())
    plain_bin = os.path.join(BUILD, "lazyrep_bench")
    if args.trace == 0:
        plain = reps = harness.run_for(plain_bin, args.seconds)
        if args.update_reference:
            update_reference(args.workload, reps)
        correct = check_digests(args.workload, args.seed, [("plain", reps)])
        metrics = end_to_end(harness, reps)
    else:
        plain = harness.run_for(plain_bin, args.seconds / 3.0)
        traced = harness.run_for(
            os.path.join(BUILD, "lazyrep_bench_traced"),
            args.seconds - harness.elapsed())
        correct = check_digests(args.workload, args.seed,
                                [("plain", plain), ("traced", traced)])
        correct = counts_repeat(plain, traced) and correct
        metrics = per_layer(plain, traced)
        reps = plain + traced
    log("%s seed=%d trace=%d: %d repetitions, %.1f s (%.1f s with build); "
        "unscaled plain run_s %.4f, wall_s %.4f, setup_s %.4f"
        % (args.workload, args.seed, args.trace, len(reps),
           harness.elapsed(), time.monotonic() - t0,
           typical(plain, "run_s", False), typical(plain, "wall_s", False),
           typical(plain, "setup_s", False)))
    print(json.dumps({
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
