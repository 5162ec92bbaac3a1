"""One workload in one single-threaded process.

Started by run.py.  The process builds the workload's inputs, runs its
scenarios (see `timed`), then checks the outcomes outside the timed
region and prints one JSON line.

With --setup-only, run.py also passes the monotonic time at which it
spawned this process.  The process then prints the time from then until
the inputs are built, the set-up time, with the host's slowdown sampled
by the speed kernel (speed.py) just before and after set-up, and stops.
With --trace 1 it runs every scenario once untraced, installs the
tracing wrappers, runs every scenario once traced and reports per-layer
metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from speed import CALIBRATE_TICKS, REF_KERNEL_S, SpeedMeter
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def log(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def timed(plan, seconds: float, record) -> None:
    """Light scenarios run in whole rounds, every light scenario once per
    round in plan order, until the rounds have taken `seconds` in all.
    Each heavy scenario runs as often as its `heavy` count says, at
    evenly spaced points of that time and in plan order, so the many short runs of the light scenarios
    sample the host's speed over the whole run, not over one moment.  The
    first light round comes before every heavy scenario, which may
    therefore read what a light one wrote."""
    light = [sc for sc in plan if not sc.heavy]
    heavy = [sc for sc in plan for _ in range(sc.heavy)]
    due = [(i + 0.5) * seconds / len(heavy) for i in range(len(heavy))]
    done, light_s = 0, 0.0
    while light_s < seconds:
        while done < len(heavy) and due[done] <= light_s:
            record(heavy[done])
            done += 1
        t0 = time.perf_counter()
        for sc in light:
            record(sc)
        light_s += time.perf_counter() - t0
    for sc in heavy[done:]:
        record(sc)


class Recorder:
    """Runs scenarios and keeps their times.  The first outcome (or
    error) of each scenario is kept for the checks; every later outcome
    must equal it, else it counts as a failed operation.  Each execution
    is kept as (start, end, time outside the speed meter's kernel); see
    `scaled`."""

    def __init__(self, plan, meter: SpeedMeter):
        self.meter = meter
        self.samples = {sc.name: [] for sc in plan}
        self.first: dict = {}
        self.mismatches = {sc.name: 0 for sc in plan}

    def __call__(self, sc) -> None:
        outcome, error = None, None
        spent = self.meter.spent
        t0 = time.perf_counter()
        try:
            outcome = sc.run()
        except Exception:  # a raising operation is a failed operation
            error = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        self.samples[sc.name].append((t0, t1, t1 - t0 - (self.meter.spent - spent)))
        if sc.name not in self.first:
            self.first[sc.name] = (outcome, error)
        elif error or outcome != self.first[sc.name][0]:
            log("FAILED %s: %s" % (sc.name, error or "outcome differs from its first run"))
            self.mismatches[sc.name] += 1

    def scaled(self) -> dict[str, list[float]]:
        """Execution times in seconds at the reference speed, by scenario."""
        return {name: [t / self.meter.slowdown(t0, t1) for t0, t1, t in ts]
                for name, ts in self.samples.items()}


def check_outcomes(scenarios, first: dict) -> dict:
    """Check each scenario's first outcome against the oracles; returns
    errors by name."""
    outcomes = {name: out for name, (out, err) in first.items() if err is None}
    ctx = {"cache": {}, "outcomes": outcomes}
    errors = {name: err for name, (out, err) in first.items() if err is not None}
    for sc in scenarios:
        if sc.name in errors:
            continue
        try:
            sc.check(outcomes[sc.name], ctx)
        except Exception:
            errors[sc.name] = traceback.format_exc(limit=4)
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, help="with --setup-only")
    args = ap.parse_args()

    meter = SpeedMeter()
    if args.setup_only:
        # samples the speed before set-up; its time is taken out below
        meter.calibrate(CALIBRATE_TICKS)
    if not os.path.isfile(os.path.join(SRC, "constel", "__init__.py")):
        log("error: no constel sources under %s" % SRC)
        return 2
    sys.path[:0] = [SRC, HERE]
    import constel
    if not os.path.abspath(constel.__file__).startswith(SRC + os.sep):
        log("error: imported constel from %s, not from %s" % (constel.__file__, SRC))
        return 2
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        log("error: unknown workload %r" % args.workload)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plan = scenarios.build(args.workload, args.seed, workdir)
        if args.setup_only:
            setup_s = time.monotonic() - args.spawned_at - meter.spent
            built = time.perf_counter()
            meter.calibrate(CALIBRATE_TICKS)
            print(json.dumps({"setup_s": setup_s,
                              "slowdown": meter.slowdown(meter.mids[0], built)}))
            return 0
        return measure(args, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, plan) -> int:
    meter = SpeedMeter()
    rec = Recorder(plan, meter)
    if args.trace:
        # one untraced pass, then one traced pass, each scenario once,
        # with the kernel run back to back before and after each pass
        walls, slowdowns = [], []
        for traced in (False, True):
            meter.calibrate(CALIBRATE_TICKS)
            if traced:
                tracer = Tracer()
                tracer.install()
            t0 = time.perf_counter()
            for sc in plan:
                rec(sc)
            t1 = time.perf_counter()
            meter.calibrate(CALIBRATE_TICKS)
            walls.append(t1 - t0)
            slowdowns.append(meter.slowdown(t0, t1))
            log("%s pass: %.3f s, slowdown %.3f" % ("traced" if traced else "untraced",
                                                     walls[-1], slowdowns[-1]))
        # before the checks, which call traced functions too
        metrics = layer_metrics(tracer, walls, slowdowns)
        tree = tracer.call_tree()
    else:
        meter.start()
        try:
            timed(plan, args.seconds, rec)
        finally:
            meter.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples, mismatches = rec.samples, rec.mismatches
    t0 = time.perf_counter()
    errors = check_outcomes(plan, rec.first)
    log("checks: %.3f s" % (time.perf_counter() - t0))
    for name, err in errors.items():
        log("FAILED %s:\n%s" % (name, err))
    failed = sum(mismatches.values()) + sum(len(samples[name]) - mismatches[name]
                                            for name in errors)

    if args.trace:
        for path, (calls, total) in sorted(tree.items()):
            if total >= 0.05 * walls[1]:
                log("span %-60s %7d calls %8.3f s" % (" > ".join(path), calls, total))
    else:
        medians = {name: statistics.median(ts) for name, ts in rec.scaled().items()}
        metrics = {"wall_s": (math.fsum(medians.values()), "s"),
                   "scenario_geomean_s": (math.exp(statistics.fmean(map(math.log,
                                                                       medians.values()))), "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}
        for name, t in medians.items():
            raw = statistics.median(x[2] for x in samples[name])
            log("%-32s %8.4f s  (%8.4f s unscaled, %d samples)"
                % (name, t, raw, len(samples[name])))
        log("slowdown: median %.3f over %d kernel runs"
            % (statistics.median(meter.durations) / REF_KERNEL_S, len(meter.durations)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(map(len, samples.values())),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
