"""Repository benchmark: end-to-end and per-layer performance of the
median-rule reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (medians normalised by CPU
speed, see ``harness.py``); ``--trace 1`` makes a separate traced run that attributes
wall time to the program's layers.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run's provenance.  A full record (raw seconds included)
is written to ``.perfbench/results/``.  Exit code 0 means every output
check passed, 1 that one failed, 2 that the directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional

import harness

#: Fresh-interpreter set-ups timed per run (their median is ``setup_s``).
SETUP_REPEATS = 3
#: Start-up probes per traced run (``python -X importtime``).
STARTUP_REPEATS = 3


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-put-delay", type=float, default=0.0,
                        metavar="S", help="sensitivity self-test: sleep S "
                        "seconds in every ResultStore.put")
    parser.add_argument("--inject-startup-delay", type=float, default=0.0,
                        metavar="S", help="sensitivity self-test: sleep S "
                        "seconds at start-up of every child interpreter")
    return parser.parse_args(argv)


def inject_put_delay(seconds: float) -> None:
    from repro.store.store import ResultStore

    put = ResultStore.put

    def delayed_put(self, *args, **kwargs):
        time.sleep(seconds)
        return put(self, *args, **kwargs)

    ResultStore.put = delayed_put


def measured(workload, seconds: float) -> Dict[str, float]:
    from workloads import CPUS

    run = workload.run
    setup, setup_raw, problems = harness.measure_setup(
        workload.modules, run.kernel_id, SETUP_REPEATS)
    run.problems += problems
    workload.prepare()
    cpus = CPUS[workload.name]
    with harness.SpeedSampler(cpus) as sampler:
        clock = harness.Clock(cpus, sampler, workload.probes)
        start = time.perf_counter()
        durations: List[float] = []
        while True:
            t0 = time.perf_counter()
            workload.unit(clock)
            clock.end_unit()
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(durations) >= workload.min_units and \
                    elapsed >= seconds - statistics.mean(durations) / 2:
                break
        run.units, run.raw, run.probe_s = clock.results()
    run.extra = {"raw.setup_s": statistics.median(setup_raw),
                 "raw.wall_s": statistics.median(run.raw),
                 "calib.probe_s": statistics.median(run.probe_s)}
    return {"setup_s": statistics.median(setup),
            "wall_s": statistics.median(run.units),
            "peak_rss_mb": harness.peak_rss_mb()}


def startup_metrics() -> Dict[str, float]:
    from tracing import parse_importtime

    harness.pin(harness.PINNED)
    interp, parsed = [], []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        harness.run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - t0)
        proc = harness.run_child([sys.executable, "-X", "importtime", "-c",
                                  "import repro.cli"])
        parsed.append(parse_importtime(proc.stderr))
    out = {"startup.interp_s": statistics.median(interp)}
    for key in parsed[0]:
        out[f"startup.{key}"] = statistics.median(p[key] for p in parsed)
    return out


def traced(workload) -> Dict[str, float]:
    from repro.engine._multinomial import DRAW_STATS
    from tracing import Recorder, instrument, layer_metrics
    from workloads import CPUS

    cpus = CPUS[workload.name]
    layers = startup_metrics()
    workload.in_process = True   # cli: time main(argv) after import
    workload.prepare()
    rec = Recorder()
    with harness.SpeedSampler(cpus) as sampler:
        plain = harness.Clock(cpus, sampler, workload.probes)
        workload.unit(plain)
        clock = harness.Clock(cpus, sampler, workload.probes)
        draws = dict(DRAW_STATS)
        instrument(rec)
        try:
            workload.unit(clock)
        finally:
            rec.restore()
        untraced = plain.measure(plain.sections)[0]
        traced_ref, wall, loop = clock.measure(clock.sections)
    layers["calib.probe_s"] = loop
    layers.update(layer_metrics(rec))
    layers.update(workload.traced_extras(rec))
    layers["multinomial.calls"] = DRAW_STATS["calls"] - draws["calls"]
    layers["multinomial.rows"] = DRAW_STATS["rows"] - draws["rows"]
    layers["trace.wall_s"] = wall
    layers["trace.unattributed_s"] = wall - rec.root_busy(clock.sections)
    # in reference seconds, so a change of CPU speed between the two units
    # does not read as tracing cost
    layers["trace.overhead_s"] = traced_ref - untraced
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        harness.prepare(startup_delay=args.inject_startup_delay)
    except harness.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Run

    kernel_id = harness.build_kernel()
    if args.inject_put_delay:
        inject_put_delay(args.inject_put_delay)
    run = Run(seed=args.seed, kernel_id=kernel_id)
    workload = WORKLOADS[args.workload](run)
    try:
        if args.trace:
            values, units = traced(workload), metric_units("per_layer")
        else:
            values = measured(workload, args.seconds)
            units = metric_units("end_to_end")
    finally:
        workload.close()
        harness.stop_helper_processes()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        # a layer this workload does not reach reads 0
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    info = harness.provenance(args.workload, args.seed, kernel_id)
    harness.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        {**result, "provenance": info, "problems": run.problems,
         "units_s": run.units, "raw_units_s": run.raw,
         "probe_s": run.probe_s,
         "extra": run.extra})
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
