"""egk benchmark: one closed-loop client runs a workload's items and checks every output.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: games-deep, games-wide, models, cli (see perfbench/README.md).
The seed makes the inputs; the library receives only the inputs.  A run
repeats the workload's fixed item list (a pass) while another pass still
fits in ``--seconds``, starting each item after the previous one ends.
Checks run after each item, outside the timed region.
Item and set-up times are scaled to a reference host speed by the probes
of ``hostspeed.py``; each run also prints the unscaled wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; the spans go to
``.perfbench-out/<workload>-seed<N>.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import REFERENCE_PROBE_S, Probe, Sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("games-deep", "games-wide", "models", "cli")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(metrics: dict, kind: str) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared(kind).items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up; print its seconds without the probes, "
                             "the mean probe and its seconds with the probes, and exit")
    return parser.parse_args(argv)


def setup(name: str, seed: int, workdir: Path, probe):
    """Import egk and generate the workload's inputs; returns (workload, Sample)."""
    def generate():
        import workloads
        return workloads.WORKLOADS[name](random.Random(seed), workdir)

    return probe.measure(generate)


def child_setup(args: argparse.Namespace) -> Sample:
    """One set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return Sample(*map(float, proc.stdout.split()[-3:]))


def run_passes(workload, seconds: float, trace: bool, checks, probe):
    """Repeat the item list while another pass fits; odd passes are traced under --trace 1.

    Returns each item's Samples over the untraced and the traced passes, and
    the traced passes' tracers.
    """
    from tracing import Tracer

    untraced = [[] for _ in workload.items]
    traced = [[] for _ in workload.items]
    tracers = []
    if workload.child_probes:
        measure = lambda run: probe.measure_child(run, workload.child_probes)
    else:
        measure = probe.measure
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer() if trace and n % 2 else None
        samples = traced if tracer else untraced
        for k, item in enumerate(workload.items):
            item.prepare()
            gc.collect()            # the previous item's garbage is not this item's cost
            if tracer:
                tracer.install()
                result, sample = measure(lambda: tracer.item(item.name, lambda: item.run(tracer)))
                tracer.uninstall()
            else:
                result, sample = measure(lambda: item.run(None))
            samples[k].append(sample)
            item.check(result, checks)
        if tracer:
            tracers.append((tracer, workload.startup_costs()))
        n += 1
        now = time.perf_counter()
        if n >= (2 if trace else 1) and now + (now - pass_start) > deadline:
            return untraced, traced, tracers


def at_reference_speed(samples) -> list[list[float]]:
    """Each item's latencies over the passes, in seconds at the reference host speed."""
    return [[x.at_reference_speed() for x in per_item] for per_item in samples]


def list_wall(latencies) -> float:
    """Time of the item list: the sum of each item's median latency."""
    return sum(median(per_item) for per_item in latencies)


def end_to_end(latencies, peak_rss_mb: float, setup_s: float) -> tuple[dict, list[str]]:
    """Item latency is each item's median over the passes; the tail uses every sample."""
    flat = sorted(x for per_item in latencies for x in per_item)
    metrics = {
        "wall_s": list_wall(latencies),
        "items_per_s": len(latencies) / list_wall(latencies),
        "item_p50_ms": median(median(per_item) for per_item in latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    notes = [f"items: {len(flat)} in {len(latencies[0])} passes of {len(latencies)}"]
    if len(flat) >= 2 * TAIL_BEYOND:
        pct = 100 * (len(flat) - TAIL_BEYOND) / len(flat)
        notes.append(f"item_tail_ms {flat[-TAIL_BEYOND - 1] * 1e3:.3f} ms at p{pct:.1f} "
                     f"({len(flat)} samples, {TAIL_BEYOND} beyond)")
    else:
        notes.append(f"item_tail_ms omitted: {len(flat)} items, fewer than {2 * TAIL_BEYOND}")
    return report(metrics, "end_to_end"), notes


def per_layer(untraced, traced, tracers, factors) -> dict:
    """``factors`` scales each traced pass's span times, probes included, to the
    reference host speed; ``cli.interp_start_s`` and ``cli.import_s`` stay unscaled."""
    from tracing import layer_metrics, median_metrics

    passes = []
    for (tracer, costs), factor in zip(tracers, factors):
        layer = {name: value * factor if name.endswith("_s") else value
                 for name, value in layer_metrics(tracer.spans, tracer.counts).items()}
        layer["cli.interp_start_s"] = costs.get("cli.interp_start_s", 0.0)
        layer["cli.import_s"] = costs.get("cli.import_s", 0.0)
        passes.append(layer)
    metrics = median_metrics(passes)
    metrics["trace.wall_s"] = list_wall(traced)
    metrics["trace.overhead_s"] = list_wall(traced) - list_wall(untraced)
    return report(metrics, "per_layer")


def main() -> int:
    args = parse_args()
    if not (SRC / "egk" / "__init__.py").is_file():
        print(f"perfbench: no egk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    probe = Probe()
    try:
        workload, setup_sample = setup(args.workload, args.seed, workdir, probe)
        if args.setup_only:
            print(setup_sample.work_s, setup_sample.probe_s, setup_sample.wall_s)
            return 0
        from workloads import Checks

        checks = Checks()
        untraced, traced, tracers = run_passes(
            workload, args.seconds, bool(args.trace), checks, probe)
        who = resource.RUSAGE_CHILDREN if workload.child_probes else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        setups = [setup_sample]
        setups += [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    measured_wall = sum(median(x.work_s for x in per_item) for per_item in untraced)
    mean_probe = median(x.probe_s for per_item in untraced for x in per_item)
    factors = [sum(per_item[j].at_reference_speed() for per_item in traced)
               / sum(per_item[j].wall_s for per_item in traced) for j in range(len(tracers))]
    untraced, traced = at_reference_speed(untraced), at_reference_speed(traced)
    setup_s = median(x.at_reference_speed() for x in setups)
    print(f"workload {args.workload}, seed {args.seed}: {workload.sizes}")
    print("closed loop, 1 client, items run one after another")
    print(f"probe {mean_probe * 1e6:.1f} us (median item), reference {REFERENCE_PROBE_S * 1e6:.1f} us; "
          "unscaled wall time of the item list "
          f"{measured_wall:.4g} s")
    metrics, notes = end_to_end(untraced, peak_rss_mb, setup_s)
    if args.trace:
        metrics = per_layer(untraced, traced, tracers, factors)
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "passes": [
            {"spans": t.spans, "counts": t.counts} for t, _ in tracers]}))
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops {checks.attempted}, ops_failed {checks.failed}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
