#!/usr/bin/env python3
"""Run one benchmark workload cold and print its metrics.

    python3 perfbench/run.py --workload gas_capture --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload runs as a fixed number of *sets* (see
``workloads.py``) that take about ``--seconds`` on the reference host, so
the same arguments always attempt the same operations; every output is
checked, and the last line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
probes installed, every time rescaled to the reference host's speed by
the calibration kernel of ``calibration.py``.  With ``--trace 1`` each set
is run twice on the same inputs, once bare and once with the outside-in
layer probes of ``layers.py``, and the metrics are the per-layer ones
plus the tracing overhead.  The lines before the JSON report the host
fingerprint, the latency sample counts, failures by exception type and a
digest of the first set's results.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Set-up is measured in this many fresh processes spread over the run;
#: the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0

clock = time.perf_counter

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_updates_per_s": "1/s",
    "workflow_steps_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer span metrics (``--trace 1``): name -> (span, "total" | "self").
SPAN_METRICS = {
    "amr.step_s": ("amr.step", "total"),
    "amr.step_self_s": ("amr.step", "self"),
    "amr.fill_ghosts_s": ("amr.fill_ghosts", "total"),
    "amr.advance_s": ("amr.advance", "total"),
    "amr.regrid_s": ("amr.regrid", "total"),
    "amr.stable_dt_s": ("amr.stable_dt", "total"),
    "amr.average_down_s": ("amr.average_down", "total"),
    "workload.capture_self_s": ("workload.capture", "self"),
    "workload.synthetic_s": ("workload.synthetic", "total"),
    "analysis.entropy_s": ("analysis.entropy", "total"),
    "analysis.reconstruct_s": ("analysis.reconstruct", "total"),
    "analysis.isosurface_s": ("analysis.isosurface", "total"),
    "hpc.machine_build_s": ("hpc.machine_build", "total"),
    "hpc.sim_run_s": ("hpc.sim_run", "total"),
    "hpc.sim_run_self_s": ("hpc.sim_run", "self"),
    "hpc.transfer_s": ("hpc.transfer", "total"),
    "core.snapshot_s": ("core.snapshot", "total"),
    "core.adapt_s": ("core.adapt", "total"),
    "staging.submit_s": ("staging.submit", "total"),
    "workflow.setup_s": ("workflow.setup", "total"),
    "workflow.run_s": ("workflow.run", "total"),
    "service.submit_s": ("service.submit", "total"),
    "service.run_s": ("service.run", "total"),
    "service.run_self_s": ("service.run", "self"),
}

#: Per-layer counts (``--trace 1``): name -> unit.
COUNT_METRICS = {
    "amr.steps": "count",
    "amr.halo_bytes": "B",
    "amr.cells_advanced": "count",
    "amr.regrids": "count",
    "analysis.triangles": "count",
    "workload.synthetic_ranks": "count",
    "hpc.events": "count",
    "hpc.transfers": "count",
    "core.snapshots": "count",
    "core.adaptations": "count",
    "staging.jobs": "count",
    "staging.bytes_moved": "B",
    "workflow.runs": "count",
    "workflow.steps": "count",
    "workflow.failed": "count",
    "service.tenants": "count",
    "service.rejected": "count",
    "service.starvations": "count",
    "service.grants_grown": "count",
}

#: Per-layer ratios (``--trace 1``): name -> unit.
RATIO_METRICS = {
    "amr.boxes_per_step": "count",
    "hpc.events_per_step": "count",
    "observability.trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


class Pair(NamedTuple):
    """One set run bare and traced on the same inputs."""

    bare_s: float
    bare: Any  # workloads.SetOutcome
    traced_s: float
    traced: Any


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process of the setup_s probe
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread (the load is one process) and no experiment cache."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_NO_CACHE"] = "1"


# -- fingerprint ------------------------------------------------------------------


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": os.getloadavg(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# -- set-up ------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    """Child side: import the program, build the first set's inputs, report
    ready, then the host-speed scale measured right after."""
    from calibration import Calibrator
    from workloads import WORKLOADS

    WORKLOADS[args.workload].build(args.seed, 0)
    print("ready", flush=True)
    print(Calibrator().scale(), flush=True)
    return 0


def setup_probe_once(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its first inputs built,
    and that process's host-speed scale."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = clock()
            scale = proc.stdout.readline()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    try:
        if line.strip() != "ready" or proc.returncode != 0:
            raise ValueError
        return ready - start, float(scale)
    except ValueError:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})") from None


# -- the measured loop -----------------------------------------------------------


class SetTime(NamedTuple):
    """One untraced set: its operations' outcome, its seconds (calibration
    excluded), the host-speed scale measured over it and its operations'
    latencies each rescaled by the host speed around that operation."""

    outcome: Any  # workloads.SetOutcome
    raw_s: float
    scale: float
    latencies: list[float]


def run_untraced(workload, args, tally, check_cold):
    """A fixed number of sets for ``--seconds``; the timed part excludes
    input building and the calibration kernel.  The set-up probes are
    spread over the run -- the k-th before set ``k * sets // SETUP_PROBES``
    -- so a slow moment of the host moves one probe, not all of them."""
    from calibration import Calibrator

    sets: list[SetTime] = []
    probes: list[tuple[float, float]] = []
    count = workload.sets(args.seconds)
    for index in range(count):
        while len(probes) < SETUP_PROBES and len(probes) * count // SETUP_PROBES <= index:
            probes.append(setup_probe_once(args))
        inputs = workload.build(args.seed, index)
        gc.collect()  # the previous set's garbage is not this set's cost
        calibrator = Calibrator()
        t0 = clock()
        outcome = workload.execute(inputs, tally, calibrator)
        raw = clock() - t0 - calibrator.spent
        latencies = [x * calibrator.scale_near(mark)
                     for x, mark in zip(outcome.latencies, outcome.marks)]
        sets.append(SetTime(outcome, raw, calibrator.scale(), latencies))
        check_cold()
    return sets, probes


def run_traced(workload, args, tally, check_cold):
    """Each set bare and traced on the same inputs, alternating which goes
    first over an even number of pairs, because the first of two runs is
    measurably slower; both sides time input building too, as the probes
    cover it."""
    from layers import Tracer, install_layer_probes

    tracer = Tracer()
    pairs: list[Pair] = []
    count = 2 * max(1, round(workload.sets(args.seconds) / 4))
    for index in range(count):
        sides = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                install_layer_probes(tracer)
            gc.collect()
            try:
                t0 = clock()
                outcome = workload.execute(workload.build(args.seed, index), tally)
                sides[traced] = (clock() - t0, outcome)
            finally:
                tracer.uninstall()
            check_cold()
        pairs.append(Pair(*sides[False], *sides[True]))
    return tracer, pairs


def layer_metrics(tracer, pairs) -> dict[str, tuple[float, str]]:
    """Per traced set: span seconds, counts and ratios."""
    sets = len(pairs)
    out: dict[str, tuple[float, str]] = {}
    for name, (span, kind) in SPAN_METRICS.items():
        stats = tracer.spans.get(span)
        seconds = 0.0 if stats is None else (
            stats.total_s if kind == "total" else stats.self_s)
        out[name] = (seconds / sets, "s")
    for name, unit in COUNT_METRICS.items():
        out[name] = (tracer.counts.get(name, 0.0) / sets, unit)
    counts = tracer.counts
    amr_steps = counts.get("amr.steps", 0.0)
    sim_steps = sum(p.traced.steps for p in pairs)
    ratios = {
        "amr.boxes_per_step": counts.get("amr.boxes", 0.0) / amr_steps if amr_steps else 0.0,
        "hpc.events_per_step": (counts.get("hpc.events", 0.0) / sim_steps
                                if sim_steps else 0.0),
        "observability.trace_overhead": (sum(p.traced_s for p in pairs)
                                         / sum(p.bare_s for p in pairs) - 1.0),
    }
    for name, unit in RATIO_METRICS.items():
        out[name] = (ratios[name], unit)
    return out


# -- reporting ---------------------------------------------------------------------


def _peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def end_to_end_metrics(probes, sets, tally):
    """Every timing is rescaled to the reference host speed (see
    ``calibration.py``): a set's by its own scale, an operation's by the
    scale around it, a probe's by its own."""
    from accounting import summarize_latencies

    latencies = [x for s in sets for x in s.latencies]
    if not latencies:
        raise BenchError("no operation succeeded; nothing to measure")
    summary = summarize_latencies(latencies)
    walls = [s.raw_s * s.scale for s in sets]
    values = {
        "setup_s": statistics.median(raw * scale for raw, scale in probes),
        "wall_s": statistics.median(walls),
        "cell_updates_per_s": sum(s.outcome.cells for s in sets) / sum(latencies),
        "workflow_steps_per_s": sum(s.outcome.steps for s in sets) / sum(walls),
        "op_p50_ms": summary.p50 * 1e3,
        "op_tail_ms": summary.tail * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_ratio": 1.0 - tally.failed_ratio,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, summary


def report_failures(tally) -> None:
    print(f"operations: attempted={tally.attempted} failed={tally.failed} "
          f"failed_ratio={tally.failed_ratio:.6f}")
    for kind, count in sorted(tally.errors.items()):
        print(f"  raised {kind}: {count}  first: {tally.first_message[kind]}")
    for problem in tally.check_failures[:10]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.setup_probe:
        return setup_probe(args)

    from accounting import Tally
    from workloads import WORKLOADS, ColdPathError, assert_cold, clear_memos

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("fingerprint: " + json.dumps(fingerprint(args)))
    try:
        clear_memos()
        tally = Tally()
        if args.trace:
            tracer, pairs = run_traced(workload, args, tally, assert_cold)
            metrics = layer_metrics(tracer, pairs)
            for index, pair in enumerate(pairs):
                if pair.bare.digest.hexdigest() != pair.traced.digest.hexdigest():
                    tally.check_failed(0, f"set {index}: traced results differ "
                                       "from untraced results")
            first = pairs[0].bare
            sets = len(pairs)
            total = statistics.fmean(p.traced_s for p in pairs)
            print(f"traced sets: {sets}; per traced set ({total:.3f} s):")
            for name, stats in sorted(tracer.spans.items(), key=lambda kv: -kv[1].total_s):
                print(f"  {name:22s} calls={stats.calls / sets:10.1f} "
                      f"total={stats.total_s / sets:9.4f} s ({stats.total_s / sets / total:6.1%}) "
                      f"self={stats.self_s / sets:9.4f} s ({stats.self_s / sets / total:6.1%})")
        else:
            sets, probes = run_untraced(workload, args, tally, assert_cold)
            metrics, summary = end_to_end_metrics(probes, sets, tally)
            first = sets[0].outcome
            print(f"sets: {len(sets)}  set wall, raw s x host scale: "
                  + " ".join(f"{s.raw_s:.3f}x{s.scale:.3f}" for s in sets))
            print("setup probes, raw s x host scale: "
                  + " ".join(f"{raw:.3f}x{scale:.3f}" for raw, scale in probes))
            print(f"operation latency (reference-host s): {summary.describe()}")
    except (BenchError, ColdPathError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report_failures(tally)
    print(f"digest(set 0): {first.digest.hexdigest()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
