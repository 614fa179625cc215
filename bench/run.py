"""Benchmark for syncmonoid: four CLI workloads, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one table

Each workload runs its CLI calls through ``syncmonoid.cli.main`` in this
process, for as many passes as fill ``--seconds`` at the workload's nominal
pass time, and checks every pass's output.  With ``--trace 0`` the passes
are timed on the host-speed corrected clock of ``hostspeed.py`` and the last
stdout line holds the end-to-end metrics; with ``--trace 1`` the first half
of the passes runs untraced and the second half runs with the layer hooks of
``tracing.py``, and the last line holds the per-layer metrics.  The full result, with its
provenance, and the spans of a traced run are written under ``bench/out/``.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"
SETUP_SPAWNS = 11
MIN_PASSES = 3
SETUP_CODE = "import syncmonoid.cli as cli; cli.build_parser()"

sys.path.insert(0, str(BENCH_DIR))
from hostspeed import (  # noqa: E402
    KERNELS, PERIOD, SPAWN_REFERENCE_CODE, SPAWN_REFERENCE_S, HostClock,
)
from tracing import Tracer, installed, layer_metrics, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "record_p50_ms": "ms",
    "record_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class LayoutError(Exception):
    pass


def import_program():
    """Import syncmonoid from this checkout's src/, never from elsewhere."""
    if not (SRC / "syncmonoid" / "__init__.py").is_file():
        raise LayoutError(f"no syncmonoid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import syncmonoid.cli

    if Path(syncmonoid.cli.__file__).resolve().parent != SRC / "syncmonoid":
        raise LayoutError(f"imported syncmonoid from {syncmonoid.cli.__file__}, not {SRC}")
    return syncmonoid.cli


class _Recorder(io.TextIOBase):
    """Stdout stand-in that keeps what is written and when."""

    def __init__(self, clock):
        self.clock = clock
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.append(self.clock())
        self.parts.append(text)
        return len(text)


def _golden_path(wl, seed: int) -> Path:
    return GOLDEN_DIR / (f"{wl.name}.seed{seed}.out" if wl.seeded else f"{wl.name}.out")


def run_pass(
    cli, wl, seed: int, clock=time.perf_counter, tracer: Tracer | None = None,
    golden: bool = True,
) -> dict:
    """One pass: every CLI call of the workload, then the output checks.

    The pass's time is split into pieces, the same ones on every pass: a
    whole call for the subcommands that write their records only when they
    end, and for a streaming subcommand the gap before each record plus the
    tail after the last one.  ``records`` marks the pieces that end in a
    record.
    """
    outputs, pieces, records = [], [], []
    start = clock()
    for argv in wl.calls(seed):
        sink = _Recorder(clock)
        call_start = clock()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
        call_end = clock()
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")
        outputs.append("".join(sink.parts))
        if wl.streaming:
            marks = [call_start] + sink.times + [call_end]
            pieces += [b - a for a, b in zip(marks, marks[1:])]
            records += [True] * len(sink.times) + [False]
        else:
            pieces.append(call_end - call_start)
            records.append(True)
    wall = clock() - start
    output = "".join(outputs)
    problems = wl.check(seed, outputs)
    if golden and (not wl.seeded or seed == wl.default_seed):
        path = _golden_path(wl, seed)
        if not path.is_file():
            problems.append(f"golden copy {path.name} is missing")
        elif path.read_text(encoding="utf-8") != output:
            problems.append(f"output differs from golden copy {path.name}")
    return {"wall_s": wall, "pieces": pieces, "records": records, "output": output,
            "problems": problems}


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_count(wl, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on the workload and ``--seconds`` only, never on how
    fast the program runs, so every run of a workload takes its medians over
    the same number of passes.
    """
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def _passes(cli, wl, seed: int, count: int, clock=time.perf_counter,
            tracer: Tracer | None = None, setup: list[float] | None = None) -> list[dict]:
    """``count`` passes.  A pass that raises or fails a check is kept with
    its problems.  With ``setup`` given, ``SETUP_SPAWNS`` set-up times are
    added to it, spread evenly between the passes."""
    spawns_before = [j * count // SETUP_SPAWNS for j in range(SETUP_SPAWNS)]
    done = []
    for index in range(count):
        if setup is not None:
            setup += [time_setup() for _ in range(spawns_before.count(index))]
        first_span = len(tracer.name) if tracer is not None else 0
        if tracer is not None:
            tracer.totals = {}
        try:
            result = run_pass(cli, wl, seed, clock, tracer)
        except Exception:  # a failing program is a result to report, not a crash
            result = {"wall_s": None, "problems": [traceback.format_exc()]}
        if tracer is not None:
            result["first_span"] = first_span
            result["totals"] = dict(tracer.totals)
        done.append(result)
    return done


def measure(cli, wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and compute its metrics (end-to-end or per layer)."""
    notes: list[str] = []
    if not trace:
        setup: list[float] = []
        with HostClock(wl.host_kernel) as clock:
            passes = _passes(cli, wl, seed, pass_count(wl, seconds), clock.now, setup=setup)
        good = [p for p in passes if not p["problems"]]
        metrics = {"setup_s": statistics.median(setup)}
        if good:
            # Each piece's median time over the passes, in seconds of a host
            # at reference speed (hostspeed.py).
            typical = [statistics.median(times) for times in zip(*(p["pieces"] for p in good))]
            latency = [t for t, is_record in zip(typical, good[0]["records"]) if is_record]
            metrics.update({
                "items_per_s": wl.items / sum(typical),
                "record_p50_ms": _percentile(latency, 0.50) * 1e3,
                "record_p99_ms": _percentile(latency, 0.99) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
        return {"passes": passes, "metrics": metrics, "notes": notes, "spans": None,
                "setup_s_samples": setup, "host_samples": clock.samples}

    half = max(1, round(seconds / 2 / wl.pass_s))
    plain = _passes(cli, wl, seed, half)
    tracer = Tracer()
    with installed(tracer) as missing:
        traced = _passes(cli, wl, seed, half, tracer=tracer)
    passes = plain + traced
    metrics = {}
    if all(p["wall_s"] is not None for p in passes):
        metrics, notes = layer_metrics(
            tracer,
            [p["first_span"] for p in traced],
            [p["totals"] for p in traced],
            [p["wall_s"] for p in traced],
            [p["wall_s"] for p in plain],
            wl.items,
            wl.items if wl.monte_carlo else 0,
            missing,
        )
    return {"passes": passes, "metrics": metrics, "notes": notes, "spans": tracer}


def time_setup() -> float:
    """Time for a fresh interpreter to import syncmonoid.cli (and with it
    numpy) and build the CLI parser, as every CLI call does, corrected for
    the host's speed by the reference spawn of hostspeed.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for code in (SPAWN_REFERENCE_CODE, SETUP_CODE):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    reference, setup = times
    return setup * SPAWN_REFERENCE_S / reference


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def provenance(wl, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": wl.name,
        "seed": seed,
        "default_seed": wl.default_seed,
        "seconds": seconds,
        "trace": trace,
        "calls": wl.calls(seed),
        "items_per_pass": wl.items,
        "item": wl.unit,
        "host_kernel": [wl.host_kernel, KERNELS[wl.host_kernel][1]],
        "host_sample_period_s": PERIOD,
        "setup_reference": [SPAWN_REFERENCE_CODE, SPAWN_REFERENCE_S],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(args) -> int:
    cli = import_program()
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    trace = bool(args.trace)
    result = measure(cli, wl, seed, args.seconds, trace)
    passes = result["passes"]
    failed = sum(1 for p in passes if p["problems"])
    for p in passes:
        for problem in p["problems"]:
            print(f"{wl.name}: check failed: {problem}", file=sys.stderr)
    for note in result["notes"]:
        print(f"{wl.name}: note: {note}", file=sys.stderr)

    units = metric_units() if trace else END_TO_END_UNITS
    values = result["metrics"]
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if result["spans"] is not None:
        result["spans"].write(OUT_DIR / f"{stem}.spans")
    record = {
        "provenance": provenance(wl, seed, args.seconds, trace),
        "metrics": metrics,
        "attempted": len(passes),
        "failed": failed,
        "fail_frac": failed / len(passes),
        "notes": result["notes"],
        "setup_s_samples": result.get("setup_s_samples"),
        "host_samples": result.get("host_samples"),
        "passes": [{k: v for k, v in p.items() if k not in ("pieces", "records", "output")}
                   for p in passes],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in WORKLOADS.items():
        seed = wl.default_seed if args.seed is None else args.seed
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name} (seed {seed}, {wl.unit}): fail_frac "
              f"{result['failed'] / result['attempted']:.3g} of {result['attempted']} passes")
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:40s} {shown:>14s} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def record_golden() -> int:
    """Write the golden output of one pass of each workload at its default
    seed.  Only for a change that is meant to alter the program's output."""
    cli = import_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        path = _golden_path(wl, wl.default_seed)
        result = run_pass(cli, wl, wl.default_seed, golden=False)
        if result["problems"]:
            print(f"{wl.name}: not recorded: {result['problems']}", file=sys.stderr)
            return 1
        path.write_text(result["output"], encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="run length; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden outputs from the current program")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        return run_all(args) if args.workload == "all" else run_one(args)
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
