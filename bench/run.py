"""Seeded end-to-end and per-layer benchmark of the prefnet CLI.

Run from the repository root:

    python3 bench/run.py --workload entail-rolefree --seed 1 --seconds 12 --trace 0
    python3 bench/run.py                     # every workload, untraced
    python3 bench/run.py --trace 1           # every workload, per-layer

One caller in one process and one thread drives ``prefnet.cli.main(argv)``
in a closed loop: each op starts when the previous one has returned.
Every op gets freshly generated fixture files (``gen.py``), so no cache
that lives across calls can serve it, and its output is compared against
an independent oracle (``oracle.py``) outside the timed region.  A run
measures until its ops have taken ``--seconds`` in total, it has made
at least 100 ops and it has finished a whole cycle of the workload's
schedule.

Times are scaled to a reference machine speed.  A shared virtual machine
can change speed by a third for seconds at a time (seen on a 2-vCPU x86_64
VM with busy neighbours), which moves raw timings of identical runs as
much.  So a fixed pure-Python calibration loop is timed right before and
right after each timed op (and each start-up spawn), and the op's time is
multiplied by ``REFERENCE_S`` over the loop's mean time.  No change to
prefnet can move the loop, so a change moves scaled times in the same
proportion as raw ones.  The report prints the raw figures too.

With ``--trace 0`` the run reports the end-to-end metrics; interpreter
start-up stays out of per-op latency and is measured once per run as
``setup_s``, the median time from launching a fresh interpreter until
``import prefnet.cli`` returns.  ``peak_rss_mb`` is the run's own
``ru_maxrss``, generators and oracles included.  An op fails on a nonzero
exit, an exception or an output the oracle rejects; the report line gives
the error rate and the JSON its ``failed`` and ``attempted`` counts.

With ``--trace 1`` odd-numbered ops run with every public prefnet function
wrapped (``spans.py``) and even ones without, which gives the per-layer
self times and counters plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report, including the inputs' properties, the Python
version and the CPU count.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 15
MIN_OPS = 100  # so that ten samples lie beyond p90
REFERENCE_S = 0.25e-3  # one calibration pass at reference speed
WALL_LIMIT_S = 120.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_pass() -> float:
    """Seconds for a fixed mix of the work prefnet does: small dicts and
    tuples built and looked up, float arithmetic, builtin calls."""
    start = time.perf_counter()
    rows = []
    total = 0.0
    for i in range(300):
        row = {"a": i * 0.5, "b": float(i % 7), "key": (i, i % 3)}
        rows.append(row)
        total = max(total, row["a"] - row["b"]) if i & 1 else min(total, row["b"])
    for row in rows:
        total += row["key"][1] * row["a"]
    return time.perf_counter() - start


def machine_pace() -> float:
    """The current calibration time; the fastest of three damps jitter."""
    return min(calibration_pass() for _ in range(3))


def measure_setup() -> tuple[float, float]:
    """Median seconds, scaled and raw, from spawning an interpreter to
    ``import prefnet.cli`` returning.  The child reports ``perf_counter``
    after the import; on Linux that clock is CLOCK_MONOTONIC, shared by
    parent and child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, prefnet.cli; print(repr(time.perf_counter()))"
    scaled, raw = [], []
    for k in range(SETUP_SPAWNS + 1):
        before = machine_pace()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed = float(done.stdout) - start
        pace = (before + machine_pace()) / 2
        if k:  # the first spawn also writes the bytecode cache
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / pace)
    return statistics.median(scaled), statistics.median(raw)


def summarize_props(ops: list[tuple[str, str, dict]]) -> dict:
    """Shares of tiers and kinds, and each input property as mean/min/max
    (numbers), share true (flags) or counts (labels)."""
    out: dict = {
        "tiers": dict(Counter(t for t, _, _ in ops)),
        "kinds": dict(Counter(k for _, k, _ in ops)),
    }
    by_key: dict[str, list] = defaultdict(list)
    for _, _, props in ops:
        for key, value in props.items():
            by_key[key].append(value)
    for key, values in by_key.items():
        if isinstance(values[0], bool):
            out[key] = {"share_true": round(sum(values) / len(values), 4)}
        elif isinstance(values[0], (int, float)):
            out[key] = {"mean": round(statistics.fmean(values), 4),
                        "min": min(values), "max": max(values)}
        else:
            out[key] = dict(Counter(values))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen
    from prefnet import cli

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    latencies: dict[bool, list[float]] = {False: [], True: []}
    raw: list[float] = []  # untraced ops, unscaled
    failures: list[str] = []
    failed_kinds: Counter = Counter()
    inputs: list[tuple[str, str, dict]] = []
    cycle = gen.period(workload)
    wall_start = time.monotonic()
    busy = 0.0
    index = 0
    try:
        while not (busy >= seconds and index >= MIN_OPS and index % cycle == 0):
            if time.monotonic() - wall_start > WALL_LIMIT_S:
                break
            op = gen.make_op(workload, seed, index, workdir)
            for path, content in op.files.items():
                path.write_text(content, encoding="utf-8")
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install(index)
            gc.collect()
            before = machine_pace()
            out, err = io.StringIO(), io.StringIO()
            rc: int | None = None
            crash = ""
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = cli.main(op.argv)
                except SystemExit as e:
                    rc = e.code if isinstance(e.code, int) else 2
                except Exception as e:  # an op that raises is a failed op
                    crash = repr(e)
                elapsed = time.perf_counter() - start
            scale = REFERENCE_S / ((before + machine_pace()) / 2)
            if traced:
                tracer.uninstall(scale)
            else:
                raw.append(elapsed)
            busy += elapsed
            latencies[traced].append(elapsed * scale)
            inputs.append((op.tier, op.kind, op.props))
            try:
                why = crash or op.check(rc, out.getvalue())
            except Exception as e:  # output the check cannot read is wrong output
                why = f"unreadable output: {e!r}"
            if why:
                failed_kinds[op.kind] += 1
                failures.append(f"op {index} {op.kind}/{op.tier}: {why};"
                                f" stderr {err.getvalue().strip()[:200]!r}")
            for path in op.files:
                path.unlink()
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = latencies[False]
    result = {
        "workload": workload,
        "attempted": index,
        "failed": len(failures),
        "failures": failures[:5],
        "failed_by_kind": dict(failed_kinds),
        "inputs": summarize_props(inputs),
        "samples": len(plain),
        "raw": {
            "ops_per_s": round(len(raw) / sum(raw), 4),
            "latency_p50_ms": round(statistics.median(raw) * 1e3, 4),
            "latency_p90_ms": round(
                statistics.quantiles(raw, n=10, method="inclusive")[8] * 1e3, 4),
            "scaled_over_raw": round(sum(plain) / sum(raw), 4),
        },
    }
    if tracer is None:
        ordered = sorted(plain)
        result["metrics"] = {
            "ops_per_s": len(plain) / sum(plain),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_p90_ms": statistics.quantiles(ordered, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = tracer.report()
        untraced = len(plain) / sum(plain)
        traced = len(latencies[True]) / sum(latencies[True])
        metrics["trace.untraced_ops_per_s"] = untraced
        metrics["trace.traced_ops_per_s"] = traced
        metrics["trace.overhead_pct"] = (untraced - traced) / untraced * 100
        result["metrics"] = metrics
        result["samples"] = len(latencies[True])
    return result


def print_report(result: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']}: {result['attempted']} ops attempted,"
          f" {result['failed']} failed, error_rate"
          f" {result['failed'] / result['attempted']:.4f},"
          f" {result['samples']} timed samples")
    for name, value in result["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    print("  unscaled " + json.dumps(result["raw"]))
    if result["failed"]:
        print("  failed by kind " + json.dumps(result["failed_by_kind"]))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print("  inputs " + json.dumps(result["inputs"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="entail-rolefree, alc-check, mlp-verify or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prefnet" / "cli.py").is_file():
        print(f"no prefnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import gen
    from spans import PER_LAYER

    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in gen.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    units = {**END_TO_END, **{k: unit for k, (unit, _) in PER_LAYER.items()}}
    setup, setup_raw = (None, None) if args.trace else measure_setup()
    print(f"python {platform.python_version()} on {platform.machine()},"
          f" nproc {len(os.sched_getaffinity(0))}, seed {args.seed},"
          f" {args.seconds:g} s per workload, trace {args.trace}")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if setup is not None:
            result["metrics"]["setup_s"] = setup
            result["raw"]["setup_s"] = round(setup_raw, 6)
        print_report(result, units)
        results.append(result)

    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = {
            k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()
        }
    else:
        summary["metrics"] = {
            f"{r['workload']}/{k}": {"value": v, "unit": units[k]}
            for r in results for k, v in r["metrics"].items()
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
