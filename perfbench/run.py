"""Code-verification benchmark for homprod.

Run from the repository root:

    python3 perfbench/run.py --workload css49-exact --seed 1 --seconds 28 --trace 0

One run verifies codes of one workload for `--seconds` seconds in a single
process, checks every result with the independent checks in `workloads.py`,
and prints each metric with its unit, a stamp line describing the run, and
as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The metric names and units come from
`BENCHMARK.json`: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run.  Results and spans are also written
to `perfbench/out/`.

The closed loop verifies one code at a time on one thread.  After each code
a fixed reference kernel times the machine, and the time metrics are
calibrated by it (see `end_to_end`).  Set-up (import of numpy and homprod
plus building the workload's inputs) is timed once in this process and again
in fresh interpreters, and `setup_s` is the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("css49-exact", "gf4-exact", "mixed35-bound", "random36-small")
CHILD_SETUPS = 4
TAIL_BEYOND = 10
REFERENCE_S = 0.005


def require_source() -> None:
    """Put the checkout's own `src/` first on the path, or stop if it is missing."""
    if not (SRC / "homprod" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'homprod'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def setup(name: str, seed: int):
    """Import homprod and build the workload's inputs; return (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and homprod

    w = workloads.WORKLOADS[name]()
    w.build(seed)
    return w, time.perf_counter() - t0


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


def verify_and_check(w, i: int, tracer) -> tuple[float, list[str], dict]:
    """Verify code i (timed), then check it (untimed): (seconds, errors, counts)."""
    tracer.code = i
    with tracer.span("bench.code"):
        t0 = time.perf_counter()
        try:
            rec = w.verify(i, tracer)
        except Exception as e:  # a code that raises is a failed code, not a failed run
            return time.perf_counter() - t0, [f"verify raised {type(e).__name__}: {e}"], {}
        dt = time.perf_counter() - t0
        with tracer.span("bench.check"):
            try:
                errors = w.check(rec)
            except Exception as e:
                errors = [f"check raised {type(e).__name__}: {e}"]
        return dt, errors, w.counts(rec)


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    k = (len(sorted_vals) - 1) * p / 100
    f = int(k)
    c = min(f + 1, len(sorted_vals) - 1)
    return sorted_vals[f] + (sorted_vals[c] - sorted_vals[f]) * (k - f)


def tail(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile (at least the median) with TAIL_BEYOND samples above it.

    Returns (percentile, value, samples above).  With fewer than
    2 * TAIL_BEYOND samples no percentile above the median qualifies, and the
    median is returned with the count above it.
    """
    s = sorted(samples)
    for p in range(99, 50, -1):
        v = percentile(s, p)
        beyond = sum(x > v for x in s)
        if beyond >= TAIL_BEYOND:
            return p, v, beyond
    v = percentile(s, 50)
    return 50, v, sum(x > v for x in s)


def reference_kernel():
    """A fixed probe of machine speed that runs no homprod code; returns a timer.

    The shared machine this benchmark was built on changes speed by up to
    1.7x over minutes, and every part of a run (numpy passes over a table
    the size of L2, Python loops, imports) slows together.  The probe mixes
    the same two kinds of work: XOR and popcount passes over a 2 MiB table,
    and a short interpreter loop.
    """
    import numpy as np

    table = np.random.default_rng(0).integers(0, 1 << 63, size=1 << 18, dtype=np.uint64)

    def probe() -> float:
        t0 = time.perf_counter()
        for k in range(1, 7):
            int(np.bitwise_count(table ^ np.uint64(k)).min())
        acc, slots = 0, {}
        for i in range(15000):
            acc += (i * 7) & 15
            slots[i & 63] = acc
        return time.perf_counter() - t0

    return probe


def end_to_end(w, seconds: float, setup_s: float):
    """Verify codes 0, 1, ... for `seconds` (at least one), probing machine speed after each.

    Time metrics are calibrated: each code's time is scaled by REFERENCE_S
    over the median of the (up to four) probes nearest to it, two before
    and two after, and set-up by REFERENCE_S over the run's median probe.
    So they read as seconds on a machine where the probe takes REFERENCE_S.
    The wall-clock values are reported next to them as `wall.*`.
    """
    probe = reference_kernel()
    tracer = Tracer(False)
    deadline = time.perf_counter() + seconds
    runs, probes = [], [probe()]
    while not runs or time.perf_counter() < deadline:
        runs.append(verify_and_check(w, len(runs), tracer))
        probes.append(probe())
    raw = [r[0] for r in runs]
    local = [statistics.median(probes[max(0, i - 1) : i + 3]) for i in range(len(raw))]
    samples = [t * REFERENCE_S / p for t, p in zip(raw, local)]
    pct, tail_v, beyond = tail(samples)
    metrics = {
        "verify_s.p50": statistics.median(samples),
        "verify_s.tail": tail_v,
        "codes_per_s": len(samples) / sum(samples),
        "setup_s": setup_s * REFERENCE_S / statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": sum(1 for r in runs if r[1]) / len(runs),
        "wall.verify_s.p50": statistics.median(raw),
        "wall.verify_s.tail": tail(raw)[1],
        "wall.codes_per_s": len(raw) / sum(raw),
        "wall.setup_s": setup_s,
        "reference_s": statistics.median(probes),
    }
    stamp = {"samples": len(samples), "tail_percentile": pct, "tail_samples_beyond": beyond}
    return metrics, runs, stamp, {"verify_s": raw, "probe_s": probes}


def per_layer(w, seconds: float, span_names: list[str], trace_path: Path):
    """Each code verified untraced and traced; per-span self time, calls and share.

    One untimed warm-up code comes first.  Then each code runs twice, once
    without and once with tracing, alternating which goes first so that
    drift and cache warmth cancel in the overhead.  The loop stops after
    `w.trace_codes` codes or `seconds`, whichever comes first, so the counts
    repeat exactly whenever the run completes all its codes.
    """
    from workloads import COUNTERS

    warm = verify_and_check(w, 0, Tracer(False))
    plain, tracer = Tracer(False), Tracer(True)
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while len(traced) < w.trace_codes and (not traced or time.perf_counter() < deadline):
        i = len(traced)
        for t in (plain, tracer) if i % 2 == 0 else (tracer, plain):
            (traced if t is tracer else untraced).append(verify_and_check(w, i, t))
    tracer.write(trace_path)

    wall = tracer.root_time()
    table = tracer.self_times()
    metrics: dict[str, float] = {}
    for span in span_names:
        self_s, calls = table.get(span, (0.0, 0))
        metrics[f"{span}.self_s"] = self_s
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.share"] = self_s / wall
    for key in COUNTERS:
        metrics[key] = sum(r[2].get(key, 0) for r in traced)
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.accounted_share"] = sum(table.get(s, (0.0, 0))[0] for s in span_names) / wall
    metrics["bench.trace_overhead"] = sum(r[0] for r in traced) / sum(r[0] for r in untraced) - 1
    runs = [warm] + untraced + traced
    stamp = {"samples": len(traced), "spans": len(tracer.spans)}
    return metrics, runs, stamp, {"verify_s": [r[0] for r in untraced], "traced_verify_s": [r[0] for r in traced]}


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    require_source()
    w, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return {}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        span_names = sorted({m["name"].rsplit(".", 1)[0] for m in wanted if m["name"].endswith(".self_s")})
        metrics, runs, stamp, series = per_layer(w, args.seconds, span_names, stem.with_suffix(".spans.jsonl"))
    else:
        setups = [setup_s] + [child_setup_seconds(args.workload, args.seed) for _ in range(CHILD_SETUPS)]
        metrics, runs, stamp, series = end_to_end(w, args.seconds, statistics.median(setups))
        stamp["setup_samples"] = setups

    import numpy
    import workloads

    failures = [(i, errs) for i, (_, errs, _) in enumerate(runs) if errs]
    stamp.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "threads": workloads.THREADS,
            "commit": commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "attempted": len(runs),
            "failed": len(failures),
            "first_failures": failures[:3],
        }
    )
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"stamp": stamp, "metrics": metrics, "result": result, **series}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({f"wall.{m['name']}": m["unit"] for m in spec["end_to_end"]})
    units.update(fail_frac="fraction", reference_s="s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
