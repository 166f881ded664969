"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload and prints a human-readable summary and, as the last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` gives the end-to-end metrics: the run's ops are split over
three fresh worker processes in turn, each with PYTHONHASHSEED pinned.
`--trace 1` gives the per-layer metrics from one traced process.
Per-instance rows and spans go to perfbench/results/.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
HASH_SEED = "0"
PROCESSES = 3  # worker processes per untraced run, one after another
TAIL_BEYOND = 10  # the tail percentile keeps this many ops above it
DEADLINE_S = 170  # the whole command, all worker processes included


def worker(args, extra, deadline):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--bank", str(args.bank),
        "--scale", args.scale,
    ] + extra
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """The highest percentile with TAIL_BEYOND samples above it: the value,
    its percentile and the sample count."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(table, ops, rss_mb):
    times = [op["s"] for op in ops]
    tail_s, tail_pct, n = tail(times)
    # The median and the rate are taken over instances, of each instance's
    # mean op time, so every instance weighs the same even though the run
    # ends inside a pass.  Other tenants of a shared machine make whole
    # stretches of a run up to 1.8x slower, so a short op runs either fast
    # or slow; the median of all ops jumps from one to the other when a run
    # holds about as much of each, while an instance's mean moves in
    # proportion.
    by_inst = {}
    for op in ops:
        by_inst.setdefault(op["inst"], []).append(op["s"])
    mean_s = {i: statistics.fmean(t) for i, t in by_inst.items()}
    out = {op["inst"]: op["out"] for op in ops if op["out"] is not None}
    size_in = sum(table[i]["vertices"] for i in out)
    size_out = sum(out.values())
    metrics = {
        "op_p50_ms": (1000 * statistics.median(mean_s.values()), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "vertices_per_s": (sum(table[i]["vertices"] for i in mean_s) / sum(mean_s.values()), "1/s"),
        "size_ratio": (size_out / size_in if size_in else 1.0, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"tail_percentile": round(tail_pct, 2), "tail_samples_beyond": TAIL_BEYOND, "ops": n}
    return metrics, notes


def write_rows(path, table, ops):
    """One row per instance that ran: its size, median op time, every op
    time, and its answer."""
    by_inst = {}
    for op in ops:
        by_inst.setdefault(op["inst"], []).append(op)
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, group in sorted(by_inst.items()):
            times = [1000 * op["s"] for op in group]
            row = dict(
                table[i],
                ops=len(group),
                op_ms=statistics.median(times),
                each_op_ms=times,
                verdict=group[-1]["verdict"],
                out_vertices=group[-1]["out"],
                errors=sorted({op["error"] for op in group if op["error"]}),
            )
            fh.write(json.dumps(row) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bank", type=int, default=0,
                    help="draw solve-random and kernelize-mixed from another bank (held-out data)")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: every design shrunk, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tcycle" / "__init__.py").is_file():
        print(f"perfbench: no tcycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs = [worker(args, ["--seconds", str(args.seconds)], deadline)]
        else:
            # one op sequence, walked by each process in turn
            runs = []
            ops = 0
            for _ in range(PROCESSES):
                extra = ["--seconds", str(args.seconds / PROCESSES), "--start", str(ops)]
                runs.append(worker(args, extra, deadline))
                ops += len(runs[-1]["ops"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    table = runs[0]["instances"]
    ops = [op for res in runs for op in res["ops"]]
    if args.trace:
        metrics, notes = runs[0]["metrics"], runs[0]["notes"]
    else:
        metrics, notes = end_to_end(table, ops, max(res["rss_mb"] for res in runs))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        metrics["setup_s"] = {
            "value": statistics.median(res["setup_s"] for res in runs), "unit": "s"
        }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_rows(RESULTS / f"{stem}.rows.jsonl", table, ops)
    errors = [(table[op["inst"]]["id"], op["error"]) for op in ops if op["error"]]

    print(f"workload {args.workload}  seed {args.seed}  bank {args.bank}  trace {args.trace}  "
          f"PYTHONHASHSEED={runs[0]['pythonhashseed']}  processes {len(runs)}")
    print(f"instances {len(table)}  ops {len(ops)}  failed {len(errors)}  "
          f"failed_share {len(errors) / len(ops):.4f}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    for ident, err in errors[:20]:
        print(f"  FAILED {ident}: {err}")
    for name, m in sorted(metrics.items()):
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
