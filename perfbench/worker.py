"""One slice of a workload's run in one fresh process: set up, run the
closed loop from a given op on, check every answer, and print the timed ops
(and, when traced, the per-layer figures) as one JSON line.

Started by run.py with PYTHONHASHSEED pinned; run it directly only to debug:

    PYTHONHASHSEED=0 python3 perfbench/worker.py --workload long-thin --seed 1 --seconds 5
"""

import time

START = time.perf_counter()  # setup_s counts from here: imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
OP_LIMIT_S = 60  # an op still running after this long counts as failed


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_LIMIT_S} s")


def load_library():
    """Import tcycle from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from tcycle import cycles, decomposition, dp, fileio, graph, kernel, oracle, treewidth

    if Path(fileio.__file__).resolve().parent != src / "tcycle":
        raise ImportError(f"tcycle was imported from {fileio.__file__}, not {src}")
    return types.SimpleNamespace(
        cycles=cycles,
        decomposition=decomposition,
        dp=dp,
        fileio=fileio,
        graph=graph,
        kernel=kernel,
        oracle=oracle,
        treewidth=treewidth,
    )


def warm_up(workload, lib, workloads):
    """Fill process-level caches before timing: the kernel's lru-cached
    crossing-pattern shapes, and one untimed pass over the tiny design."""
    shapes = getattr(lib.kernel, "_pattern_shapes", None)
    if shapes is not None:
        for b in range(getattr(lib.kernel, "BOUNDARY_LIMIT", 6) + 1):
            shapes(b)
    for inst in workloads.build(workload, 0, scale="tiny"):
        workloads.run_op(workload, inst, lib)


def closed_loop(
    workload, instances, lib, workloads, seconds=None, count=None, tracer=None, start=0,
    whole_pass=True,
):
    """One client: the next op starts when the previous one has been timed
    and checked.  Op i runs instance i mod len(instances); the loop begins
    at op `start`, so that a run split over several processes walks one
    sequence.  Stops after `count` ops, or once `seconds` of wall time have
    passed: at the end of the pass then under way if `whole_pass`, so every
    instance weighs the same in the figures, else right away."""
    ops = []
    gc.collect()
    gc.freeze()  # set-up objects stay out of the per-op collections
    previous = signal.signal(signal.SIGALRM, _alarm)
    begin = time.perf_counter()
    try:
        while count is None or len(ops) < count:
            i = start + len(ops)
            inst = instances[i % len(instances)]
            if tracer is not None:
                tracer.op_id = len(ops)
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            t0 = time.perf_counter()
            try:
                res = workloads.run_op(workload, inst, lib)
                err = None
            except Exception as exc:  # counted as a failed op; the run goes on
                res, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.op_id = None
            if err is None:
                try:
                    err = workloads.check(workload, inst, res, lib)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            ops.append(
                {
                    "inst": i % len(instances),
                    "s": t1 - t0,
                    "verdict": None if res is None else res.verdict,
                    "out": None if res is None else res.out_vertices,
                    "error": err,
                }
            )
            res = None
            gc.collect()  # outside the timed region: each op starts from the same heap state
            if (
                seconds is not None
                and (not whole_pass or (i + 1) % len(instances) == 0)
                and time.perf_counter() - begin >= seconds
            ):
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return ops


def per_layer(tracer, traced_ops, plain_ops):
    k = len(traced_ops)
    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = (tracer.calls[name] / k, "calls/op")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / k, "s/op")
    counts = tracer.counts
    metrics["treewidth.max_width"] = (max(counts["treewidth.max_width"], default=0), "count")
    metrics["decomposition.removed"] = (sum(counts["decomposition.removed"]) / k, "count/op")
    rep = sum(counts["kernel.replacements"])
    kept = sum(counts["kernel.kept_verbatim"])
    metrics["kernel.replacements"] = (rep / k, "count/op")
    metrics["kernel.kept_verbatim"] = (kept / k, "count/op")
    metrics["kernel.replacement_yield"] = (rep / (rep + kept) if rep + kept else 0.0, "ratio")
    traced = sum(op["s"] for op in traced_ops)
    plain = sum(op["s"] for op in plain_ops)
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    shares = {}
    for name, s in tracer.self_s.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + s / traced
    notes = {
        "traced_ops": k,
        "self_s_total": sum(tracer.self_s.values()),
        "op_wall_total": traced,
        "module_self_share": {
            m: round(v, 4) for m, v in sorted(shares.items(), key=lambda x: -x[1])
        },
        "missing_targets": tracer.missing,
        "spans_dropped": tracer.dropped,
    }
    return metrics, notes


def write_spans(path, tracer):
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            if span is not None:
                name, start, end, parent, op = span
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--start", type=int, default=0, help="the op to begin at")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--bank", type=int, default=0)
    args = ap.parse_args(argv)

    lib = load_library()
    import workloads  # the benchmark's own modules, networkx and scipy

    instances = workloads.build(args.workload, args.seed, args.scale, args.bank)
    warm_up(args.workload, lib, workloads)
    setup_s = time.perf_counter() - START
    out = {
        "setup_s": setup_s,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "instances": [
            {"id": i.id, "vertices": i.vertices, "terminals": i.terminals} for i in instances
        ],
    }
    if args.trace:
        from tracing import Tracer, installed_wrappers

        plain = closed_loop(args.workload, instances, lib, workloads, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install(time.perf_counter)
        try:
            traced = closed_loop(
                args.workload, instances, lib, workloads, count=len(plain), tracer=tracer
            )
        finally:
            tracer.remove()
        if installed_wrappers():
            raise RuntimeError(f"wrappers left behind: {installed_wrappers()}")
        metrics, notes = per_layer(tracer, traced, plain)
        RESULTS.mkdir(exist_ok=True)
        write_spans(RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.jsonl", tracer)
        ops = plain + traced
        out.update(
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes=notes
        )
    else:
        ops = closed_loop(
            args.workload, instances, lib, workloads, seconds=args.seconds, start=args.start,
            whole_pass=False,
        )
    out.update(ops=ops, rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
