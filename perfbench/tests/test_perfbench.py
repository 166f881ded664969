"""Tests of the benchmark itself: seeded inputs, wrapper lifetime, self
times, and a tiny size of every workload passing its checks."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer, installed_wrappers  # noqa: E402

LIB = worker.load_library()


def _digest(workload, seed, scale, hash_seed):
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "h = hashlib.sha256(); "
        "[h.update(i.text.encode()) "
        " for i in workloads.build(sys.argv[2], int(sys.argv[3]), sys.argv[4])]; "
        "print(h.hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed), scale],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_same_seed_gives_identical_texts_and_another_seed_differs():
    for name in workloads.WORKLOADS:
        # the seed only orders the banked families, and a tiny design has
        # too few instances per stratum for two orders to differ reliably
        scale = "full" if name in ("solve-random", "kernelize-mixed") else "tiny"
        first = [i.text for i in workloads.build(name, 7, scale)]
        again = [i.text for i in workloads.build(name, 7, scale)]
        other = [i.text for i in workloads.build(name, 8, scale)]
        assert first == again, name
        assert first != other, name
        here = hashlib.sha256("".join(first).encode()).hexdigest()
        # byte-identical in fresh processes, whatever their hash seed
        assert _digest(name, 7, scale, "1") == _digest(name, 7, scale, "2") == here, name


def test_wrappers_exist_only_while_tracing():
    before = LIB.kernel.solve_t_cycle
    assert installed_wrappers() == []
    tracer = Tracer()
    tracer.install(time.perf_counter)
    try:
        assert tracer.missing == []
        wrapped = {holder for holder, _ in installed_wrappers()}
        assert {"tcycle.dp", "tcycle.kernel", "tcycle.graph.EmbeddedGraph"} <= wrapped
        assert LIB.kernel.solve_t_cycle is not before
        assert LIB.kernel.solve_t_cycle.__wrapped__ is before
    finally:
        tracer.remove()
    assert installed_wrappers() == []
    assert LIB.kernel.solve_t_cycle is before


def test_self_times_are_nonnegative_and_fit_in_the_op():
    instances = workloads.build("kernelize-mixed", 3, "tiny")
    tracer = Tracer()
    tracer.install(time.perf_counter)
    try:
        ops = worker.closed_loop(
            "kernelize-mixed", instances, LIB, workloads, count=3, tracer=tracer
        )
    finally:
        tracer.remove()
    assert all(op["error"] is None for op in ops)
    assert tracer.dropped == 0 and None not in tracer.spans
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        assert end >= start
        if parent is not None:
            child[parent] += end - start
    per_op = [0.0] * len(ops)
    for (name, start, end, parent, op), inner in zip(tracer.spans, child):
        own = end - start - inner
        assert own >= -1e-9, name
        per_op[op] += own
    for own, op in zip(per_op, ops):
        assert own <= op["s"]
    assert sum(tracer.self_s.values()) <= sum(op["s"] for op in ops)
    assert set(tracer.calls) == set(TARGETS)
    assert tracer.calls["kernel.kernelize"] == 3


def test_tiny_size_of_every_workload_passes_its_checks():
    for name in workloads.WORKLOADS:
        instances = workloads.build(name, 5, "tiny")
        ops = worker.closed_loop(name, instances, LIB, workloads, count=len(instances))
        assert [op["error"] for op in ops] == [None] * len(ops), name
        assert {op["inst"] for op in ops} == set(range(len(instances)))


def test_run_prints_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "reduce-deep",
             "--seed", "1", "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_tail_keeps_ten_samples_above_it():
    assert run.tail(range(1, 101)) == (90, 90.0, 100)
    assert run.tail(range(200, 0, -1)) == (190, 95.0, 200)


def test_refuses_to_run_without_the_library(tmp_path):
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-thin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
