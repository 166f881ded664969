import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tcycle
from tcycle import cli, fileio, generate
from tcycle.cli import main
from tcycle.errors import ParseError
from tcycle.treewidth import _bfs_path, build, from_pace_lines, pace_lines


def write_instance(path, graph):
    fileio.dump(graph, str(path))
    return str(path)


def test_solve_yes_and_no(tmp_path, capsys):
    tri = write_instance(tmp_path / "tri.txt", generate.ring(3, terminals={1, 2, 3}))
    assert main(["solve", tri]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES" and out[1].split()

    path = write_instance(tmp_path / "p.txt", generate.path_graph(4, terminals={1, 4}))
    assert main(["solve", path]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_with_td_file(tmp_path, capsys):
    g = generate.grid(3, 3, terminals={1, 9})
    inst = write_instance(tmp_path / "g.txt", g)
    td_file = tmp_path / "td.txt"
    td_file.write_text("\n".join(pace_lines(build(g), len(g.vertices))) + "\n")
    assert main(["solve", inst, "--td", str(td_file)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_bare_rotation_line_is_exit_2(tmp_path, capsys):
    path = tmp_path / "rot.txt"
    path.write_text("v 1\nrot\n")
    assert main(["solve", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_out_of_memory_is_exit_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_t_cycle", exhausted)
    inst = write_instance(tmp_path / "g.txt", generate.grid(3, 3, terminals={1, 9}))
    assert main(["solve", inst]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


def test_bare_bag_line_in_td_file_is_exit_2(tmp_path, capsys):
    inst = write_instance(tmp_path / "g.txt", generate.ring(3, terminals={1, 2}))
    td_file = tmp_path / "td.txt"
    td_file.write_text("s td 1 3 3\nb\n")
    assert main(["solve", inst, "--td", str(td_file)]) == 2
    assert "bag without a node" in capsys.readouterr().err
    with pytest.raises(ParseError):
        from_pace_lines(["s td 1 3 3", "b"])


NOT_UTF8 = b"v 1\n# \xff\xfe\n"


@pytest.mark.parametrize(
    "args",
    [["solve", "{bad}"], ["reduce", "{bad}", "{out}"], ["kernelize", "{bad}", "{out}"],
     ["td", "{bad}"], ["check-config", "{bad}"], ["solve", "{good}", "--td", "{bad}"]],
    ids=["solve", "reduce", "kernelize", "td", "check-config", "td-file"],
)
def test_input_that_is_not_utf8_is_exit_2(tmp_path, capsys, args):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    names = {
        "bad": str(bad),
        "good": write_instance(tmp_path / "g.txt", generate.ring(3, terminals={1, 2})),
        "out": str(tmp_path / "out.txt"),
    }
    assert main([a.format(**names) for a in args]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.txt").exists()


def test_undeclared_outer_vertex_is_exit_2(tmp_path, capsys):
    path = tmp_path / "outer.txt"
    path.write_text("v 1\nv 2\ne 1 1 2\nrot 1 1\nrot 2 1\nouter 99\n")
    assert main(["solve", str(path)]) == 2
    assert main(["reduce", str(path), str(tmp_path / "out.txt")]) == 2
    assert not (tmp_path / "out.txt").exists()
    assert "undeclared vertex 99" in capsys.readouterr().err


def test_reduce_writes_graph_and_report(tmp_path, capsys):
    depth = 6
    g = generate.nested_rings(depth)
    outer = generate.ring_ids(depth)[-1]
    g = g.with_terminals({outer[0], outer[1]})
    inst = write_instance(tmp_path / "in.txt", g)
    out = tmp_path / "out.txt"
    rep = tmp_path / "rep.json"
    assert main(["reduce", inst, str(out), "--g", "2", "--report", str(rep)]) == 0
    reduced = fileio.load(str(out))
    assert len(reduced.vertices) < len(g.vertices)
    payload = json.loads(rep.read_text())
    assert payload["input_size"] == len(g.vertices)
    assert payload["output_size"] == len(reduced.vertices)
    assert {r["vertex"] for r in payload["removed"]} == g.vertices - reduced.vertices


def test_kernelize_then_solve_matches(tmp_path, capsys):
    for seed in (3, 11, 27):
        g = generate.random_planar(12, seed=seed, k=3)
        inst = write_instance(tmp_path / f"in{seed}.txt", g)
        out = tmp_path / f"out{seed}.txt"
        rep = tmp_path / f"rep{seed}.json"
        assert main(["kernelize", inst, str(out), "--report", str(rep)]) == 0
        direct = main(["solve", inst])
        kerneled = main(["solve", str(out)])
        assert direct == kerneled
        payload = json.loads(rep.read_text())
        assert payload["final_size"] <= payload["input_size"]
        for cert in payload["replacements"]:
            assert cert["verified"] and cert["new_size"] < cert["old_size"]
            assert cert["branch_sets"]
        fates = [f["fate"] for f in payload["fates"]]
        kept = [f for f in fates if f != "contraction"]
        assert len(fates) - len(kept) == len(payload["replacements"])
        assert len(kept) == payload["kept_verbatim"]
    capsys.readouterr()


def test_kernelize_budget_zero_is_exit_2(tmp_path, capsys):
    inst = write_instance(tmp_path / "in.txt", generate.grid(3, 3, terminals={1, 9}))
    out = tmp_path / "out.txt"
    assert main(["kernelize", inst, str(out), "--budget", "0"]) == 2
    assert "isolation depth must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_isolation_negative_level_is_exit_2(tmp_path, capsys):
    inst = write_instance(tmp_path / "in.txt", generate.ring(4, terminals={1}))
    assert main(["oracle", "isolation", inst, "3", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_td_output_round_trips(tmp_path, capsys):
    g = generate.grid(3, 4)
    inst = write_instance(tmp_path / "g.txt", g)
    assert main(["td", inst]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("s td ")
    td = from_pace_lines(lines)
    td.validate(g)


def test_solve_along_the_printed_path_matches_solve(tmp_path, capsys):
    # on a 3x40 ladder td prints the BFS path, which ties min-fill's width
    g = generate.grid_with_terminals(3, 40, 4, seed=2)
    inst = write_instance(tmp_path / "g.txt", g)
    assert main(["td", inst]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines() == pace_lines(_bfs_path(g), len(g.vertices))
    td_file = tmp_path / "g.td"
    td_file.write_text(printed)
    plain = main(["solve", inst]), capsys.readouterr()
    given = main(["solve", inst, "--td", str(td_file)]), capsys.readouterr()
    assert plain == given
    assert plain[0] == 0 and plain[1].err == ""


def test_from_pace_lines_errors():
    with pytest.raises(ParseError):
        from_pace_lines(["b 1 1 2"])
    with pytest.raises(ParseError):
        from_pace_lines(["s td 2 2 3", "b 1 1 2"])


def test_oracle_subcommands(tmp_path, capsys):
    tri = write_instance(tmp_path / "tri.txt", generate.ring(3, terminals={1, 2, 3}))
    assert main(["oracle", "t-cycle", tri]) == 0
    path = write_instance(tmp_path / "p.txt", generate.path_graph(4, terminals={1, 4}))
    assert main(["oracle", "t-cycle", path]) == 1
    assert main(["oracle", "disjoint-paths", path, "1", "4"]) == 0
    assert main(["oracle", "disjoint-paths", path, "1", "4", "2", "3"]) == 1
    capsys.readouterr()


def test_oracle_odd_endpoint_count_is_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path / "p.txt", generate.path_graph(4, terminals={1, 4}))
    assert main(["oracle", "disjoint-paths", path, "1", "2", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _cli_env():
    src = str(Path(tcycle.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize(
    "args",
    [
        ["random-planar", "--n", "0"],
        ["random-planar", "--n", "1"],
        ["random-planar", "--n", "2"],
        ["random-planar", "--n", "-4"],
        ["random-planar", "--n", "5", "--k", "9"],
        ["random-planar", "--n", "5", "--k", "-1"],
        ["grid-with-terminals", "--rows", "2", "--cols", "2", "--k", "5"],
        ["grid-with-terminals", "--rows", "0", "--cols", "3", "--k", "1"],
        ["grid-with-terminals", "--rows", "3", "--cols", "3", "--k", "0"],
        ["nested-rings", "--depth", "0"],
        ["nested-rings", "--ring-size", "0"],
        ["concentric-gadget", "--depth", "-1"],
        ["concentric-gadget", "--ring-size", "0"],
    ],
)
def test_gen_impossible_sizes_are_exit_2(args):
    # these used to loop forever, end in a traceback or write an empty instance
    proc = subprocess.run(
        [sys.executable, "-m", "tcycle.cli", "gen", *args],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_gen_deterministic_and_parseable(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "random-planar", "--n", "14", "--k", "3", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    g = fileio.load(str(a))
    assert len(g.vertices) == 14 and len(g.terminals) == 3


def test_gen_seed_from_environment(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    monkeypatch.setenv("TCYCLE_SEED", "5")
    assert main(["gen", "random-planar", "--n", "10", "-o", str(a)]) == 0
    assert main(["gen", "random-planar", "--n", "10", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_seed_in_environment_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TCYCLE_SEED", "abc")
    out = tmp_path / "a.txt"
    assert main(["gen", "random-planar", "--n", "10", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: TCYCLE_SEED")
    assert not out.exists()
    # an explicit --seed does not read the environment
    assert main(["gen", "random-planar", "--n", "10", "--seed", "5", "-o", str(out)]) == 0


def test_roundtrip_on_generated_corpus():
    corpus = [
        generate.ring(5, terminals={1, 3}),
        generate.grid(3, 4, terminals={1, 12}),
        generate.nested_rings(3),
        generate.random_planar(10, seed=2, k=2),
        generate.digon_tower(3)[0],
    ]
    for g in corpus:
        h = fileio.parse(fileio.serialize(g))
        assert fileio.serialize(h) == fileio.serialize(g)
        assert (h.vertices, h.edges, h.terminals) == (g.vertices, g.edges, g.terminals)
        assert h.rotation == g.rotation


def test_parse_config(tmp_path):
    g, rings = generate.digon_tower(2)
    cycles = generate.ring_cycles(g, rings)
    text = fileio.serialize(g)
    for c in cycles[:2]:
        text += "cycle " + " ".join(map(str, sorted(c))) + "\n"
    loop = [e for e, (u, v) in g.edges.items() if u in (5, 6, 7) and v in (5, 6, 7)]
    text += "loop " + " ".join(map(str, sorted(loop[:3]))) + "\n"
    graph, cys, lp = fileio.parse_config(text)
    assert len(cys) == 2 and len(lp) == 3
    with pytest.raises(ParseError):
        fileio.parse_config(fileio.serialize(g))


def test_check_config_reports(tmp_path, capsys):
    g = generate.ring_gadget(3)
    rings = generate.ring_ids(4)
    cycles = generate.ring_cycles(g, rings[:3])
    t = max(g.vertices)
    outer = rings[3]
    pend = [e for e, (u, v) in g.edges.items() if t in (u, v)]
    arc = [e for e, (u, v) in g.edges.items() if u in outer and v in outer]
    drop = [e for e in arc if set(g.edges[e]) == {outer[0], outer[1]}]
    loop = (set(arc) - set(drop)) | set(pend)
    text = fileio.serialize(g)
    for c in cycles:
        text += "cycle " + " ".join(map(str, sorted(c))) + "\n"
    text += "loop " + " ".join(map(str, sorted(loop))) + "\n"
    conf = tmp_path / "conf.txt"
    conf.write_text(text)
    assert main(["check-config", str(conf)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["depth"] == 2 and payload["convex"]
    assert len(payload["levels"]) == 3


def test_closed_stdout_is_not_an_error(tmp_path):
    # as `tcycle solve ladder.txt | head -c 0`: the reader is gone before
    # the witness is written
    path = write_instance(
        tmp_path / "ladder.txt", generate.grid(2, 2000, terminals={1, 2000, 2001, 4000})
    )
    no = write_instance(tmp_path / "path.txt", generate.path_graph(4, terminals={1, 4}))
    env = _cli_env()
    for argv, code in [(["solve", path], 0), (["solve", no], 1), (["td", no], 0)]:
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tcycle.cli", *argv],
                stdout=w,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(w)
        assert proc.stderr == b""
        assert proc.returncode == code


# records the parser knows, with small ids so that they collide; plus junk
_ids = st.integers(min_value=0, max_value=5).map(str)
_record = st.one_of(
    st.tuples(st.just("v"), _ids),
    st.tuples(st.just("t"), _ids),
    st.tuples(st.just("e"), _ids, _ids, _ids),
    st.tuples(st.just("rot"), st.lists(_ids, max_size=5).map(" ".join)),
    st.tuples(st.just("outer"), st.lists(_ids, max_size=4).map(" ".join)),
    st.tuples(st.sampled_from(["#", "q", "v", "e", "rot"]), st.text("ab1 -x", max_size=6)),
).map(" ".join)
_seeds = [
    fileio.serialize(g).splitlines()
    for g in (
        generate.ring(3, terminals={1, 2}),
        generate.path_graph(3, terminals={1, 3}),
        generate.grid(2, 2, terminals={1, 4}),
        generate.digon_tower(1)[0],
    )
]


@st.composite
def instance_texts(draw):
    lines = list(draw(st.sampled_from(_seeds)))
    for _ in range(draw(st.integers(0, 3))):
        if lines and draw(st.booleans()):
            del lines[draw(st.integers(0, len(lines) - 1))]
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(_record))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance_texts())
def test_solve_fuzzed_records_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["solve", path]) in (0, 1, 2)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance_texts())
def test_td_and_reduce_fuzzed_records_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["td", path]) in (0, 1, 2)
        assert main(["reduce", path, os.path.join(tmp, "out.txt")]) in (0, 1, 2)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance_texts())
def test_kernelize_fuzzed_records_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, report = os.path.join(tmp, "out.txt"), os.path.join(tmp, "report.json")
        assert main(["kernelize", path, out, "--report", report]) in (0, 1, 2)


def _config_seed_texts():
    g, rings = generate.digon_tower(2)
    text = fileio.serialize(g)
    for c in generate.ring_cycles(g, rings)[:2]:
        text += "cycle " + " ".join(map(str, sorted(c))) + "\n"
    # the terminal 7, its two spokes and one edge of the top digon
    loop = [e for e, (u, v) in g.edges.items() if {u, v} in ({5, 6}, {5, 7}, {6, 7})]
    yield text + "loop " + " ".join(map(str, sorted(loop[1:]))) + "\n"
    g = generate.ring_gadget(2)
    rings = generate.ring_ids(3)
    t = max(g.vertices)
    outer = rings[2]
    pend = [e for e, (u, v) in g.edges.items() if t in (u, v)]
    arc = [e for e, (u, v) in g.edges.items() if u in outer and v in outer]
    drop = [e for e in arc if set(g.edges[e]) == {outer[0], outer[1]}]
    text = fileio.serialize(g)
    for c in generate.ring_cycles(g, rings[:2]):
        text += "cycle " + " ".join(map(str, sorted(c))) + "\n"
    yield text + "loop " + " ".join(map(str, sorted((set(arc) - set(drop)) | set(pend)))) + "\n"


_config_seeds = [t.splitlines() for t in _config_seed_texts()]
_edge_ids = st.lists(st.integers(min_value=-1, max_value=30).map(str), max_size=8)


@st.composite
def config_texts(draw):
    """A valid cycles-and-loop file with its cycle and loop records
    dropped, added, reordered or given other edge ids."""
    lines = list(draw(st.sampled_from(_config_seeds)))
    for _ in range(draw(st.integers(1, 3))):
        records = [i for i, line in enumerate(lines) if line.split()[:1] in (["cycle"], ["loop"])]
        action = draw(st.sampled_from(["drop", "add", "edit", "swap"]))
        if action == "drop" and records:
            del lines[draw(st.sampled_from(records))]
        elif action == "edit" and records:
            i = draw(st.sampled_from(records))
            ids = lines[i].split()[1:]
            if ids and draw(st.booleans()):
                del ids[draw(st.integers(0, len(ids) - 1))]
            ids += draw(_edge_ids)[:2]
            lines[i] = " ".join([lines[i].split()[0]] + ids)
        elif action == "swap" and len(records) > 1:
            i, j = draw(st.permutations(records))[:2]
            lines[i], lines[j] = lines[j], lines[i]
        else:
            word = draw(st.sampled_from(["cycle", "loop"]))
            lines.append(" ".join([word] + draw(_edge_ids)))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_texts())
def test_check_config_fuzzed_records_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "conf.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["check-config", path]) in (0, 1, 2)


_families = st.sampled_from(["nested-rings", "grid-with-terminals", "random-planar", "concentric-gadget"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _families,
    st.fixed_dictionaries(
        {
            "--depth": st.integers(-2, 6),
            "--ring-size": st.integers(-2, 8),
            "--rows": st.integers(-2, 8),
            "--cols": st.integers(-2, 8),
            "--n": st.integers(-2, 30),
            "--k": st.integers(-2, 12),
            "--seed": st.integers(-(2**70), 2**70),
        }
    ),
    st.booleans(),
)
def test_gen_fuzzed_numbers_end_in_an_exit_code(family, numbers, stilts):
    # sizes are capped so that every generated graph stays small
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["gen", family, "-o", os.path.join(tmp, "g.txt")]
        for flag, value in numbers.items():
            argv += [flag, str(value)]
        assert main(argv + ["--stilts"] * stilts) in (0, 1, 2)


_oracle_graphs = (
    generate.grid(3, 3, terminals={1, 9}),
    generate.nested_rings(2, ring_size=4, terminals={1}),
    generate.ring(5),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(_oracle_graphs),
    st.integers(-3, 14),
    st.integers(-3, 6),
    st.lists(st.integers(-2, 14), min_size=1, max_size=7),
)
def test_oracle_fuzzed_numbers_end_in_an_exit_code(graph, vertex, level, ends):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_instance(os.path.join(tmp, "in.txt"), graph)
        assert main(["oracle", "isolation", path, str(vertex), str(level)]) in (0, 1, 2)
        assert main(["oracle", "disjoint-paths", path, *map(str, ends)]) in (0, 1, 2)
