"""Command-line surface.

Subcommands: solve, reduce, kernelize, td, oracle, check-config, gen.
Exit codes: 0 for YES or success, 1 for NO, 2 for any error.  All
randomness comes from --seed (default: the TCYCLE_SEED environment
variable, else 0), so identical invocations produce identical output.
"""

import argparse
import json
import os
import sys

from . import fileio, generate
from .cycles import CLConfiguration, ConcentricSequence, loop_cost
from .decomposition import IsolationBudget, reed_pipeline
from .dp import solve_t_cycle
from .errors import InvalidConfiguration, TCycleError
from .kernel import kernelize
from .oracle import brute_disjoint_paths, brute_isolation, brute_t_cycle
from .treewidth import cheapest, from_pace_lines, pace_lines


def _default_seed():
    text = os.environ.get("TCYCLE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidConfiguration(f"TCYCLE_SEED is not an integer: {text!r}") from None


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _verdict(found, *lines):
    """Print YES (with any witness lines) or NO and return the exit code the
    answer gives.  The code stands when the reader closes stdout early."""
    try:
        print("YES" if found else "NO")
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return 0 if found else 1


def _drop_stdout():
    """The reader closed stdout (as `| head` does): send what is left,
    the interpreter's final flush included, to os.devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _budget(args):
    if getattr(args, "g", None) is not None:
        return IsolationBudget(args.g)
    return None


def cmd_solve(args):
    g = fileio.load(args.infile)
    td = None
    if args.td:
        with open(args.td, encoding="utf-8") as fh:
            td = from_pace_lines(fh.read().splitlines())
    loop = solve_t_cycle(g, td=td)
    if loop is None:
        return _verdict(False)
    return _verdict(True, " ".join(str(e) for e in sorted(loop)))


def cmd_reduce(args):
    g = fileio.load(args.infile)
    out, U, report = reed_pipeline(g, budget=_budget(args))
    fileio.dump(out, args.outfile)
    if args.report:
        _write_json(
            args.report,
            {
                "input_size": len(g.vertices),
                "output_size": len(out.vertices),
                "boundary": sorted(U),
                "removed": [
                    {"vertex": v, "reason": reason, "threshold": thr}
                    for v, reason, thr in report.removed
                ],
            },
        )
    return 0


def cmd_kernelize(args):
    g = fileio.load(args.infile)
    budget = IsolationBudget(args.budget) if args.budget is not None else None
    kernel, report = kernelize(g, budget=budget)
    fileio.dump(kernel, args.outfile)
    if args.report:
        replacements = []
        for cert in report.replacements:
            entry = {
                k: v for k, v in cert.items() if k != "branch_sets"
            }
            if "branch_sets" in cert:
                entry["branch_sets"] = {
                    str(p): sorted(vs) for p, vs in cert["branch_sets"].items()
                }
            replacements.append(entry)
        _write_json(
            args.report,
            {
                "input_size": report.input_size,
                "final_size": report.final_size,
                "stages": [list(s) for s in report.stages],
                "replacements": replacements,
                "kept_verbatim": report.kept_verbatim,
                "fates": [
                    {"fate": fate, "size": size, "boundary": b}
                    for fate, size, b in report.fates
                ],
            },
        )
    return 0


def cmd_td(args):
    g = fileio.load(args.infile)
    td = cheapest(g)
    for line in pace_lines(td, len(g.vertices)):
        print(line)
    return 0


def cmd_oracle(args):
    g = fileio.load(args.infile)
    if args.oracle_cmd == "t-cycle":
        loop = brute_t_cycle(g)
        if loop is None:
            return _verdict(False)
        return _verdict(True, " ".join(str(e) for e in sorted(loop)))
    if args.oracle_cmd == "disjoint-paths":
        ends = args.endpoints
        if len(ends) % 2:
            raise InvalidConfiguration(f"{len(ends)} endpoints do not form pairs")
        pairs = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
        return _verdict(brute_disjoint_paths(g, pairs) is not None)
    # isolation
    return _verdict(brute_isolation(g, g.terminals, args.vertex, args.level))


def cmd_check_config(args):
    with open(args.infile, encoding="utf-8") as fh:
        graph, cycles, loop = fileio.parse_config(fh.read())
    seq = ConcentricSequence(graph, cycles)
    conf = CLConfiguration(seq, loop)
    levels = []
    for j in range(conf.depth + 1):
        segs = conf.segments(j)
        levels.append(
            {
                "level": j,
                "segments": len(segs),
                "type_classes": [
                    len(c) for c in conf.type_partition(j)
                ],
                "forest_height": conf.forest_height(j),
            }
        )
    payload = {
        "depth": conf.depth,
        "cost": loop_cost(graph, cycles, loop),
        "convex": conf.is_convex(),
        "levels": levels,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_gen(args):
    seed = args.seed if args.seed is not None else _default_seed()
    if args.family == "nested-rings":
        g = generate.nested_rings(args.depth, ring_size=args.ring_size)
    elif args.family == "grid-with-terminals":
        g = generate.grid_with_terminals(args.rows, args.cols, args.k, seed=seed)
    elif args.family == "random-planar":
        g = generate.random_planar(args.n, seed=seed, k=args.k)
    else:  # concentric-gadget
        g = generate.ring_gadget(
            args.depth, ring_size=args.ring_size, stilts=args.stilts
        )
    text = fileio.serialize(g)
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tcycle")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="find a cycle through all terminals")
    s.add_argument("infile")
    s.add_argument("--td", default=None)
    s.set_defaults(fn=cmd_solve)

    s = sub.add_parser("reduce", help="delete isolated vertices")
    s.add_argument("infile")
    s.add_argument("outfile")
    s.add_argument("--g", type=int, default=None, help="isolation depth")
    s.add_argument("--report", default=None)
    s.set_defaults(fn=cmd_reduce)

    s = sub.add_parser("kernelize", help="shrink to an equivalent kernel")
    s.add_argument("infile")
    s.add_argument("outfile")
    s.add_argument("--report", default=None)
    s.add_argument("--budget", type=int, default=None, help="isolation depth")
    s.set_defaults(fn=cmd_kernelize)

    s = sub.add_parser("td", help="print the tree decomposition that solve uses")
    s.add_argument("infile")
    s.set_defaults(fn=cmd_td)

    s = sub.add_parser("oracle", help="exhaustive reference solvers")
    osub = s.add_subparsers(dest="oracle_cmd", required=True)
    o = osub.add_parser("t-cycle")
    o.add_argument("infile")
    o = osub.add_parser("disjoint-paths")
    o.add_argument("infile")
    o.add_argument("endpoints", type=int, nargs="+")
    o = osub.add_parser("isolation")
    o.add_argument("infile")
    o.add_argument("vertex", type=int)
    o.add_argument("level", type=int)
    s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("check-config", help="report on a cycles-and-loop file")
    s.add_argument("infile")
    s.set_defaults(fn=cmd_check_config)

    s = sub.add_parser("gen", help="write a generated instance")
    s.add_argument(
        "family",
        choices=(
            "nested-rings",
            "grid-with-terminals",
            "random-planar",
            "concentric-gadget",
        ),
    )
    s.add_argument("--depth", type=int, default=3)
    s.add_argument("--ring-size", type=int, default=3)
    s.add_argument("--rows", type=int, default=5)
    s.add_argument("--cols", type=int, default=5)
    s.add_argument("--n", type=int, default=12)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--stilts", action="store_true")
    s.add_argument("--seed", type=int, default=None, help="randomness seed")
    s.add_argument("-o", "--outfile", default=None)
    s.set_defaults(fn=cmd_gen)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early; commands without a verdict print only after
        # they have succeeded
        _drop_stdout()
        return 0
    except (TCycleError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: an input file that is not UTF-8 text
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the DP's tables outgrew memory, as on a decomposition with a wide bag
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
