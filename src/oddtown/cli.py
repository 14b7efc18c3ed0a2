"""Command-line front end.

Five subcommands: construct (generate a named family), analyze (statistics
of a family file), search (exact or heuristic minimisation), verify
(statement instances against the oracle minimum), steiner (block design
validation and shadows).

Machine output is JSON on stdout; when stdout is a terminal a plain
key/value table is shown instead (force JSON with --json).  Exit codes:
0 success/optimal, 2 usage or argument error, 3 inconclusive under budget,
4 counterexample or invalid design.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from . import constructions as cons
from . import search as se
from . import setfamily as sf
from .errors import OddtownError, SteinerValidationError

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_REFUTED = 4

# the construct flags each family takes; all but --seed are required
_FAMILY_FLAGS = {
    "eventown-a": ("n",),
    "eventown-b": ("n",),
    "eventown-plus": ("n", "s", "seed"),
    "singletons": ("n",),
    "k4-triples": ("n",),
    "oddtown-plus": ("n", "s", "seed"),
    "x5": (),
    "f1": (),
    "f2": ("k",),
    "steiner-partition": ("n",),
}


def _env_number(name: str, default: Any, parse: Callable[[str], Any], what: str) -> Any:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None


def _emit(payload: dict[str, Any], as_json: bool) -> None:
    """Print payload and flush, so a closed stdout raises BrokenPipeError here."""
    if as_json or not sys.stdout.isatty():
        print(json.dumps(payload, indent=2))
    else:
        width = max((len(k) for k in payload), default=0)
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            print(f"{key.ljust(width)}  {value}")
    sys.stdout.flush()


def _fraction_fields(value: Fraction) -> dict[str, Any]:
    return {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtown",
        description="Construct, analyze and optimise set families by intersection parity.",
    )
    parser.add_argument("--json", action="store_true", help="force JSON output on a terminal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a named family")
    p.add_argument("--family", required=True, choices=tuple(_FAMILY_FLAGS))
    p.add_argument("--n", type=int, help="ground set size")
    p.add_argument("--s", type=int, help="number of added sets (eventown-plus, oddtown-plus)")
    p.add_argument("--k", type=int, help="uniformity parameter for f2")
    p.add_argument("--seed", type=int, help="draw the added sets as a seeded sample (eventown-plus, oddtown-plus)")
    p.add_argument("--out", type=Path, help="write the family file here")

    p = sub.add_parser("analyze", help="statistics of a family file")
    p.add_argument("--in", dest="path", required=True, type=Path)
    p.add_argument("--pairs", action="store_true", help="list odd pairs by member index")
    p.add_argument("--ckt", type=int, metavar="T", help="count pairs meeting in exactly T elements")
    p.add_argument("--density", action="store_true", help="report the exact odd-pair density")
    p.add_argument("--links", type=int, metavar="K", help="check the link double count at uniformity K")

    p = sub.add_parser("search", help="minimise an objective over a family class")
    p.add_argument("--class", dest="family_class", required=True, choices=("even", "odd", "uniform"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="family size")
    p.add_argument("--k", type=int, help="uniform class member size")
    p.add_argument("--objective", choices=("op", "ckt"), default="op")
    p.add_argument("--t", type=int, help="intersection size for objective ckt")
    p.add_argument("--mode", choices=("exhaustive", "bnb", "local"), default="bnb")
    p.add_argument("--threads", type=int, default=1, help="accepted, no effect: one search thread")
    p.add_argument("--seed", type=int, default=0, help="seed for local search")
    p.add_argument("--restarts", type=int, default=1, help="restarts for local search")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--checkpoint", type=Path, help="resume file, written after each first-level branch (exact modes only)")

    p = sub.add_parser("verify", help="check a statement instance against the oracle")
    p.add_argument(
        "--statement",
        required=True,
        choices=("thm-even", "thm-odd", "conj-even", "conj-odd", "prob-uniform"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--k", type=int, help="uniformity for prob-uniform (odd, default 3)")
    p.add_argument("--mode", choices=("exhaustive", "bnb"), default="bnb")
    p.add_argument("--threads", type=int, default=1, help="accepted, no effect: one search thread")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)

    p = sub.add_parser("steiner", help="validate block designs, emit shadows")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--validate", type=Path, help="block file to validate")
    group.add_argument("--partition", action="store_true", help="build the quadruple partition design")
    p.add_argument("--n", type=int, help="ground size for --partition")
    p.add_argument("--k", type=int, help="expected block size for --validate")
    p.add_argument("--t", type=int, help="expected cover size for --validate")
    p.add_argument("--shadow", type=int, metavar="K", help="emit the K-shadow of the blocks")
    p.add_argument("--out", type=Path, help="write the shadow family file here")
    return parser


def _family_stats(family: sf.SetFamily, report: sf.OpReport) -> dict[str, Any]:
    """Size, op and the two rule checks, which need only op and the size parities."""
    odd = sum(len(m) & 1 for m in family.members)
    no_odd_pair = report.op_count == 0
    return {
        "n": family.ground_size,
        "size": len(family),
        "op": report.op_count,
        "is_eventown": no_odd_pair and odd == 0,
        "is_oddtown": no_odd_pair and odd == len(family),
    }


def _cmd_construct(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    name = args.family
    takes = _FAMILY_FLAGS[name]
    for flag in ("n", "s", "k", "seed"):
        given = getattr(args, flag) is not None
        if given and flag not in takes:
            raise ValueError(f"--family {name} does not take --{flag}")
        if not given and flag in takes and flag != "seed":
            raise ValueError(f"--family {name} requires --{flag}")

    if name == "eventown-a":
        family = cons.eventown_pair(args.n)[0]
    elif name == "eventown-b":
        family = cons.eventown_pair(args.n)[1]
    elif name == "eventown-plus":
        family = cons.eventown_plus(args.n, args.s, args.seed)
    elif name == "singletons":
        family = cons.singletons(args.n)
    elif name == "k4-triples":
        family = cons.disjoint_k4_triples(args.n)
    elif name == "oddtown-plus":
        family = cons.oddtown_plus(args.n, args.s, args.seed)
    elif name == "x5":
        family = cons.example_x5()
    elif name == "f1":
        family = cons.example_f1()
    elif name == "f2":
        family = cons.example_f2(args.k)
    else:  # steiner-partition
        system = cons.steiner_partition(args.n)
        family = system.blocks
    payload: dict[str, Any] = {"family": name, **_family_stats(family, sf.op(family))}
    if name == "steiner-partition":
        payload["steiner_valid"] = True
        payload["design"] = {"n": args.n, "k": 4, "t": 1}
    if args.out is not None:
        sf.save_family(family, args.out)
        payload["out"] = str(args.out)
    return payload, EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    family = sf.load_family(args.path)
    report = sf.op(family, materialize_pairs=args.pairs)
    payload = _family_stats(family, report)
    if args.pairs:
        payload["pairs"] = [list(p) for p in report.pairs or ()]
    if args.ckt is not None:
        payload["ckt"] = {"t": args.ckt, "count": sf.c_kt(family, args.ckt)}
    if args.density:
        if report.density is None:
            raise ValueError(f"density needs at least 2 members, got {len(family)}")
        payload["density"] = _fraction_fields(report.density)
    if args.links is not None:
        identity = sf.check_link_identity(family, args.links)
        payload["link_identity"] = {
            "k": args.links,
            "lhs": identity.lhs,
            "rhs": identity.rhs,
            "holds": identity.holds,
        }
    return payload, EXIT_OK


def _budget_args(args: argparse.Namespace) -> tuple[int, float]:
    nodes = args.budget_nodes
    secs = args.budget_secs
    if nodes is None:
        nodes = _env_number("ODDTOWN_BUDGET_NODES", se.DEFAULT_NODE_BUDGET, int, "an integer")
    if secs is None:
        secs = _env_number("ODDTOWN_BUDGET_SECS", se.DEFAULT_TIME_BUDGET, float, "a number")
    return nodes, secs


def _cmd_search(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    nodes, secs = _budget_args(args)
    spec = se.SearchSpec(
        ground_size=args.n,
        family_size=args.m,
        family_class=args.family_class,
        k=args.k,
        objective=args.objective,
        t=args.t,
        mode=args.mode,
        budget_nodes=nodes,
        budget_secs=secs,
        threads=args.threads,
        seed=args.seed,
        restarts=args.restarts,
    )
    result = se.minimize(spec, checkpoint=args.checkpoint)
    payload = result.to_json_dict()
    if args.mode == "local":
        return payload, EXIT_OK
    return payload, EXIT_OK if result.optimal else EXIT_INCONCLUSIVE


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    nodes, secs = _budget_args(args)
    report = se.verify_theorem(
        args.statement,
        args.n,
        args.s,
        args.k,
        mode=args.mode,
        threads=args.threads,
        budget_nodes=nodes,
        budget_secs=secs,
    )
    payload = report.to_json_dict()
    if report.verdict in ("HOLDS", "TIGHT"):
        return payload, EXIT_OK
    if report.verdict == "COUNTEREXAMPLE":
        return payload, EXIT_REFUTED
    return payload, EXIT_INCONCLUSIVE


def _cmd_steiner(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.partition:
        if args.n is None:
            raise ValueError("--partition requires --n")
        for flag in ("k", "t"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--partition does not take --{flag}")
        system = cons.steiner_partition(args.n)
    else:
        system = cons.load_steiner(args.validate, args.n, args.k, args.t)
    payload: dict[str, Any] = {
        "valid": True,
        "n": system.n,
        "k": system.k,
        "t": system.t,
        "blocks": len(system.blocks),
    }
    if args.shadow is not None:
        shade = sf.shadow(system.blocks, args.shadow)
        payload["shadow"] = {"k": args.shadow, "size": len(shade)}
        # the shadow of an (n, k+1, k-2) design has size 6/(k(k-1)) * C(n, k-2)
        K = args.shadow
        if system.k == K + 1 and system.t == K - 2:
            q, r = divmod(6 * comb(system.n, K - 2), K * (K - 1))
            payload["shadow"]["formula_size"] = q if r == 0 else None
            payload["shadow"]["matches_formula"] = r == 0 and q == len(shade)
        if args.out is not None:
            sf.save_family(shade, args.out)
            payload["shadow"]["out"] = str(args.out)
    return payload, EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "analyze": _cmd_analyze,
        "search": _cmd_search,
        "verify": _cmd_verify,
        "steiner": _cmd_steiner,
    }
    try:
        payload, code = handlers[args.command](args)
    except SteinerValidationError as exc:
        payload = {"valid": False, "error": str(exc)}
        if exc.offending is not None:
            payload["offending"] = list(exc.offending)
        code = EXIT_REFUTED
    except (OddtownError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(payload, args.json)
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so the flush at exit
        # cannot raise again (the SIGPIPE note in the signal module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
