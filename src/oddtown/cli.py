"""Command-line front end.

Five subcommands: construct (generate a named family), analyze (statistics
of a family file), search (exact or heuristic minimisation), verify
(statement instances against the oracle minimum), steiner (block design
validation and shadows).  search and verify hand the flags given to
SearchSpec and verify_theorem by name, so a flag left out takes the
library's default.

Machine output is JSON on stdout; when stdout is a terminal a plain
key/value table is shown instead (force JSON with --json).  Exit codes:
0 success/optimal, 2 usage or argument error, 3 inconclusive under budget,
4 counterexample or invalid design.

main(argv) is the in-process API and returns the exit code.  run() is the
process entry (`python -m oddtown.cli` and the `oddtown` script): after
main returns it flushes stdout and stderr and leaves with os._exit, which
skips the interpreter's finalization (module teardown, the last garbage
collections, freeing every object), 8-11 ms of CPU per command.  Every
file a command writes is closed before main returns, and nothing here
registers an atexit handler or starts a thread.  A usage error or --help
(SystemExit from argparse) and any unexpected exception leave run() as
they leave main(), and the interpreter finalizes as usual.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn

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
# the exit code of each verify verdict
_VERDICT_EXIT = {"HOLDS": EXIT_OK, "TIGHT": EXIT_OK, "INCONCLUSIVE": EXIT_INCONCLUSIVE,
                 "COUNTEREXAMPLE": EXIT_REFUTED}

# each construct family: the flags it takes, all but --seed required, and its
# builder, called with those flags' values in that order
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., sf.SetFamily]]] = {
    "eventown-a": (("n",), lambda n: cons.eventown_pair(n)[0]),
    "eventown-b": (("n",), lambda n: cons.eventown_pair(n)[1]),
    "eventown-plus": (("n", "s", "seed"), cons.eventown_plus),
    "singletons": (("n",), cons.singletons),
    "k4-triples": (("n",), cons.disjoint_k4_triples),
    "oddtown-plus": (("n", "s", "seed"), cons.oddtown_plus),
    "x5": ((), cons.example_x5),
    "f1": ((), cons.example_f1),
    "f2": (("k",), cons.example_f2),
    "steiner-partition": (("n",), lambda n: cons.steiner_partition(n).blocks),
}


def _thread_count(raw: str) -> int:
    """--threads: accepted for existing command lines and dropped, but still >= 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    # search and verify pass the flags given, by name, to SearchSpec and
    # verify_theorem: a flag left out is absent, and the library's default applies
    run = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    run.add_argument("--threads", type=_thread_count, help="accepted for existing command lines; no effect")
    run.add_argument("--budget-nodes", type=int)
    run.add_argument("--budget-secs", type=float)

    p = sub.add_parser("construct", help="generate a named family")
    p.set_defaults(handler=_cmd_construct)
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--n", type=int, help="ground set size")
    p.add_argument("--s", type=int, help="number of added sets (eventown-plus, oddtown-plus)")
    p.add_argument("--k", type=int, help="uniformity parameter for f2")
    p.add_argument("--seed", type=int, help="draw the added sets as a seeded sample (eventown-plus, oddtown-plus)")
    p.add_argument("--out", type=Path, help="write the family file here")

    p = sub.add_parser("analyze", help="statistics of a family file")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--in", dest="path", required=True, type=Path)
    p.add_argument("--pairs", action="store_true", help="list odd pairs by member index")
    p.add_argument("--ckt", type=int, metavar="T", help="count pairs meeting in exactly T elements")
    p.add_argument("--density", action="store_true", help="report the exact odd-pair density")
    p.add_argument("--links", type=int, metavar="K", help="check the link double count at uniformity K")

    p = sub.add_parser(
        "search", parents=[run], argument_default=argparse.SUPPRESS,
        help="minimise an objective over a family class",
    )
    p.set_defaults(handler=_cmd_search)
    p.add_argument("--class", dest="family_class", required=True, choices=se._CLASSES)
    p.add_argument("--n", dest="ground_size", metavar="N", type=int, required=True)
    p.add_argument("--m", dest="family_size", metavar="M", type=int, required=True, help="family size")
    p.add_argument("--k", type=int, help="uniform class member size")
    p.add_argument("--objective", choices=se._OBJECTIVES)
    p.add_argument("--t", type=int, help="intersection size for objective ckt")
    p.add_argument("--mode", choices=se._MODES)
    p.add_argument("--seed", type=int, help="seed for local search")
    p.add_argument("--restarts", type=int, help="restarts for local search")
    p.add_argument("--checkpoint", type=Path, help="resume file: where the budget stopped the tree, or its end (exact modes only)")

    p = sub.add_parser(
        "verify", parents=[run], argument_default=argparse.SUPPRESS,
        help="check a statement instance against the oracle",
    )
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--statement", required=True, choices=se._STATEMENTS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int, help="uniformity for prob-uniform (odd, default 3)")
    p.add_argument("--mode", choices=tuple(m for m in se._MODES if m != "local"))

    p = sub.add_parser("steiner", help="validate block designs, emit shadows")
    p.set_defaults(handler=_cmd_steiner)
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
    odd = sum(x.bit_count() & 1 for x in family.masks)
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
    takes, build = _FAMILIES[name]
    for flag in ("n", "s", "k", "seed"):
        given = getattr(args, flag) is not None
        if given and flag not in takes:
            raise ValueError(f"--family {name} does not take --{flag}")
        if not given and flag in takes and flag != "seed":
            raise ValueError(f"--family {name} requires --{flag}")
    family = build(*(getattr(args, flag) for flag in takes))
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
        density = report.density  # a property: build the Fraction once
        if density is None:
            raise ValueError(f"density needs at least 2 members, got {len(family)}")
        payload["density"] = _fraction_fields(density)
    if args.links is not None:
        identity = sf.check_link_identity(family, args.links)
        payload["link_identity"] = {
            "k": args.links,
            "lhs": identity.lhs,
            "rhs": identity.rhs,
            "holds": identity.holds,
        }
    return payload, EXIT_OK


# the namespace entries of search and verify that are the CLI's own, not the library's
_CLI_ONLY = ("command", "json", "handler", "threads", "checkpoint")


def _library_args(args: argparse.Namespace) -> dict[str, Any]:
    return {key: value for key, value in vars(args).items() if key not in _CLI_ONLY}


def _cmd_search(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    spec = se.SearchSpec(**_library_args(args))
    result = se.minimize(spec, checkpoint=getattr(args, "checkpoint", None))
    # local search always reports an incumbent, its start family at the least
    code = EXIT_OK if spec.mode == "local" or result.optimal else EXIT_INCONCLUSIVE
    return result.to_json_dict(), code


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    report = se.verify_theorem(**_library_args(args))
    return report.to_json_dict(), _VERDICT_EXIT[report.verdict]


def _cmd_steiner(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    if args.out is not None and args.shadow is None:
        raise ValueError("--out needs --shadow")
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
    try:
        payload, code = args.handler(args)
    except SteinerValidationError as exc:
        payload = {"valid": False, "error": str(exc)}
        if exc.offending is not None:
            payload["offending"] = list(exc.offending)
        code = EXIT_REFUTED
    except (OddtownError, ValueError, OSError) as exc:
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


def run() -> NoReturn:
    """main() on sys.argv, then flush and os._exit with its code."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
