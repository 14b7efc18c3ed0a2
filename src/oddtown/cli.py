"""Command-line front end.

Five subcommands: construct (generate a named family), analyze (statistics
of a family file), search (exact or heuristic minimisation), verify
(statement instances against the oracle minimum), steiner (block design
validation and shadows).  search and verify hand the flags given to
SearchSpec and verify_theorem by name, so a flag left out takes the
library's default.

_parse reads argv against one table, _COMMANDS (each command's handler and
flags), in one pass: `--flag value` or `--flag=value`, where the value may
start with a single '-'; a unique prefix for its flag; the last of a
repeated flag wins; and -h or --help prints the usage.  It replaces
argparse, whose import and parser builds cost ~4 ms of CPU in every process.

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
(SystemExit from _parse) and any unexpected exception leave run() as
they leave main(), and the interpreter finalizes as usual.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace
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


class _BadValue(Exception):
    """Raised by a flag's converter; the message says why the value is refused."""


def _thread_count(raw: str) -> int:
    """--threads: accepted for existing command lines and dropped, but still an int >= 1."""
    try:
        value = int(raw)
    except ValueError:
        raise _BadValue(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise _BadValue(f"must be >= 1, got {value}")
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


def _cmd_construct(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
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


def _cmd_analyze(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
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


def _library_args(args: SimpleNamespace) -> dict[str, Any]:
    """The library flags given; one left out reads None here and is dropped."""
    return {key: value for key, value in vars(args).items()
            if key not in _CLI_ONLY and value is not None}


def _cmd_search(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    spec = se.SearchSpec(**_library_args(args))
    result = se.minimize(spec, checkpoint=args.checkpoint)
    # local search always reports an incumbent, its start family at the least
    code = EXIT_OK if spec.mode == "local" or result.optimal else EXIT_INCONCLUSIVE
    return result.to_json_dict(), code


def _cmd_verify(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    report = se.verify_theorem(**_library_args(args))
    return report.to_json_dict(), _VERDICT_EXIT[report.verdict]


def _cmd_steiner(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    if (args.validate is not None) == args.partition:
        raise ValueError("steiner needs exactly one of --validate and --partition")
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


# A flag is (name, dest, kind, required, help).  kind is the converter of its
# value (int, float, Path, _thread_count), the tuple of its choices, or None
# for a switch, which takes no value and reads True when given.
_HELP = ("-h/--help", "help", None, False, "show this help message and exit")
_TOP_FLAGS = (("--json", "json", None, False, "force JSON output on a terminal"),)
_RUN_FLAGS = (
    ("--threads", "threads", _thread_count, False, "accepted for existing command lines; no effect"),
    ("--budget-nodes", "budget_nodes", int, False, "cap on candidate evaluations (no cap unless given)"),
    ("--budget-secs", "budget_secs", float, False,
     f"time budget in seconds (default {se.DEFAULT_TIME_BUDGET:g})"),
)

# each command: its handler, its help line and its flags.  A flag left out
# reads None (False for a switch); search and verify pass only the flags
# given to SearchSpec and verify_theorem, so the library's default applies
_COMMANDS: dict[str, tuple[Any, ...]] = {
    "construct": (_cmd_construct, "generate a named family", (
        ("--family", "family", tuple(_FAMILIES), True, ""),
        ("--n", "n", int, False, "ground set size"),
        ("--s", "s", int, False, "number of added sets (eventown-plus, oddtown-plus)"),
        ("--k", "k", int, False, "uniformity parameter for f2"),
        ("--seed", "seed", int, False, "draw the added sets as a seeded sample (eventown-plus, oddtown-plus)"),
        ("--out", "out", Path, False, "write the family file here"),
    )),
    "analyze": (_cmd_analyze, "statistics of a family file", (
        ("--in", "path", Path, True, ""),
        ("--pairs", "pairs", None, False, "list odd pairs by member index"),
        ("--ckt", "ckt", int, False, "count pairs meeting in exactly this many elements"),
        ("--density", "density", None, False, "report the exact odd-pair density"),
        ("--links", "links", int, False, "check the link double count at this uniformity"),
    )),
    "search": (_cmd_search, "minimise an objective over a family class", (
        *_RUN_FLAGS,
        ("--class", "family_class", se._CLASSES, True, ""),
        ("--n", "ground_size", int, True, ""),
        ("--m", "family_size", int, True, "family size"),
        ("--k", "k", int, False, "uniform class member size"),
        ("--objective", "objective", se._OBJECTIVES, False, ""),
        ("--t", "t", int, False, "intersection size for objective ckt"),
        ("--mode", "mode", se._MODES, False, ""),
        ("--seed", "seed", int, False, "seed for local search"),
        ("--restarts", "restarts", int, False, "restarts for local search"),
        ("--checkpoint", "checkpoint", Path, False,
         "resume file: where the budget stopped the tree, or its end (exact modes only)"),
    )),
    "verify": (_cmd_verify, "check a statement instance against the oracle", (
        *_RUN_FLAGS,
        ("--statement", "statement", se._STATEMENTS, True, ""),
        ("--n", "n", int, True, ""),
        ("--s", "s", int, False, ""),
        ("--k", "k", int, False, "uniformity for prob-uniform (odd, default 3)"),
        ("--mode", "mode", tuple(m for m in se._MODES if m != "local"), False, ""),
    )),
    "steiner": (_cmd_steiner, "validate block designs, emit shadows", (
        ("--validate", "validate", Path, False, "block file to validate"),
        ("--partition", "partition", None, False, "build the quadruple partition design"),
        ("--n", "n", int, False, "ground size for --partition"),
        ("--k", "k", int, False, "expected block size for --validate"),
        ("--t", "t", int, False, "expected cover size for --validate"),
        ("--shadow", "shadow", int, False, "emit the shadow of the blocks at this size"),
        ("--out", "out", Path, False, "write the shadow family file here"),
    )),
}


def _level(command: str | None) -> tuple[str, tuple[tuple[Any, ...], ...]]:
    """(prog, flags) of the top level or a command."""
    if command is None:
        return "oddtown", _TOP_FLAGS
    return f"oddtown {command}", _COMMANDS[command][2]


def _synopsis(flag: tuple[Any, ...]) -> str:
    name, _, kind, _, _ = flag
    if kind is None:
        return name
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper().replace("-", "_")
    return f"{name} {metavar}"


def _usage(command: str | None) -> str:
    prog, flags = _level(command)
    words = ["usage:", prog, "[-h]"]
    words += [_synopsis(flag) if flag[3] else f"[{_synopsis(flag)}]" for flag in flags]
    if command is None:
        words.append("{" + ",".join(_COMMANDS) + "} ...")
    return " ".join(words)


def _refuse(command: str | None, message: str) -> NoReturn:
    """Print the usage and the error on stderr and exit 2."""
    prog, _ = _level(command)
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _help(command: str | None) -> NoReturn:
    """Print the usage and one line per command and flag on stdout, and exit 0."""
    _, flags = _level(command)
    options = [("-h, --help", _HELP[4])] + [(_synopsis(flag), flag[4]) for flag in flags]
    if command is None:
        about = "Construct, analyze and optimise set families by intersection parity."
        sections = [("commands", [(name, entry[1]) for name, entry in _COMMANDS.items()]),
                    ("options", options)]
    else:
        about, sections = _COMMANDS[command][1], [("options", options)]
    lines = [_usage(command), "", about]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {left:20}  {right}".rstrip() for left, right in rows)]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _convert(command: str | None, flag: tuple[Any, ...], raw: str) -> Any:
    name, _, kind, _, _ = flag
    if isinstance(kind, tuple):
        if raw not in kind:
            choices = ", ".join(map(repr, kind))
            _refuse(command, f"argument {name}: invalid choice: {raw!r} (choose from {choices})")
        return raw
    try:
        return kind(raw)
    except _BadValue as exc:
        _refuse(command, f"argument {name}: {exc}")
    except ValueError:
        _refuse(command, f"argument {name}: invalid {kind.__name__} value: {raw!r}")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of argv read against _COMMANDS, or SystemExit: 2 on a refusal, 0 after help.

    One pass, in order.  The first token that does not start with "-" names
    the command, and the flags after it are the command's.  A flag is -h, or
    a name that starts with "--" or a unique prefix of one; a token that is
    no flag of its level is an unrecognized argument.  The last of a
    repeated flag wins.
    """
    ns: dict[str, Any] = {"json": False}
    command, flags, extras = None, _TOP_FLAGS, []
    tokens = iter(argv)
    for token in tokens:
        if command is None and not token.startswith("-"):
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _refuse(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            command = token
            handler, _, flags = _COMMANDS[command]
            ns.update(command=command, handler=handler)
            ns.update((flag[1], False if flag[2] is None else None) for flag in flags)
            continue
        # an exact name, or a unique prefix of a "--" name, with its value after "="
        options = {"-h": _HELP, "--help": _HELP, **{flag[0]: flag for flag in flags}}
        head, eq, value = token.partition("=")
        if head in options:
            names = [head]
        else:
            names = [name for name in options if head.startswith("--") and name.startswith(head)]
        if len(names) > 1:
            _refuse(command, f"ambiguous option: {token} could match {', '.join(names)}")
        if not names:
            extras.append(token)
            continue
        flag = options[names[0]]
        name, dest, kind, _, _ = flag
        if kind is None:
            if eq:
                _refuse(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:  # the next token, which may start with a single "-"
                value = next(tokens, None)
                if value is None or value.startswith("--") or value == "-h":
                    _refuse(command, f"argument {name}: expected one argument")
            value = _convert(command, flag, value)
        if flag is _HELP:
            _help(command)
        ns[dest] = value
    if command is None:
        _refuse(None, "the following arguments are required: command")
    missing = [flag[0] for flag in flags if flag[3] and ns[flag[1]] is None]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**ns)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
    """main() on sys.argv, then flush and os._exit with its code.

    A refusal or --help raises SystemExit out of main, past the exit here.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
