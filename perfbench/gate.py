"""Correctness gate: checks each CLI output against the reference table.

Every witness is rechecked with pair counts written here, not with
oddtown.setfamily, so a broken kernel in the package cannot vouch for its
own output.  The gate also checks the class (parity or k), the family size
and that members are distinct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

EXIT_BY_VERDICT = {"HOLDS": 0, "TIGHT": 0, "COUNTEREXAMPLE": 4, "INCONCLUSIVE": 3}


# ---------------------------------------------------------------------------
# Independent pair counts


def masks_of(members: list, n: int) -> list[int]:
    """Masks of 1-based element lists; raises ValueError on a malformed member."""
    out = []
    for member in members:
        if list(member) != sorted(set(member)) or any(not 1 <= e <= n for e in member):
            raise ValueError(f"member {member} is not a sorted subset of [1, {n}]")
        mask = 0
        for e in member:
            mask |= 1 << (e - 1)
        out.append(mask)
    return out


def odd_pairs(masks: list[int]) -> int:
    """Unordered pairs of distinct members with odd intersection, pair by pair."""
    return sum(1 for a, b in combinations(masks, 2) if bin(a & b).count("1") % 2)


def t_pairs(masks: list[int], t: int) -> int:
    """Unordered pairs of distinct members meeting in exactly t elements."""
    return sum(1 for a, b in combinations(masks, 2) if bin(a & b).count("1") == t)


def odd_pairs_by_columns(masks: list[int], n: int) -> int:
    """odd_pairs for big families: the odd partners of x are the XOR of the
    element columns of x, because <x, y> is linear in x over GF(2)."""
    columns = [0] * n
    for i, mask in enumerate(masks):
        for e in range(n):
            if mask >> e & 1:
                columns[e] |= 1 << i
    total = 0
    for mask in masks:
        row = 0
        for e in range(n):
            if mask >> e & 1:
                row ^= columns[e]
        total += bin(row).count("1") - bin(mask).count("1") % 2
    return total // 2


def read_family(path: Path) -> tuple[int, list[int]]:
    """Parse the package's family file format: 'n=<n>', then one set per line."""
    n = None
    masks = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line.removeprefix("n="))
        elif line == "empty":
            masks.append(0)
        else:
            masks += masks_of([[int(tok) for tok in line.split()]], n)
    if n is None:
        raise ValueError(f"{path}: no header")
    return n, masks


def write_family(path: Path, n: int, members: list[tuple[int, ...]]) -> None:
    lines = [f"n={n}"] + [" ".join(map(str, m)) for m in members]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def difference_set_design(n: int, base: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Blocks {b + i mod n : b in base} for i in Z_n, as sorted 1-based tuples."""
    return sorted({tuple(sorted((b + i) % n + 1 for b in base)) for i in range(n)})


def design_is_steiner(n: int, t: int, blocks: list[tuple[int, ...]]) -> bool:
    covered = [tuple(c) for b in blocks for c in combinations(b, t)]
    return len(covered) == len(set(covered)) == comb(n, t)


def shadow(blocks: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    return sorted({c for b in blocks for c in combinations(b, k)})


# ---------------------------------------------------------------------------
# Statement shapes, written from the statements themselves


def statement_shape(statement: str, n: int, s: int, k: int | None) -> dict:
    """Class, member size, family size m and claimed bound of a verify instance."""
    half = n // 2
    if statement in ("thm-even", "conj-even"):
        return {"class": "even", "k": None, "m": 2**half + s, "bound": s * 2 ** (half - 1)}
    if statement in ("thm-odd", "conj-odd"):
        return {"class": "odd", "k": None, "m": n + s, "bound": 3 * s}
    if statement == "prob-uniform":
        k = 3 if k is None else k
        return {"class": "uniform", "k": k, "m": n + s, "bound": 4 if k == 3 else 5}
    raise ValueError(f"unknown statement {statement}")


def flags(argv: list[str]) -> dict[str, str]:
    """'--name value' pairs of an item's argv; a flag without a value maps to ''."""
    out = {}
    for tok, nxt in zip(argv, argv[1:] + ["--"]):
        if tok.startswith("--"):
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


# ---------------------------------------------------------------------------
# The gate


class Mismatch(Exception):
    pass


def need(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check_witness(witness, n: int, cls: str, k: int | None, m: int, objective: str, t, value: int) -> None:
    need(isinstance(witness, list), "witness missing")
    masks = masks_of(witness, n)
    need(len(masks) == m, f"witness has {len(masks)} members, expected {m}")
    need(len(set(masks)) == m, "witness members are not distinct")
    if cls == "even":
        need(all(bin(x).count("1") % 2 == 0 for x in masks), "witness has an odd-sized member")
    elif cls == "odd":
        need(all(bin(x).count("1") % 2 == 1 for x in masks), "witness has an even-sized member")
    else:
        need(all(bin(x).count("1") == k for x in masks), f"witness member not of size {k}")
    recount = odd_pairs(masks) if objective == "op" else t_pairs(masks, t)
    need(recount == value, f"witness recount {recount} != reported {value}")


def check_search(expect: dict, f: dict, code: int, out: dict, budgeted: bool) -> dict:
    n, m = int(f["n"]), int(f["m"])
    cls, objective = f["class"], f.get("objective", "op")
    k = int(f["k"]) if "k" in f else None
    t = int(f["t"]) if "t" in f else None
    value, optimal = out["best_value"], out["optimal"]
    need(out["spec"]["family_size"] == m and out["spec"]["ground_size"] == n, "spec echo differs")
    if value is not None:
        check_witness(out["witness"], n, cls, k, m, objective, t, value)
    if f.get("mode") == "local":
        need(code == 0 and optimal is False, f"local search exit {code}, optimal {optimal}")
        need(value is not None and value >= expect["lower_bound"], f"value {value} below bound")
    elif not budgeted:
        need(code == 0 and optimal is True, f"exit {code}, optimal {optimal}; expected a certified optimum")
        need(value == expect["value"], f"value {value} != reference {expect['value']}")
    else:
        need(code == (0 if optimal else 3), f"exit {code} with optimal {optimal}")
        need(value is not None or not optimal, "certified without a value")
        need(value is None or value >= expect["lower_bound"], f"value {value} below {expect['lower_bound']}")
        if optimal and expect.get("optimum") is not None:
            need(value == expect["optimum"], f"certified {value} != known optimum {expect['optimum']}")
    return {"value": value, "m": m, "optimal": optimal, "nodes": out["nodes_explored"]}


def check_verify(expect: dict, f: dict, code: int, out: dict, budgeted: bool) -> dict:
    n, s = int(f["n"]), int(f.get("s", 1))
    k = int(f["k"]) if "k" in f else None
    shape = statement_shape(f["statement"], n, s, k)
    need(out["family_size"] == shape["m"], f"family_size {out['family_size']} != {shape['m']}")
    need(out["claimed_bound"] == shape["bound"], f"claimed_bound {out['claimed_bound']} != {shape['bound']}")
    search = out["search"]
    value, optimal = search["best_value"], search["optimal"]
    need(out["minimum"] == value, "minimum differs from the search's best_value")
    if value is not None:
        check_witness(search["witness"], n, shape["class"], shape["k"], shape["m"], "op", None, value)
    if value is not None and value < shape["bound"]:
        verdict = "COUNTEREXAMPLE"
    elif not optimal:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "TIGHT" if value == shape["bound"] else "HOLDS"
    need(out["verdict"] == verdict, f"verdict {out['verdict']}, the numbers say {verdict}")
    need(code == EXIT_BY_VERDICT[verdict], f"exit {code} for verdict {verdict}")
    if not budgeted:
        need(optimal is True, "expected a certified optimum")
        need(verdict == expect["verdict"], f"verdict {verdict} != reference {expect['verdict']}")
        need(value == expect["value"], f"value {value} != reference {expect['value']}")
    else:
        need(value is None or value >= expect["lower_bound"], f"value {value} below {expect['lower_bound']}")
        if optimal and expect.get("optimum") is not None:
            need(value == expect["optimum"], f"certified {value} != known optimum {expect['optimum']}")
    return {"value": value, "m": shape["m"], "optimal": optimal, "nodes": search["nodes_explored"]}


def check_family_file(path: Path, n: int, size: int, op: int) -> None:
    got_n, masks = read_family(path)
    need(got_n == n and len(masks) == size, f"{path.name}: n={got_n}, {len(masks)} members")
    need(len(set(masks)) == size, f"{path.name}: members are not distinct")
    need(all(bin(x).count("1") % 2 == 0 for x in masks), f"{path.name}: odd-sized member")
    recount = odd_pairs_by_columns(masks, n)
    need(recount == op, f"{path.name}: recount {recount} odd pairs != {op}")


def check_construct(expect: dict, f: dict, code: int, out: dict, ctx: dict) -> dict:
    need(code == 0, f"exit {code}")
    n = int(f["n"])
    need((out["n"], out["size"], out["op"]) == (n, expect["size"], expect["op"]),
         f"n/size/op {out['n']}/{out['size']}/{out['op']}")
    need(out["is_eventown"] is False and out["is_oddtown"] is False, "rule flags wrong")
    check_family_file(Path(f["out"]), n, expect["size"], expect["op"])
    return {}


def check_analyze(expect: dict, f: dict, code: int, out: dict, ctx: dict) -> dict:
    need(code == 0, f"exit {code}")
    n, masks = ctx["families"][f["in"]]
    need((out["n"], out["size"]) == (n, expect["size"]) and len(masks) == expect["size"],
         f"n/size {out['n']}/{out['size']}")
    op = ctx["odd_pairs"][f["in"]]
    need(out["op"] == op, f"op {out['op']} != recount {op}")
    need(out["is_eventown"] == (op == 0 and all(bin(x).count("1") % 2 == 0 for x in masks)),
         "is_eventown wrong")
    if "op" in expect:
        need(op == expect["op"], f"recount {op} != reference {expect['op']}")
    if "density" in f:
        d = Fraction(op, comb(len(masks), 2))
        need(out["density"]["exact"] == f"{d.numerator}/{d.denominator}", "density wrong")
    if "ckt" in f:
        t = int(f["ckt"])
        need(out["ckt"] == {"t": t, "count": t_pairs(masks, t)}, f"ckt {out['ckt']} wrong")
    return {}


def check_steiner(expect: dict, f: dict, code: int, out: dict, ctx: dict) -> dict:
    need(code == 0, f"exit {code}")
    for key in ("valid", "n", "k", "t", "blocks"):
        need(out[key] == expect[key], f"{key} {out[key]} != reference {expect[key]}")
    if "shadow" in f:
        shade = out["shadow"]
        need(shade["size"] == expect["shadow"] and shade["matches_formula"] is True,
             f"shadow {shade}")
        n, masks = read_family(Path(f["out"]))
        ref_n, ref_masks = ctx["families"][ctx["shadow_path"]]
        need(n == ref_n and sorted(masks) == sorted(ref_masks), "shadow file differs from recount")
    return {}


CHECKS = {"construct": check_construct, "analyze": check_analyze, "steiner": check_steiner}


def check(item: dict, code: int, stdout: str, ctx: dict) -> dict:
    """Facts of one item run, with 'error' set when the output is wrong."""
    argv = item["run_argv"]
    f = flags(argv)
    budgeted = "--budget-secs" in item["argv"]
    facts: dict = {"error": None}
    try:
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            raise Mismatch(f"exit {code}, output is not JSON: {stdout[:120]!r}") from None
        if argv[0] == "search":
            facts.update(check_search(item["expect"], f, code, out, budgeted))
        elif argv[0] == "verify":
            facts.update(check_verify(item["expect"], f, code, out, budgeted))
        else:
            facts.update(CHECKS[argv[0]](item["expect"], f, code, out, ctx))
    except (Mismatch, KeyError, TypeError, ValueError, OSError) as exc:
        facts["error"] = f"{type(exc).__name__}: {exc}"
    return facts
