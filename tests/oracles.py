"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's bit-mask code paths:
families are tuples of Python frozensets, matrices are lists of 0/1 lists,
and searches are plain itertools scans, so agreement with the package is
evidence rather than tautology.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, Sequence


def to_sets(family) -> list[frozenset[int]]:
    """SetFamily -> list of frozensets of 1-based elements."""
    return [frozenset(m.elements()) for m in family.members]


def op_sets(sets: Sequence[frozenset[int]]) -> int:
    count = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) % 2 == 1:
                count += 1
    return count


def odd_pairs(sets: Sequence[frozenset[int]]) -> list[tuple[int, int]]:
    """(i, j), i < j, of every odd-intersection pair, in row-major order."""
    return [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if len(sets[i] & sets[j]) % 2 == 1
    ]


def follows_rules(sets: Sequence[frozenset[int]], member_parity: int) -> bool:
    """Every member of size parity member_parity, every pair meeting evenly."""
    return all(len(s) % 2 == member_parity for s in sets) and not odd_pairs(sets)


def max_even_subfamily(sets: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Lex-least index tuple of a largest subfamily whose pairs all meet evenly."""
    for size in range(len(sets), -1, -1):
        for idxs in combinations(range(len(sets)), size):
            if not odd_pairs([sets[i] for i in idxs]):
                return idxs
    return ()


def odd_diagonal(xs: Sequence[frozenset[int]], ys: Sequence[frozenset[int]]) -> bool:
    """|X_i n Y_j| is odd exactly when i == j."""
    return all(
        len(x & y) % 2 == (1 if i == j else 0)
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    )


def pairs_exact_t(sets: Sequence[frozenset[int]], t: int) -> int:
    count = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) == t:
                count += 1
    return count


def rank_dense(rows: Iterable[Sequence[int]]) -> int:
    """Gaussian elimination over F2 on dense 0/1 row lists."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        for r in range(len(work)):
            if r != row and work[r][col]:
                work[r] = [a ^ b for a, b in zip(work[r], work[row])]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


def mask_to_row(mask: int, n: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(n)]


def nullspace_enumerated(masks: Sequence[int]) -> set[int]:
    """All coefficient masks e with xor of selected vectors zero, by enumeration."""
    m = len(masks)
    out = set()
    for coeff in range(1 << m):
        acc = 0
        for i in range(m):
            if (coeff >> i) & 1:
                acc ^= masks[i]
        if acc == 0:
            out.add(coeff)
    return out


def subspace_vectors(basis_masks: Sequence[int]) -> set[int]:
    """All XOR combinations of the basis rows."""
    out = {0}
    for b in basis_masks:
        out |= {v ^ b for v in out}
    return out


def min_objective_brute(
    pool: Sequence[frozenset[int]], m: int, objective
) -> tuple[int, tuple[frozenset[int], ...]]:
    """Minimum objective over all m-subsets of pool, first optimum in lex order.

    pool must already be in the canonical order; the returned witness is the
    lexicographically least optimal family by pool position.
    """
    best = None
    best_fam: tuple[frozenset[int], ...] | None = None
    for fam in combinations(pool, m):
        v = objective(fam)
        if best is None or v < best:
            best, best_fam = v, fam
    assert best is not None and best_fam is not None
    return best, best_fam


def all_optima_brute(pool: Sequence[frozenset[int]], m: int, objective):
    best, _ = min_objective_brute(pool, m, objective)
    return best, [
        fam for fam in combinations(pool, m) if objective(fam) == best
    ]


def climb_reference(
    rows: Sequence[int],
    start: Iterable[int],
    budget_nodes: int,
    deadline: float,
    evals: int = 0,
) -> tuple[int, tuple[int, ...], int, bool]:
    """First-improvement single-set swaps, one loop iteration per candidate.

    rows[x] has bit y set when pool sets x and y form a counted pair.  For a
    in ascending order, swap in the first c outside the family with
    w[c] - [c pairs with a] < w[a], where w[x] counts x's pairs with the
    family; rescan after each swap.  Each candidate tested adds one to
    evals, and at each multiple of 4096 the run stops, before that test,
    once evals passes budget_nodes or the clock passes deadline.  A clock
    already past deadline stops the run before any test, with the start
    family and evals as given.  Returns (value, chosen indices ascending,
    evals, stopped).
    """
    P = len(rows)
    pairs = [[row >> y & 1 for y in range(P)] for row in rows]
    chosen = set(start)
    w = [sum(pairs[x][c] for c in chosen) for x in range(P)]
    value = sum(w[c] for c in chosen) // 2
    if time.monotonic() > deadline:
        return value, tuple(sorted(chosen)), evals, True
    stopped = False
    improved = True
    while improved and not stopped:
        improved = False
        for a in sorted(chosen):
            lost = w[a]
            for c in range(P):
                if c in chosen:
                    continue
                evals += 1
                if evals % 4096 == 0 and (evals > budget_nodes or time.monotonic() > deadline):
                    stopped = True
                    break
                gained = w[c] - pairs[a][c]
                if gained < lost:
                    for x in range(P):
                        w[x] += pairs[c][x] - pairs[a][x]
                    chosen.remove(a)
                    chosen.add(c)
                    value += gained - lost
                    improved = True
                    break
            if improved or stopped:
                break
    return value, tuple(sorted(chosen)), evals, stopped
