"""Generators for the extremal families and near-extremal perturbations.

The even-rule side is built from a partition of the ground set into
quadruples {x1,x2,x3,x4}: one extremal family takes all unions of the
pair blocks {x1,x2}, {x3,x4}, a twin takes all unions of {x1,x4},
{x2,x3}.  Adding s sets of the twin to the first gives a family of
2^(n/2) + s even sets with exactly s * 2^(n/2 - 1) odd pairs.

The odd-rule side pairs the n singletons with the triples of the same
quadruple partition: adding s triples yields n + s odd sets with exactly
3s odd pairs.  A handful of small named families (x5, f1, f2) realise
known optima for other instance shapes.

Steiner systems are supported as data: block files are loaded and the
unique-cover condition is validated exhaustively; the only built-in
constructions are the trivial partition designs.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

from .errors import FamilyFormatError, SteinerValidationError
from .gf2 import _Value
from .setfamily import SetFamily, _strip_comment


def _quad_blocks(n: int) -> tuple[list[int], list[int]]:
    """Pair-block masks (a_blocks, b_blocks) over quadruples of [n], n = 4l."""
    a_blocks: list[int] = []
    b_blocks: list[int] = []
    for i in range(n // 4):
        x1, x2, x3, x4 = (1 << (4 * i + r) for r in range(4))
        a_blocks += [x1 | x2, x3 | x4]
        b_blocks += [x1 | x4, x2 | x3]
    return a_blocks, b_blocks


def _union_closure(blocks: list[int], n: int) -> SetFamily:
    """All unions of subsets of the given pairwise disjoint blocks."""
    k = len(blocks)
    masks = []
    for j in range(1 << k):
        mask = 0
        for idx in range(k):
            if (j >> idx) & 1:
                mask |= blocks[idx]
        masks.append(mask)
    return SetFamily.from_masks(n, masks)


def eventown_pair(n: int) -> tuple[SetFamily, SetFamily]:
    """Two extremal even-rule families of size 2^(n/2) sharing only block unions.

    Requires n divisible by 4.  Quadruple i occupies elements 4i-3,..,4i.
    """
    if n % 4:
        raise ValueError(f"need n divisible by 4, got {n}")
    a_blocks, b_blocks = _quad_blocks(n)
    return _union_closure(a_blocks, n), _union_closure(b_blocks, n)


def _pick(candidates: list[int], s: int, seed: int | None) -> list[int]:
    """Choose s masks: the lexicographically smallest, or a sample seeded by seed."""
    if not 1 <= s <= len(candidates):
        raise ValueError(f"need 1 <= s <= {len(candidates)}, got s={s}")
    ordered = sorted(candidates)
    if seed is None:
        return ordered[:s]
    rng = random.Random(seed)
    return sorted(rng.sample(ordered, s))


def eventown_plus(n: int, s: int, seed: int | None = None) -> SetFamily:
    """An extremal even-rule family plus s members of its twin.

    Size 2^(n/2) + s with exactly s * 2^(n/2 - 1) odd pairs, for
    1 <= s <= 2^(n/2) - 2^(n/4).  With seed None the s lexicographically
    smallest twin-only sets are added, otherwise a sample seeded by seed.
    """
    a, b = eventown_pair(n)
    twin_only = sorted(set(b.masks()) - set(a.masks()))
    added = _pick(twin_only, s, seed)
    return SetFamily.from_masks(n, a.masks() + tuple(added))


def singletons(n: int) -> SetFamily:
    """The n singletons, an extremal odd-rule family."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return SetFamily.from_masks(n, (1 << i for i in range(n)))


def disjoint_k4_triples(n: int) -> SetFamily:
    """All triples inside each quadruple block; n triples, odd rules hold."""
    if n % 4:
        raise ValueError(f"need n divisible by 4, got {n}")
    masks = []
    for i in range(n // 4):
        block = tuple(4 * i + 1 + r for r in range(4))
        for triple in combinations(block, 3):
            masks.append(sum(1 << (e - 1) for e in triple))
    return SetFamily.from_masks(n, sorted(masks))


def oddtown_plus(n: int, s: int, seed: int | None = None) -> SetFamily:
    """The singletons plus s block triples: n + s odd sets, 3s odd pairs.

    The triples are the s lexicographically smallest with seed None,
    otherwise a sample seeded by seed.
    """
    base = singletons(n)
    triples = list(disjoint_k4_triples(n).masks())
    added = _pick(triples, s, seed)
    return SetFamily.from_masks(n, base.masks() + tuple(added))


def example_x5() -> SetFamily:
    """Six triples over five points with three odd pairs and no odd-rule 5-subfamily."""
    sets = [(1, 2, 3), (1, 4, 5), (1, 2, 4), (1, 3, 5), (1, 3, 4), (1, 2, 5)]
    return SetFamily.from_sets(5, sets)


def example_f1() -> SetFamily:
    """All triples of [4] plus {1,3,5} and {3,4,5}: six triples, four odd pairs."""
    sets = list(combinations(range(1, 5), 3)) + [(1, 3, 5), (3, 4, 5)]
    return SetFamily.from_sets(5, sets)


def example_f2(k: int) -> SetFamily:
    """Two cliques of k-sets joined by one bridge set; 2k+3 sets, five odd pairs.

    Takes all k-subsets of [k+1], all k-subsets of [k+2, 2k+2], and
    [k-2] u {k+2, k+3}, over n = 2k+2.  Requires odd k >= 5.
    """
    if k < 5 or k % 2 == 0:
        raise ValueError(f"need odd k >= 5, got {k}")
    n = 2 * k + 2
    sets: list[tuple[int, ...]] = list(combinations(range(1, k + 2), k))
    sets += list(combinations(range(k + 2, 2 * k + 3), k))
    sets.append(tuple(range(1, k - 1)) + (k + 2, k + 3))
    return SetFamily.from_sets(n, sets)


class SteinerSystem(_Value):
    """A block design where every t-subset of [n] lies in exactly one block.

    Validation is exhaustive over all C(n, t) t-subsets at construction
    time; k = n (a single full block) is permitted as the degenerate case.
    """

    __slots__ = ("n", "k", "t", "blocks")
    n: int
    k: int
    t: int
    blocks: SetFamily

    def __init__(self, n: int, k: int, t: int, blocks: SetFamily) -> None:
        self._set(n, k, t, blocks)
        if not 0 < self.t < self.k <= self.n:
            raise ValueError(
                f"need 0 < t < k <= n, got n={self.n}, k={self.k}, t={self.t}"
            )
        if self.blocks.ground_size != self.n:
            raise ValueError(
                f"blocks over ground size {self.blocks.ground_size}, expected {self.n}"
            )
        for b in self.blocks.members:
            if len(b) != self.k:
                raise SteinerValidationError(f"block {b} does not have size {self.k}")
        for combo in combinations(range(1, self.n + 1), self.t):
            tmask = sum(1 << (e - 1) for e in combo)
            cover = sum(1 for b in self.blocks.masks() if tmask & ~b == 0)
            if cover != 1:
                raise SteinerValidationError(
                    f"{self.t}-set {set(combo)} lies in {cover} blocks, expected 1",
                    offending=combo,
                )


def steiner_partition(n: int) -> SteinerSystem:
    """The partition of [n] into consecutive quadruples, as a (n, 4, 1) design."""
    if n % 4:
        raise ValueError(f"need n divisible by 4, got {n}")
    blocks = SetFamily.from_sets(
        n, (tuple(4 * i + 1 + r for r in range(4)) for i in range(n // 4))
    )
    return SteinerSystem(n, 4, 1, blocks)


# ---------------------------------------------------------------------------
# Steiner block file format: first line "n=<n> k=<k> t=<t>", one block per
# line as space-separated 1-based indices, "#" comments.


def load_steiner(
    path: str | Path,
    n: int | None = None,
    k: int | None = None,
    t: int | None = None,
) -> SteinerSystem:
    """Load and exhaustively validate a block file.

    Parameters given as arguments must agree with the file header.
    """
    text = Path(path).read_text(encoding="utf-8")
    header: dict[str, int] | None = None
    blocks: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if header is None:
            header = {}
            for tok in line.split():
                key, _, value = tok.partition("=")
                if key not in ("n", "k", "t") or not value:
                    raise FamilyFormatError(
                        "expected header 'n=<n> k=<k> t=<t>'", line_no
                    )
                try:
                    header[key] = int(value)
                except ValueError:
                    raise FamilyFormatError(f"bad header value {tok!r}", line_no) from None
            if set(header) != {"n", "k", "t"}:
                raise FamilyFormatError("expected header 'n=<n> k=<k> t=<t>'", line_no)
            continue
        try:
            blocks.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise FamilyFormatError(f"bad block line {line!r}", line_no) from None
    if header is None:
        raise FamilyFormatError("missing 'n=<n> k=<k> t=<t>' header", None)
    for name, given in (("n", n), ("k", k), ("t", t)):
        if given is not None and given != header[name]:
            raise ValueError(
                f"{name}={given} does not match file header {name}={header[name]}"
            )
    family = SetFamily.from_sets(header["n"], blocks)
    return SteinerSystem(header["n"], header["k"], header["t"], family)


def save_steiner(system: SteinerSystem, path: str | Path) -> None:
    lines = [f"n={system.n} k={system.k} t={system.t}"]
    for b in system.blocks.members:
        lines.append(" ".join(map(str, b.elements())))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
