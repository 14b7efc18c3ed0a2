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
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

from .errors import SteinerValidationError
from .gf2 import BitSubset, _bit_indices, _subsets, _Value
from .setfamily import SetFamily, _family, _read, _write_records


def _quadruples(n: int) -> list[int]:
    """Masks of the quadruples {4i+1,..,4i+4} that partition [n], n = 4l, ascending."""
    if n % 4:
        raise ValueError(f"need n divisible by 4, got {n}")
    return [0b1111 << i for i in range(0, n, 4)]


def _quad_blocks(n: int) -> tuple[list[int], list[int]]:
    """Pair-block masks (a_blocks, b_blocks) over the quadruples of [n]."""
    a_blocks: list[int] = []
    b_blocks: list[int] = []
    for quad in _quadruples(n):
        x1, x2, x3, x4 = _subsets(quad, 1)
        a_blocks += [x1 | x2, x3 | x4]
        b_blocks += [x1 | x4, x2 | x3]
    return a_blocks, b_blocks


def _union_closure(blocks: list[int]) -> list[int]:
    """All unions of subsets of the given pairwise disjoint blocks.

    Union j holds blocks[i] for the bits i of j: doubling the list for
    each block in turn appends the unions that hold it.
    """
    masks = [0]
    for block in blocks:
        masks += [m | block for m in masks]
    return masks


def eventown_pair(n: int) -> tuple[SetFamily, SetFamily]:
    """Two extremal even-rule families of size 2^(n/2) sharing only block unions.

    Requires n to be a multiple of 4.  Quadruple i occupies elements 4i-3,..,4i.
    """
    a_blocks, b_blocks = _quad_blocks(n)
    a = SetFamily(n, _union_closure(a_blocks))
    return a, SetFamily(n, _union_closure(b_blocks))


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
    a_blocks, b_blocks = _quad_blocks(n)
    a = _union_closure(a_blocks)
    twin_only = sorted(set(_union_closure(b_blocks)).difference(a))
    return SetFamily(n, a + _pick(twin_only, s, seed))


def _singleton_masks(n: int) -> list[int]:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [1 << i for i in range(n)]


def _k4_triples(n: int) -> list[int]:
    """Masks of the triples inside each quadruple, ascending.

    A quadruple's triples come in lex order of their elements, that is by
    the missing point from the top down, which is ascending mask order.
    """
    return [triple for quad in _quadruples(n) for triple in _subsets(quad, 3)]


def singletons(n: int) -> SetFamily:
    """The n singletons, an extremal odd-rule family."""
    return SetFamily(n, _singleton_masks(n))


def disjoint_k4_triples(n: int) -> SetFamily:
    """All triples inside each quadruple block; n triples, odd rules hold."""
    return SetFamily(n, _k4_triples(n))


def oddtown_plus(n: int, s: int, seed: int | None = None) -> SetFamily:
    """The singletons plus s block triples: n + s odd sets, 3s odd pairs.

    The triples are the s lexicographically smallest with seed None,
    otherwise a sample seeded by seed.
    """
    base = _singleton_masks(n)
    return SetFamily(n, base + _pick(_k4_triples(n), s, seed))


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
    time: each block's t-subsets are counted once, and the t-subsets of [n]
    are read in lex order for the first whose count is not 1.  k = n (a
    single full block) is permitted as the degenerate case.
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
        masks = self.blocks.masks
        for b in masks:
            if b.bit_count() != self.k:
                block = BitSubset(b, self.n)
                raise SteinerValidationError(f"block {block} does not have size {self.k}")
        covers = Counter(chain.from_iterable(_subsets(b, self.t) for b in masks))
        for tmask in _subsets((1 << self.n) - 1, self.t):
            cover = covers[tmask]
            if cover != 1:
                combo = tuple(e + 1 for e in _bit_indices(tmask))
                raise SteinerValidationError(
                    f"{self.t}-set {set(combo)} lies in {cover} blocks, expected 1",
                    offending=combo,
                )


def steiner_partition(n: int) -> SteinerSystem:
    """The partition of [n] into consecutive quadruples, as a (n, 4, 1) design."""
    return SteinerSystem(n, 4, 1, SetFamily(n, _quadruples(n)))


# ---------------------------------------------------------------------------
# Steiner block file format: the family-file grammar of setfamily, with the
# header "n=<n> k=<k> t=<t>", one block per line and no "empty" token.


def load_steiner(
    path: str | Path,
    n: int | None = None,
    k: int | None = None,
    t: int | None = None,
) -> SteinerSystem:
    """Load and exhaustively validate a block file.

    Parameters given as arguments must agree with the file header; that is
    checked before any block is read.
    """
    header, records = _read(path, "n=<n> k=<k> t=<t>")
    for name, given in (("n", n), ("k", k), ("t", t)):
        if given is not None and given != header[name]:
            raise ValueError(
                f"{name}={given} does not match file header {name}={header[name]}"
            )
    blocks = _family(records, "block", header["n"])
    return SteinerSystem(header["n"], header["k"], header["t"], blocks)


def save_steiner(system: SteinerSystem, path: str | Path) -> None:
    header = f"n={system.n} k={system.k} t={system.t}"
    _write_records(path, header, system.blocks.masks)
