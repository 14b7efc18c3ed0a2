"""Set-family statistics: odd-intersection pair counts and their relatives.

The central quantity is the number of unordered pairs of distinct members
whose intersection has odd size.  Around it sit the exact-intersection
pair count c_{k,t}, shadows, links, the even/odd family rule validators,
maximal even-rule subfamilies, and the bipartite cross-intersection
pattern check.  Densities are exact rationals, never floats.

Families keep insertion order and refuse duplicate members; a canonical
mask-sorted form is available for comparisons.  Pair statistics come from
the row builders odd_rows and exact_t_rows, which never visit a pair.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CapExceededError,
    DuplicateMemberError,
    FamilyFormatError,
    GroundSetMismatchError,
    ParityError,
    UniformityError,
)
from .gf2 import BitSubset, _Value

if TYPE_CHECKING:
    from fractions import Fraction

EXACT_SUBFAMILY_CAP = 30  # exact maximum eventown subfamily refuses larger inputs


class SetFamily(_Value):
    """An ordered, duplicate-free collection of subsets of {1,..,ground_size}."""

    __slots__ = ("ground_size", "members")
    ground_size: int
    members: tuple[BitSubset, ...]

    def __init__(self, ground_size: int, members: tuple[BitSubset, ...]) -> None:
        self._set(ground_size, members)
        if self.ground_size < 1:
            raise ValueError(f"ground size must be >= 1, got {self.ground_size}")
        seen = set()
        for m in self.members:
            if m.ground_size != self.ground_size:
                raise GroundSetMismatchError(
                    f"member over ground size {m.ground_size}, family has {self.ground_size}"
                )
            if m.mask in seen:
                raise DuplicateMemberError(f"duplicate member {m}")
            seen.add(m.mask)

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[int]) -> "SetFamily":
        return cls(ground_size, tuple(BitSubset(m, ground_size) for m in masks))

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from iterables of 1-based element indices."""
        return cls(
            ground_size,
            tuple(BitSubset.from_elements(s, ground_size) for s in sets),
        )

    def masks(self) -> tuple[int, ...]:
        return tuple(m.mask for m in self.members)

    def canonical(self) -> "SetFamily":
        """The same family with members sorted ascending by mask."""
        return SetFamily(self.ground_size, tuple(sorted(self.members)))

    def union(self, other: "SetFamily") -> "SetFamily":
        """Members of self followed by members of other not already present."""
        if other.ground_size != self.ground_size:
            raise GroundSetMismatchError(
                f"ground sets differ: {other.ground_size} vs {self.ground_size}"
            )
        have = set(self.masks())
        extra = tuple(m for m in other.members if m.mask not in have)
        return SetFamily(self.ground_size, self.members + extra)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[BitSubset]:
        return iter(self.members)

    def __contains__(self, item: BitSubset) -> bool:
        return item.ground_size == self.ground_size and item.mask in set(self.masks())


class OpReport(NamedTuple):
    """Odd-intersection pair count with optional pair list and density.

    pairs, when materialised, lists (i, j) member indices with i < j in
    member order.  density is op_count / C(size, 2), exact, and None for
    families with fewer than two members.
    """

    op_count: int
    pairs: tuple[tuple[int, int], ...] | None
    density: Fraction | None


def _bit_indices(mask: int) -> Iterator[int]:
    """0-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _element_basis(targets: Sequence[int]) -> list[int]:
    """basis[e] has bit j set iff targets[j] contains element e (0-based)."""
    union = 0
    for t in targets:
        union |= t
    basis = [0] * union.bit_length()
    for j, t in enumerate(targets):
        for e in _bit_indices(t):
            basis[e] |= 1 << j
    return basis


def odd_rows(masks: Sequence[int], targets: Sequence[int] | None = None) -> Iterator[int]:
    """For each mask x, the row whose bit j is |x n targets[j]| mod 2.

    |x n y| mod 2 is the F2 inner product <x, y>, and <x, .> is linear in x:
    <x ^ z, y> = <x, y> ^ <z, y>.  So the row of x is the XOR of basis[e]
    over the elements e of x, where basis[e] marks the targets containing e,
    and no pair of sets is ever visited.  Without targets the masks are
    compared with themselves and bit i of row i, which is <x, x> = |x| mod 2,
    is cleared.  Rows are yielded one at a time.
    """
    basis = _element_basis(masks if targets is None else targets)
    width = (1 << len(basis)) - 1
    for i, x in enumerate(masks):
        row = 0
        for e in _bit_indices(x & width):
            row ^= basis[e]
        if targets is None and x.bit_count() & 1:
            row ^= 1 << i
        yield row


def exact_t_rows(masks: Sequence[int], t: int) -> Iterator[int]:
    """For each mask x = masks[i], the row whose bit j (j != i) is |x n masks[j]| == t.

    Adding the basis rows of x's elements in bit-sliced binary (plane p holds
    bit p of every count) gives all of x's intersection sizes at once; the
    row is where the planes spell t.
    """
    basis = _element_basis(masks)
    everyone = (1 << len(masks)) - 1
    for i, x in enumerate(masks):
        planes: list[int] = []
        for e in _bit_indices(x):
            carry = basis[e]
            for p, plane in enumerate(planes):
                planes[p] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        row = 0 if t >> len(planes) else everyone & ~(1 << i)
        for p, plane in enumerate(planes):
            row &= plane if t >> p & 1 else ~plane
        yield row


def op(family: SetFamily, materialize_pairs: bool = False) -> OpReport:
    """Count unordered pairs of distinct members with odd intersection."""
    from fractions import Fraction  # imported here: commands without a density never load it

    m = len(family)
    count = 0
    pairs: list[tuple[int, int]] | None = [] if materialize_pairs else None
    for i, row in enumerate(odd_rows(family.masks())):
        later = row >> (i + 1)
        count += later.bit_count()
        if pairs is not None:
            pairs.extend((i, i + 1 + j) for j in _bit_indices(later))
    density = Fraction(count, comb(m, 2)) if m >= 2 else None
    return OpReport(count, tuple(pairs) if pairs is not None else None, density)


def op_count(family: SetFamily) -> int:
    return op(family).op_count


def _uniform_size(family: SetFamily) -> int:
    sizes = {len(m) for m in family.members}
    if len(sizes) > 1:
        raise UniformityError(f"family is not uniform, member sizes {sorted(sizes)}")
    return sizes.pop() if sizes else 0


def c_kt(family: SetFamily, t: int) -> int:
    """Unordered pairs of distinct members meeting in exactly t elements.

    The family must be k-uniform with 0 <= t < k.
    """
    k = _uniform_size(family)
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < member size, got t={t}, k={k}")
    return sum(row.bit_count() for row in exact_t_rows(family.masks(), t)) // 2


def shadow(family: SetFamily, k: int) -> SetFamily:
    """All k-subsets contained in at least one member, mask-sorted."""
    if k < 0:
        raise ValueError(f"shadow size must be non-negative, got {k}")
    for m in family.members:
        if k >= len(m):
            raise ValueError(
                f"shadow size {k} must be smaller than every member; {m} has size {len(m)}"
            )
    seen: set[int] = set()
    for m in family.members:
        for combo in combinations(m.elements(), k):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            seen.add(mask)
    return SetFamily.from_masks(family.ground_size, sorted(seen))


def link(family: SetFamily, a: BitSubset) -> SetFamily:
    """The link of a: { F \\ a : F in family, a subset of F }, member order kept."""
    if a.ground_size != family.ground_size:
        raise GroundSetMismatchError(
            f"ground sets differ: {a.ground_size} vs {family.ground_size}"
        )
    am = a.mask
    out = [m.mask & ~am for m in family.members if am & ~m.mask == 0]
    return SetFamily.from_masks(family.ground_size, out)


class LinkIdentity(NamedTuple):
    """Both sides of the link double count; holds is always true for correct code."""

    lhs: int
    rhs: int
    holds: bool


def check_link_identity(family: SetFamily, k: int) -> LinkIdentity:
    """C(k, k-3) * |family| against the sum of link sizes over (k-3)-subsets.

    This is an identity for every k-uniform family with k >= 3; computing
    the two sides by different routes makes it a self-check.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    actual = _uniform_size(family)
    if len(family) and actual != k:
        raise UniformityError(f"family is {actual}-uniform, expected {k}")
    lhs = comb(k, k - 3) * len(family)
    rhs = 0
    n = family.ground_size
    for combo in combinations(range(1, n + 1), k - 3):
        a = BitSubset.from_elements(combo, n)
        rhs += len(link(family, a))
    return LinkIdentity(lhs, rhs, lhs == rhs)


class ApplicationBound(NamedTuple):
    """The chain c_{k,k-2} * (k-2) >= sum of link op counts >= 3 s C(k,3).

    The first inequality is unconditional; the second is the conjectured
    leg and is only reported, never asserted.
    """

    lhs: int
    mid: int
    rhs: int

    @property
    def first_leg_holds(self) -> bool:
        return self.lhs >= self.mid

    @property
    def conjectured_leg_holds(self) -> bool:
        return self.mid >= self.rhs


def check_application_bound(family: SetFamily, k: int, s: int) -> ApplicationBound:
    """Evaluate the three quantities of the link-counting chain at k >= 4."""
    if k < 4:
        raise ValueError(f"need k >= 4, got {k}")
    actual = _uniform_size(family)
    if len(family) and actual != k:
        raise UniformityError(f"family is {actual}-uniform, expected {k}")
    lhs = c_kt(family, k - 2) * (k - 2) if len(family) else 0
    mid = 0
    n = family.ground_size
    for combo in combinations(range(1, n + 1), k - 3):
        a = BitSubset.from_elements(combo, n)
        mid += op(link(family, a)).op_count
    rhs = 3 * s * comb(k, 3)
    return ApplicationBound(lhs, mid, rhs)


def is_eventown(family: SetFamily) -> bool:
    """All members even-sized and all pairwise intersections even."""
    masks = family.masks()
    return not any(m.bit_count() & 1 for m in masks) and not any(odd_rows(masks))


def is_oddtown(family: SetFamily) -> bool:
    """All members odd-sized and all pairwise intersections even."""
    masks = family.masks()
    return all(m.bit_count() & 1 for m in masks) and not any(odd_rows(masks))


def maximal_eventown_subfamily(
    family: SetFamily, strategy: str = "greedy", cap: int = EXACT_SUBFAMILY_CAP
) -> SetFamily:
    """A subfamily obeying even rules that cannot be extended within family.

    strategy "greedy" scans members in order and keeps what fits, giving a
    maximal (not necessarily maximum) subfamily.  strategy "exact" finds a
    maximum-size one by branch and bound over the odd-intersection graph,
    returning the lexicographically least (by member index) among optima;
    it refuses families larger than cap.
    """
    for m in family.members:
        if len(m) & 1:
            raise ParityError(f"member {m} has odd size")
    if strategy not in ("greedy", "exact"):
        raise ValueError(f"unknown strategy {strategy!r}")
    masks = family.masks()
    adj = list(odd_rows(masks))  # the odd-intersection graph on member indices
    if strategy == "greedy":
        chosen_bits = 0
        keep = []
        for i in range(len(masks)):
            if adj[i] & chosen_bits == 0:
                chosen_bits |= 1 << i
                keep.append(i)
        return SetFamily(family.ground_size, tuple(family.members[i] for i in keep))

    m = len(masks)
    if m > cap:
        raise CapExceededError(f"exact mode limited to {cap} members, got {m}")
    best_size = -1
    best: tuple[int, ...] = ()

    def explore(i: int, chosen: list[int], chosen_bits: int) -> None:
        nonlocal best_size, best
        if len(chosen) + (m - i) < best_size:
            return
        if i == m:
            size = len(chosen)
            cand = tuple(chosen)
            if size > best_size or (size == best_size and cand < best):
                best_size, best = size, cand
            return
        if adj[i] & chosen_bits == 0:
            chosen.append(i)
            explore(i + 1, chosen, chosen_bits | 1 << i)
            chosen.pop()
        explore(i + 1, chosen, chosen_bits)

    explore(0, [], 0)
    return SetFamily(family.ground_size, tuple(family.members[i] for i in best))


def bipartite_oddtown_check(xs: SetFamily, ys: SetFamily) -> bool:
    """True iff |X_i n Y_i| is odd for all i and |X_i n Y_j| is even for i != j."""
    if xs.ground_size != ys.ground_size:
        raise GroundSetMismatchError(
            f"ground sets differ: {xs.ground_size} vs {ys.ground_size}"
        )
    if len(xs) != len(ys):
        raise ValueError(f"family sizes differ: {len(xs)} vs {len(ys)}")
    return all(
        row == 1 << i for i, row in enumerate(odd_rows(xs.masks(), ys.masks()))
    )


def op_density(family: SetFamily) -> Fraction:
    """op(family) / C(|family|, 2) as an exact rational."""
    from fractions import Fraction

    if len(family) < 2:
        raise ValueError(f"density needs at least 2 members, got {len(family)}")
    return Fraction(op(family).op_count, comb(len(family), 2))


# ---------------------------------------------------------------------------
# Family file format: first line "n=<ground_size>", then one set per line as
# space-separated 1-based indices, the token "empty" for the empty set, and
# "#" comments.


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def load_family(path: str | Path) -> SetFamily:
    """Parse a family file; raises FamilyFormatError with a line number."""
    text = Path(path).read_text(encoding="utf-8")
    ground_size: int | None = None
    members: list[BitSubset] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if ground_size is None:
            if not line.startswith("n="):
                raise FamilyFormatError("expected header 'n=<ground_size>'", line_no)
            try:
                ground_size = int(line[2:])
            except ValueError:
                raise FamilyFormatError(f"bad ground size {line[2:]!r}", line_no) from None
            if ground_size < 1:
                raise FamilyFormatError(f"ground size must be >= 1, got {ground_size}", line_no)
            continue
        if line == "empty":
            members.append(BitSubset(0, ground_size))
            continue
        try:
            elements = [int(tok) for tok in line.split()]
        except ValueError:
            raise FamilyFormatError(f"bad set line {line!r}", line_no) from None
        try:
            members.append(BitSubset.from_elements(elements, ground_size))
        except ValueError as exc:
            raise FamilyFormatError(str(exc), line_no) from None
    if ground_size is None:
        raise FamilyFormatError("missing 'n=<ground_size>' header", None)
    try:
        return SetFamily(ground_size, tuple(members))
    except DuplicateMemberError as exc:
        raise FamilyFormatError(str(exc), None) from None


def save_family(family: SetFamily, path: str | Path) -> None:
    lines = [f"n={family.ground_size}"]
    for m in family.members:
        lines.append(" ".join(map(str, m.elements())) if m.mask else "empty")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
