"""Bit-parallel linear algebra over F2 with Python ints as bit vectors.

A subset of {1,..,n} and its characteristic vector in F2^n share one
representation: bit i-1 of an integer records membership of element i.
The inner product <u,v> is then the parity of popcount(u & v), so parity
of intersection sizes, spans, kernels and orthogonal complements all
reduce to word-parallel integer operations (Python ints act as arbitrary
width word arrays).

Subspaces are canonicalised to reduced row-echelon bases with the pivot
of a row at its lowest set bit and pivots strictly increasing, which
makes subspace equality a plain tuple comparison.
"""

from __future__ import annotations

from bisect import insort
from functools import total_ordering
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, GroundSetMismatchError

ENUMERATION_CAP = 24  # enumerate_subspace refuses dim above this (2^24 vectors)


def _lsb_index(x: int) -> int:
    """Position of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


def _bit_indices(mask: int) -> Iterator[int]:
    """0-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask: int, k: int) -> Iterator[int]:
    """Masks of the k-subsets of mask, in lex order of their elements.

    Each mask is summed from its own elements' bits, so nothing is held per
    point of the ground set but the positions of mask's bits.
    """
    bit = (1).__lshift__
    return (sum(map(bit, combo)) for combo in combinations(_bit_indices(mask), k))


def _mask_of(elements: Iterable[int], ground_size: int) -> int:
    """The mask of 1-based elements, each of which must lie in [1, ground_size]."""
    mask = 0
    for e in elements:
        if not 1 <= e <= ground_size:
            raise ValueError(f"element {e} outside ground set [1, {ground_size}]")
        mask |= 1 << (e - 1)
    return mask


def _check_mask(mask: int, ground_size: int) -> None:
    """Raise ValueError unless mask has bits only inside [ground_size]."""
    if mask < 0 or mask >> ground_size:
        raise ValueError(f"mask {mask:#x} has bits outside ground set of size {ground_size}")


def _same_ground(a: int, b: int) -> None:
    """Raise GroundSetMismatchError unless ground sizes a and b agree."""
    if a != b:
        raise GroundSetMismatchError(f"ground sets differ: {a} vs {b}")


class _Value:
    """Immutable value type over the fields named by a subclass's __slots__.

    Equal field tuples give equal objects whose hash is the hash of that
    tuple, repr is Name(field=value, ...), and assignment or deletion
    after construction raises AttributeError.  A subclass __init__ stores
    its fields through _setters and then validates them; copy and pickle
    rebuild through __init__, so a copy is validated too.  All subclasses
    share these methods, so unlike dataclasses nothing is compiled per
    class when the package is imported.
    """

    __slots__ = ()
    _astuple: attrgetter  # the field tuple of an instance; needs two or more fields
    _setters: tuple  # each field's slot setter, which bypasses __setattr__

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._astuple = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values: object) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class BitSubset(_Value):
    """A subset of {1,..,ground_size} stored as a bit mask.

    Doubles as the characteristic vector in F2^ground_size.  Instances
    order by (mask, ground_size), which is the lexicographic-by-mask order
    used for canonical forms throughout the package.  Elements are 1-based
    at the API boundary; bit positions are 0-based internally.
    """

    __slots__ = ("mask", "ground_size")
    mask: int
    ground_size: int

    def __init__(self, mask: int, ground_size: int) -> None:
        self._set(mask, ground_size)
        if ground_size < 1:
            raise ValueError(f"ground size must be >= 1, got {ground_size}")
        _check_mask(mask, ground_size)

    @classmethod
    def from_elements(cls, elements: Iterable[int], ground_size: int) -> "BitSubset":
        """Build from 1-based element indices."""
        return cls(_mask_of(elements, ground_size), ground_size)

    def __lt__(self, other: "BitSubset") -> bool:
        if other.__class__ is self.__class__:
            return (self.mask, self.ground_size) < (other.mask, other.ground_size)
        return NotImplemented

    def elements(self) -> tuple[int, ...]:
        """The members as ascending 1-based indices."""
        return tuple(i + 1 for i in _bit_indices(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.ground_size and (self.mask >> (element - 1)) & 1 == 1

    def __and__(self, other: "BitSubset") -> "BitSubset":
        _same_ground(self.ground_size, other.ground_size)
        return BitSubset(self.mask & other.mask, self.ground_size)

    def __or__(self, other: "BitSubset") -> "BitSubset":
        _same_ground(self.ground_size, other.ground_size)
        return BitSubset(self.mask | other.mask, self.ground_size)

    def __xor__(self, other: "BitSubset") -> "BitSubset":
        _same_ground(self.ground_size, other.ground_size)
        return BitSubset(self.mask ^ other.mask, self.ground_size)

    def difference(self, other: "BitSubset") -> "BitSubset":
        _same_ground(self.ground_size, other.ground_size)
        return BitSubset(self.mask & ~other.mask, self.ground_size)

    def issubset(self, other: "BitSubset") -> bool:
        _same_ground(self.ground_size, other.ground_size)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "BitSubset") -> bool:
        _same_ground(self.ground_size, other.ground_size)
        return self.mask & other.mask == 0

    def __str__(self) -> str:
        return "{" + " ".join(map(str, self.elements())) + "}"


def inner_parity(u: BitSubset, v: BitSubset) -> int:
    """The F2 inner product <u,v>, i.e. |u n v| mod 2."""
    _same_ground(u.ground_size, v.ground_size)
    return (u.mask & v.mask).bit_count() & 1


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span of the given masks."""
    rows: list[tuple[int, int]] = []  # (pivot, row), pivots strictly increasing
    for v in vectors:
        for p, r in rows:
            if (v >> p) & 1:
                v ^= r
        if v == 0:
            continue
        p = _lsb_index(v)
        # v is zero on existing pivots, so back-reduction preserves them
        rows = [(q, r ^ v if (r >> p) & 1 else r) for q, r in rows]
        insort(rows, (p, v))
    return tuple(r for _, r in rows)


class Gf2Subspace(_Value):
    """A subspace of F2^ground_size held as a reduced row-echelon basis.

    rows are nonzero masks with strictly increasing pivots (lowest set
    bit) and every pivot column cleared in all other rows, so two equal
    subspaces always carry identical tuples.
    """

    __slots__ = ("ground_size", "rows")
    ground_size: int
    rows: tuple[int, ...]

    def __init__(self, ground_size: int, rows: tuple[int, ...]) -> None:
        self._set(ground_size, rows)
        if self.ground_size < 1:
            raise ValueError(f"ground size must be >= 1, got {self.ground_size}")
        prev = -1
        for r in self.rows:
            if r == 0 or r >> self.ground_size:
                raise ValueError("basis rows must be nonzero and inside the ground set")
            p = _lsb_index(r)
            if p <= prev:
                raise ValueError("basis pivots must strictly increase")
            prev = p
        pivots = [_lsb_index(r) for r in self.rows]
        for i, r in enumerate(self.rows):
            for j, p in enumerate(pivots):
                if i != j and (r >> p) & 1:
                    raise ValueError("basis is not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[BitSubset, ...]:
        return tuple(BitSubset(r, self.ground_size) for r in self.rows)

    @classmethod
    def zero(cls, ground_size: int) -> "Gf2Subspace":
        return cls(ground_size, ())

    @classmethod
    def full(cls, ground_size: int) -> "Gf2Subspace":
        return cls(ground_size, tuple(1 << i for i in range(ground_size)))

    def reduce(self, mask: int) -> int:
        """Remainder of mask after elimination against the basis."""
        for r in self.rows:
            if (mask >> _lsb_index(r)) & 1:
                mask ^= r
        return mask

    def contains(self, v: "BitSubset | int") -> bool:
        if isinstance(v, BitSubset):
            _same_ground(v.ground_size, self.ground_size)
            v = v.mask
        return self.reduce(v) == 0

    def __contains__(self, v: "BitSubset | int") -> bool:
        return self.contains(v)

    def is_subspace_of(self, other: "Gf2Subspace") -> bool:
        _same_ground(self.ground_size, other.ground_size)
        return all(other.contains(r) for r in self.rows)


def _common_ground(vectors: Sequence[BitSubset], ground_size: int | None) -> int:
    if vectors:
        n = vectors[0].ground_size
        for v in vectors[1:]:
            _same_ground(v.ground_size, n)
        if ground_size is not None:
            _same_ground(ground_size, n)
        return n
    if ground_size is None:
        raise ValueError("ground_size is required for an empty vector list")
    return ground_size


def span(vectors: Sequence[BitSubset], *, ground_size: int | None = None) -> Gf2Subspace:
    """Span of the given vectors; the empty list spans the zero subspace."""
    n = _common_ground(vectors, ground_size)
    return Gf2Subspace(n, _rref(v.mask for v in vectors))


def rank(vectors: Sequence[BitSubset], *, ground_size: int | None = None) -> int:
    return span(vectors, ground_size=ground_size).dim


def nullspace(vectors: Sequence[BitSubset]) -> Gf2Subspace:
    """All coefficient vectors (e_1,..,e_m) with e_1 v_1 + .. + e_m v_m = 0.

    Returned as a subspace of F2^m where m = len(vectors); its dimension is
    m - rank(vectors) by rank-nullity.
    """
    m = len(vectors)
    if m == 0:
        raise ValueError("nullspace needs at least one vector")
    n = _common_ground(vectors, None)
    # Row i carries e_i in bits n.. .  Pivots are lowest bits, so the reduced
    # rows with no bit below n are exactly a reduced basis of the dependencies.
    rows = _rref(v.mask | 1 << (n + i) for i, v in enumerate(vectors))
    low = (1 << n) - 1
    return Gf2Subspace(m, tuple(r >> n for r in rows if not r & low))


def kernel_of_functional(W: Gf2Subspace, v: BitSubset) -> Gf2Subspace:
    """Kernel of w -> <w,v> restricted to W.

    Equals W when the functional vanishes on W, otherwise a hyperplane of
    W (dimension dim W - 1).
    """
    _same_ground(v.ground_size, W.ground_size)
    values = [(r & v.mask).bit_count() & 1 for r in W.rows]
    if 1 not in values:
        return W
    i0 = values.index(1)
    hot = W.rows[i0]
    gens = [r if val == 0 else r ^ hot for i, (r, val) in enumerate(zip(W.rows, values)) if i != i0]
    return Gf2Subspace(W.ground_size, _rref(gens))


def orthogonal_complement(U: Gf2Subspace) -> Gf2Subspace:
    """All vectors orthogonal to U; dim U + dim U-perp = n.

    x is orthogonal to U when the basis columns it picks, column f holding
    bit f of each basis row, sum to zero: U-perp is their nullspace.
    """
    n, d = U.ground_size, U.dim
    if d == 0:
        return Gf2Subspace.full(n)
    columns = (sum((r >> f & 1) << i for i, r in enumerate(U.rows)) for f in range(n))
    return nullspace([BitSubset(c, d) for c in columns])


def enumerate_subspace(W: Gf2Subspace) -> list[BitSubset]:
    """All 2^dim vectors of W, each exactly once, in Gray-code order.

    Refuses dimensions above ENUMERATION_CAP to bound memory.
    """
    if W.dim > ENUMERATION_CAP:
        raise CapExceededError(
            f"subspace of dimension {W.dim} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    out = [BitSubset(0, W.ground_size)]
    v = 0
    for i in range(1, 1 << W.dim):
        v ^= W.rows[_lsb_index(i)]
        out.append(BitSubset(v, W.ground_size))
    return out
