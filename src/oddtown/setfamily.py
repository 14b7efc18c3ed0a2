"""Set-family statistics: odd-intersection pair counts and their relatives.

The central quantity is the number of unordered pairs of distinct members
whose intersection has odd size.  Around it sit the exact-intersection
pair count c_{k,t}, shadows, links, the even/odd family rule validators,
maximal even-rule subfamilies, and the bipartite cross-intersection
pattern check.  Densities are exact rationals, never floats.

A family holds its members as bit masks, the characteristic vectors in
F2^n on which every statistic and the file format work, keeps insertion
order and refuses duplicate members; a canonical mask-sorted form is
available for comparisons.  BitSubset objects are built only for callers
that ask for them.  Pair statistics come from the row readers
odd_row_reader and exact_t_row_reader, which build one member's row on
each call and never visit a pair; odd_rows and exact_t_rows read every
row in order.  A reader builds the element basis once, the transposed bit
matrix of the members: a dict keyed by the elements they hold, read off
the members' bytes when it is dense.  For many dense members
odd_row_reader also builds per-byte tables once: for every byte of the
ground set that a member uses, a 256-entry table of XORs of basis rows,
so a row costs one lookup per byte rather than one XOR per element.  The
basis and the tables live as long as the reader.  Family files are
written from per-byte tables of pre-joined element strings on the same
terms.  They are read in one loop over the records, through a dict from
each distinct token to its element's bit that reads and range-checks a
token the first time it appears, so the first bad line in file order is
the one reported.  Sparse or few members take the element-by-element
paths, so the memory used beyond the masks themselves follows the set
bits, not the highest element.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import getitem, or_, xor
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import (
    CapExceededError,
    DuplicateMemberError,
    FamilyFormatError,
    ParityError,
    UniformityError,
)
from .gf2 import BitSubset, _bit_indices, _check_mask, _mask_of, _same_ground, _subsets, _Value

if TYPE_CHECKING:
    from fractions import Fraction

_T = TypeVar("_T")

EXACT_SUBFAMILY_CAP = 30  # exact maximum eventown subfamily refuses larger inputs


class SetFamily(_Value):
    """An ordered, duplicate-free collection of subsets of {1,..,ground_size}.

    masks holds the members as bit masks (bit i-1 for element i), the
    characteristic vectors every statistic here works on.  The constructor
    takes any iterable of ints and refuses a ground size below 1, a mask
    with bits outside [ground_size] and a repeated mask.  members,
    iteration and membership tests deal in BitSubset objects, built on
    demand.
    """

    __slots__ = ("ground_size", "masks")
    ground_size: int
    masks: tuple[int, ...]

    def __init__(self, ground_size: int, masks: Iterable[int]) -> None:
        self._set(ground_size, tuple(masks))
        if ground_size < 1:
            raise ValueError(f"ground size must be >= 1, got {ground_size}")
        seen: set[int] = set()
        for x in self.masks:
            _check_mask(x, ground_size)
            if x in seen:
                raise DuplicateMemberError(f"duplicate member {BitSubset(x, ground_size)}")
            seen.add(x)

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from iterables of 1-based element indices."""
        return cls(ground_size, [_mask_of(s, ground_size) for s in sets])

    @property
    def members(self) -> tuple[BitSubset, ...]:
        """The members as BitSubset objects, built on each read."""
        return tuple(BitSubset(x, self.ground_size) for x in self.masks)

    def canonical(self) -> "SetFamily":
        """The same family with members sorted ascending by mask."""
        return SetFamily(self.ground_size, sorted(self.masks))

    def union(self, other: "SetFamily") -> "SetFamily":
        """Members of self followed by members of other not already present."""
        _same_ground(other.ground_size, self.ground_size)
        have = set(self.masks)
        extra = tuple(x for x in other.masks if x not in have)
        return SetFamily(self.ground_size, self.masks + extra)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[BitSubset]:
        return iter(self.members)

    def __contains__(self, item: object) -> bool:
        """Whether item is a BitSubset on this ground set that is a member."""
        return (
            isinstance(item, BitSubset)
            and item.ground_size == self.ground_size
            and item.mask in self.masks
        )


class OpReport(NamedTuple):
    """Odd-intersection pair count with optional pair list, over size members.

    pairs, when materialised, lists (i, j) member indices with i < j in
    member order.
    """

    op_count: int
    pairs: tuple[tuple[int, int], ...] | None
    size: int

    @property
    def density(self) -> Fraction | None:
        """op_count / C(size, 2), exact, and None below two members."""
        if self.size < 2:
            return None
        from fractions import Fraction  # imported here: only a density read loads it

        return Fraction(self.op_count, comb(self.size, 2))


# _BIT_DIGITS[i] translates each byte to the digit b"1" when its bit i is set, else b"0"
_BIT_DIGITS = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def _element_basis(masks: Sequence[int]) -> dict[int, int]:
    """basis[e] has bit j set iff masks[j] contains element e (0-based).

    Its keys are the elements some mask holds, so its size follows the set
    bits, not the highest element.  When more than one bit in 100 of the
    m x n bit matrix is set, it is transposed with bytes operations: the
    masks are joined as ceil(n/8)-byte little-endian strings, the last mask
    first, so a stride slice reads byte e // 8 of every mask, translate
    turns each of those bytes into the digit of its bit e % 8, and
    int(digits, 2) turns them into basis[e].  The joined masks take
    m * ceil(n/8) bytes, and each column 2m bytes while it is read.
    Sparser matrices are transposed one set bit at a time, which costs
    about as much per set bit as the bytes path does per 100 matrix bits.
    """
    used = reduce(or_, masks, 0)
    n = used.bit_length()
    if len(masks) * n >= 100 * sum(map(int.bit_count, masks)):
        basis = dict.fromkeys(_bit_indices(used), 0)
        for j, x in enumerate(masks):
            for e in _bit_indices(x):
                basis[e] |= 1 << j
        return basis
    size = (n + 7) // 8
    data = b"".join([x.to_bytes(size, "little") for x in reversed(masks)])
    return {
        e: int(data[e >> 3 :: size].translate(_BIT_DIGITS[e & 7]), 2) for e in _bit_indices(used)
    }


def _tables_pay(masks: Sequence[int], size: int) -> bool:
    """Whether _byte_tables builds tables for masks that span size bytes.

    A table costs 255 folds and 256 entries, and then turns a mask's folds,
    one per set bit, into one lookup per byte.  So the tables are built
    only when the masks hold more set bits than bytes, and when there are
    at least 1,024 masks per byte: the tables then hold at most a quarter
    as many entries as there are masks, and their build costs at most a
    quarter of a fold per mask.
    """
    return len(masks) >= 1024 * size and sum(map(int.bit_count, masks)) > len(masks) * size


def _byte_tables(
    item: Callable[[int], _T], masks: Sequence[int], top: int, fold: Callable[[Iterable[_T]], _T]
) -> list[list[_T]] | None:
    """Per-byte tables of folds over item(e) for e < top, or None when they would not pay.

    The "Four Russians" tables: tables[c][b] is fold over item(8c + i) for
    the bits i of byte value b, ascending, so the fold of a mask x < 2^top
    is fold over tables[c][byte c of x].  fold must split anywhere,
    fold(a + b) == fold((fold(a), fold(b))), as XOR of ints and joining
    strings do.  Each table is built by doubling in 255 folds of two.
    """
    if not _tables_pay(masks, -(-top // 8)):
        return None
    tables = []
    for c in range(0, top, 8):
        table = [fold(())]
        for e in range(c, min(c + 8, top)):
            value = item(e)
            table += [fold((v, value)) for v in table]
        tables.append(table)
    return tables


def _xor_all(rows: Iterable[int]) -> int:
    return reduce(xor, rows, 0)


def odd_row_reader(masks: Sequence[int]) -> Callable[[int], int]:
    """row(i): for x = masks[i], the row whose bit j (j != i) is |x n masks[j]| mod 2.

    |x n y| mod 2 is the F2 inner product <x, y>, and <x, .> is linear in x:
    <x ^ z, y> = <x, y> ^ <z, y>.  So the row of x is the XOR of basis[e]
    over the elements e of x, where basis[e] marks the masks containing e,
    and no pair of sets is ever visited.  For many dense masks the XORs are
    read off _byte_tables, one lookup per byte of x; otherwise they are
    taken one element at a time.  Bit i of row i, which is <x, x> = |x| mod 2,
    is cleared.  The basis and the tables are built once, here, and no read
    changes them, so rows may be read in any order and any number of times.
    """
    basis = _element_basis(masks)
    # the tables fold every element below the highest, held or not
    top = max(basis, default=-1) + 1
    tables = _byte_tables(lambda e: basis.get(e, 0), masks, top, _xor_all)
    size = len(tables or ())

    def row(i: int) -> int:
        x = masks[i]
        if tables is None:
            r = _xor_all(map(basis.__getitem__, _bit_indices(x)))
        else:
            r = _xor_all(map(getitem, tables, x.to_bytes(size, "little")))
        return r ^ (x.bit_count() & 1) << i

    return row


def odd_rows(masks: Sequence[int]) -> Iterator[int]:
    """The rows of odd_row_reader(masks), in order."""
    return map(odd_row_reader(masks), range(len(masks)))


def exact_t_row_reader(masks: Sequence[int], t: int) -> Callable[[int], int]:
    """row(i): for x = masks[i], the row whose bit j (j != i) is |x n masks[j]| == t.

    Adding the basis rows of x's elements in bit-sliced binary (plane p holds
    bit p of every count) gives all of x's intersection sizes at once; the
    row is where the planes spell t.  As in odd_row_reader, the basis is
    built once and reads leave it unchanged.
    """
    basis = _element_basis(masks)
    everyone = (1 << len(masks)) - 1

    def row(i: int) -> int:
        planes: list[int] = []
        for e in _bit_indices(masks[i]):
            carry = basis[e]
            for p, plane in enumerate(planes):
                planes[p] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        r = 0 if t >> len(planes) else everyone & ~(1 << i)
        for p, plane in enumerate(planes):
            r &= plane if t >> p & 1 else ~plane
        return r

    return row


def exact_t_rows(masks: Sequence[int], t: int) -> Iterator[int]:
    """The rows of exact_t_row_reader(masks, t), in order."""
    return map(exact_t_row_reader(masks, t), range(len(masks)))


def op(family: SetFamily, materialize_pairs: bool = False) -> OpReport:
    """Count unordered pairs of distinct members with odd intersection."""
    count = 0
    pairs: list[tuple[int, int]] | None = [] if materialize_pairs else None
    for i, row in enumerate(odd_rows(family.masks)):
        later = row >> (i + 1)
        count += later.bit_count()
        if pairs is not None:
            pairs.extend((i, i + 1 + j) for j in _bit_indices(later))
    return OpReport(count, tuple(pairs) if pairs is not None else None, len(family))


def op_count(family: SetFamily) -> int:
    return op(family).op_count


def _uniform_size(family: SetFamily) -> int:
    sizes = set(map(int.bit_count, family.masks))
    if len(sizes) > 1:
        raise UniformityError(f"family is not uniform, member sizes {sorted(sizes)}")
    return sizes.pop() if sizes else 0


def c_kt(family: SetFamily, t: int) -> int:
    """Unordered pairs of distinct members meeting in exactly t elements.

    The family must be k-uniform with 0 <= t < k.  An empty family is
    k-uniform for every k, as in _links, so its count is 0 at every t >= 0.
    """
    k = _uniform_size(family)
    if t < 0 or (len(family) and t >= k):
        raise ValueError(f"need 0 <= t < member size, got t={t}, k={k}")
    return sum(row.bit_count() for row in exact_t_rows(family.masks, t)) // 2


def shadow(family: SetFamily, k: int) -> SetFamily:
    """All k-subsets contained in at least one member, mask-sorted."""
    if k < 0:
        raise ValueError(f"shadow size must be non-negative, got {k}")
    for x in family.masks:
        if k >= x.bit_count():
            raise ValueError(
                f"shadow size {k} must be smaller than every member; "
                f"{BitSubset(x, family.ground_size)} has size {x.bit_count()}"
            )
    seen: set[int] = set()
    for x in family.masks:
        seen.update(_subsets(x, k))
    return SetFamily(family.ground_size, sorted(seen))


def link(family: SetFamily, a: BitSubset) -> SetFamily:
    """The link of a: { F \\ a : F in family, a subset of F }, member order kept."""
    _same_ground(a.ground_size, family.ground_size)
    am = a.mask
    return SetFamily(family.ground_size, [x & ~am for x in family.masks if am & ~x == 0])


def _links(family: SetFamily, k: int) -> Iterator[SetFamily]:
    """The links of all (k-3)-subsets of the ground set, in lex order.

    The family must be k-uniform (or empty); that is checked before the
    first link is made.
    """
    actual = _uniform_size(family)
    if len(family) and actual != k:
        raise UniformityError(f"family is {actual}-uniform, expected {k}")
    n = family.ground_size
    return (link(family, BitSubset(a, n)) for a in _subsets((1 << n) - 1, k - 3))


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
    lhs = comb(k, k - 3) * len(family)
    rhs = sum(map(len, _links(family, k)))
    return LinkIdentity(lhs, rhs, lhs == rhs)


class ApplicationBound(NamedTuple):
    """The chain c_{k,k-2} * (k-2) >= sum of link op counts >= 3 s C(k,3).

    The first leg is an identity, lhs == mid: two members meeting in j
    points share C(j, k-3) links and meet oddly in a shared link exactly
    when j = k-2, where C(k-2, k-3) = k-2.  The second is the conjectured
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
    """Evaluate the three quantities of the link-counting chain at k >= 4.

    lhs == mid for every k-uniform family (see ApplicationBound).
    """
    if k < 4:
        raise ValueError(f"need k >= 4, got {k}")
    links = _links(family, k)  # its uniformity check comes before c_kt's
    lhs = c_kt(family, k - 2) * (k - 2)
    mid = sum(op(fam).op_count for fam in links)
    rhs = 3 * s * comb(k, 3)
    return ApplicationBound(lhs, mid, rhs)


def is_eventown(family: SetFamily) -> bool:
    """All members even-sized and all pairwise intersections even."""
    masks = family.masks
    return not any(m.bit_count() & 1 for m in masks) and not any(odd_rows(masks))


def is_oddtown(family: SetFamily) -> bool:
    """All members odd-sized and all pairwise intersections even."""
    masks = family.masks
    return all(m.bit_count() & 1 for m in masks) and not any(odd_rows(masks))


def maximal_eventown_subfamily(family: SetFamily, strategy: str = "greedy") -> SetFamily:
    """A subfamily obeying even rules that cannot be extended within family.

    strategy "greedy" scans members in order and keeps what fits, giving a
    maximal (not necessarily maximum) subfamily.  strategy "exact" finds a
    maximum-size one by branch and bound over the odd-intersection graph,
    returning the lexicographically least (by member index) among optima;
    it refuses families larger than EXACT_SUBFAMILY_CAP.
    """
    masks = family.masks
    for x in masks:
        if x.bit_count() & 1:
            raise ParityError(f"member {BitSubset(x, family.ground_size)} has odd size")
    if strategy not in ("greedy", "exact"):
        raise ValueError(f"unknown strategy {strategy!r}")
    adj = list(odd_rows(masks))  # the odd-intersection graph on member indices
    if strategy == "greedy":
        chosen_bits = 0
        keep = []
        for i in range(len(masks)):
            if adj[i] & chosen_bits == 0:
                chosen_bits |= 1 << i
                keep.append(i)
        return SetFamily(family.ground_size, [masks[i] for i in keep])

    m = len(masks)
    if m > EXACT_SUBFAMILY_CAP:
        raise CapExceededError(f"exact mode limited to {EXACT_SUBFAMILY_CAP} members, got {m}")
    best_size = -1
    best: tuple[int, ...] = ()

    def explore(i: int, chosen: list[int], chosen_bits: int) -> None:
        nonlocal best_size, best
        # taking before skipping meets the lex-least of each size first, so
        # a branch that can at most tie the best is cut
        if len(chosen) + (m - i) <= best_size:
            return
        if i == m:
            best_size, best = len(chosen), tuple(chosen)
            return
        if adj[i] & chosen_bits == 0:
            chosen.append(i)
            explore(i + 1, chosen, chosen_bits | 1 << i)
            chosen.pop()
        explore(i + 1, chosen, chosen_bits)

    explore(0, [], 0)
    return SetFamily(family.ground_size, [masks[i] for i in best])


def bipartite_oddtown_check(xs: SetFamily, ys: SetFamily) -> bool:
    """True iff |X_i n Y_i| is odd for all i and |X_i n Y_j| is even for i != j."""
    _same_ground(xs.ground_size, ys.ground_size)
    if len(xs) != len(ys):
        raise ValueError(f"family sizes differ: {len(xs)} vs {len(ys)}")
    # bit len(xs) + j of the row of X_i is |X_i n Y_j| mod 2
    rows = odd_rows(xs.masks + ys.masks)
    return all(row >> len(xs) == 1 << i for i, row in zip(range(len(xs)), rows))


def op_density(family: SetFamily) -> Fraction:
    """op(family) / C(|family|, 2) as an exact rational."""
    if len(family) < 2:
        raise ValueError(f"density needs at least 2 members, got {len(family)}")
    return op(family).density


# ---------------------------------------------------------------------------
# Family file format: first line "n=<ground_size>", then one set per line as
# space-separated 1-based indices, the token "empty" for the empty set, and
# "#" comments.  Records end at line feeds only, and tokens are separated
# by ASCII spaces and tabs only.  Header values and indices are an
# optional "+" and then ASCII decimal digits.  Block files
# (constructions.load_steiner) share the grammar, with the header
# "n=<n> k=<k> t=<t>" and no "empty" token.


def _number(token: str) -> int:
    """token read as an optional "+" and then ASCII decimal digits, else ValueError.

    int() alone would also take "_" between digits, a "-" sign and digits
    of other scripts.
    """
    digits = token[1:] if token.startswith("+") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number: {token!r}")
    return int(digits)


def _tokens(line: str) -> Iterator[str]:
    """The tokens of a record: its runs of characters other than ASCII space and tab.

    str.split() would also split at other whitespace, such as the no-break
    space, so a token holding one would read as two numbers.
    """
    return filter(None, line.replace("\t", " ").split(" "))


def _read(path: str | Path, usage: str) -> tuple[dict[str, int], Iterator[tuple[int, str]]]:
    """The header values of a family or block file, and its (line number, text) records.

    Lines end at line feeds only: read_text turns CR LF and CR into LF, and
    the other breaks of str.splitlines, such as VT and U+2028, stay inside
    a line.  Lines are read once "#" comments and outer spaces and tabs are
    cut, and blank ones are skipped.  The first is the header: a
    space-separated key=value token for each key=<...> token of usage, in
    any order, each key once, with an integer value >= 1 (key n is the
    ground size).  Errors name the header's line.  The records are the
    lines after it, cut as they are iterated.
    """
    text = Path(path).read_text(encoding="utf-8")
    records = (
        (line_no, line)
        for line_no, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.split("#", 1)[0].strip(" \t"))
    )
    first = next(records, None)
    if first is None:
        raise FamilyFormatError(f"missing {usage!r} header", None)
    line_no, line = first
    keys = [tok.partition("=")[0] for tok in usage.split()]
    header: dict[str, int] = {}
    for tok in _tokens(line):
        key, sep, value = tok.partition("=")
        if key not in keys or not sep:
            raise FamilyFormatError(f"expected header {usage!r}", line_no)
        if key in header:
            raise FamilyFormatError(f"repeated header key {key!r}", line_no)
        name = "ground size" if key == "n" else key
        try:
            header[key] = _number(value)
        except ValueError:
            raise FamilyFormatError(f"bad {name} {value!r}", line_no) from None
        if header[key] < 1:
            raise FamilyFormatError(f"{name} must be >= 1, got {header[key]}", line_no)
    if len(header) < len(keys):
        raise FamilyFormatError(f"expected header {usage!r}", line_no)
    return header, records


class _ElementBits(dict):
    """bits[token]: the bit of the element of [ground_size] that token names.

    A token is read and range-checked the first time it is looked up, so a
    file pays once per distinct token, and the dict grows with the tokens
    the file uses, not with [ground_size].  A token that is not a number,
    or a number outside [ground_size], raises ValueError and is not kept.
    """

    def __init__(self, ground_size: int) -> None:
        self.ground_size = ground_size

    def __missing__(self, token: str) -> int:
        self[token] = bit = _mask_of((_number(token),), self.ground_size)
        return bit


def _family(
    records: Iterable[tuple[int, str]], what: str, ground_size: int, empty: str | None = None
) -> SetFamily:
    """The family of the subsets records list, in order; errors name the line.

    One loop reads the records.  A record equal to empty, when given, is
    the empty set, and any other is the OR of its tokens' element bits, one
    reduce over _ElementBits.  So the first bad record in file order raises
    FamilyFormatError: one with a token that is not a number (the whole
    record is bad), else with an element outside [ground_size], or one that
    repeats the set of an earlier record.
    """
    bits = _ElementBits(ground_size)
    members: dict[int, None] = {}  # the masks read so far, as an ordered set
    for line_no, line in records:
        try:
            x = 0 if line == empty else reduce(or_, map(bits.__getitem__, _tokens(line)))
        except ValueError as exc:
            message = str(exc)
            try:  # a token that is not a number outranks an element outside [ground_size]
                list(map(_number, _tokens(line)))
            except ValueError:
                message = f"bad {what} line {line!r}"
            raise FamilyFormatError(message, line_no) from None
        if x in members:
            raise FamilyFormatError(f"duplicate member {BitSubset(x, ground_size)}", line_no)
        members[x] = None
    return SetFamily(ground_size, members)


def load_family(path: str | Path) -> SetFamily:
    """Parse a family file; raises FamilyFormatError with a line number."""
    header, records = _read(path, "n=<ground_size>")
    return _family(records, "set", header["n"], empty="empty")


def _element_token(e: int) -> str:
    return f" {e + 1}"


def _write_records(path: str | Path, header: str, masks: Sequence[int]) -> None:
    """Write header, then one line per mask: its 1-based elements ascending, or "empty".

    Each line joins " e" tokens, for many dense masks off _byte_tables of
    pre-joined tokens, one lookup per byte of the mask.
    """
    tables = _byte_tables(_element_token, masks, reduce(or_, masks, 0).bit_length(), "".join)
    if tables is None:
        spelled = ("".join(map(_element_token, _bit_indices(m))) for m in masks)
    else:
        size = len(tables)
        spelled = ("".join(map(getitem, tables, m.to_bytes(size, "little"))) for m in masks)
    lines = [header, *(line[1:] or "empty" for line in spelled)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_family(family: SetFamily, path: str | Path) -> None:
    _write_records(path, f"n={family.ground_size}", family.masks)
