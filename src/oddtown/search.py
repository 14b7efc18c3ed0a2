"""Exact and heuristic minimisation of pair-count objectives over set families.

Each pool member has a bitmask row marking the members it forms a counted
pair with, built by F2 linearity (setfamily.odd_row_reader for op) or by
bit-sliced counting (setfamily.exact_t_row_reader for c_kt), never pair by
pair.  The search holds no list of rows: it reads row j through the
reader when it needs it, inside its polled loops, and keeps only the
spreads (below) it memoizes.  For a pool of P sets with at least 1,024
sets per byte of their span (the bytes up to the highest element used),
and more set bits per set than bytes in that span, the op reader reads
each row off per-byte tables of 256 rows of P bits, one lookup per byte of
a set: at most P/4 rows, kept for the run.  Other pools take one XOR per
element.

The exact engine enumerates families as increasing-index combinations over a
mask-sorted candidate pool, so the first optimum found in depth-first order
is the lexicographically least one.  Branch and bound adds six sound
devices on top of plain enumeration, all always on:

* the top node (_tree): the tree grows from one node, the empty family,
  whose one cell [n] lets the lex-leader test (below) admit only the prefix
  sets {1,..,c} as first members.  In the even class it is {∅} instead:
  the empty set meets every set evenly, so the lex-least optimum holds it;
* lex-leaders (_tree): each node carries the cells of the ground set, the
  classes of points that every chosen member treats alike, and admits a
  set only if it holds the lowest points of each cell.  A permutation
  inside the cells fixes every chosen member and keeps the class and the
  value; one of them sends a set that fails the test to a lesser mask, and
  a family that continues with it to a lex-smaller one.  So the lex-least
  optimum passes the test at every depth.  This is McKay's lex-leader
  rule ("Isomorph-free exhaustive generation", J. Algorithms 1998) under
  coordinate permutations.  Every cell is a run of consecutive points, so
  a node keeps its cells as one mask and tests and splits them with a few
  integer operations;
* complement twins (_tree; even class, even n): a set and its complement
  have the same conflict row, so a set holding point n is admitted only
  beside its complement, the smaller mask.  Swapping such a set for its
  missing complement keeps the value and makes the family lex-smaller, so
  the lex-least optimum obeys the rule;
* packed counts: each tree node holds every candidate's count of counted
  pairs with the partial family as one field of one integer, so adding a
  member is one addition of its spread row and a node reads all its counts
  with one to_bytes;
* a conflict bound: a partial family with value v and r more members to add
  reaches at least v plus the sum of the r smallest candidate conflict
  counts against the fixed partial family (under the twin rule, counting
  each undecided set below point n twice, for itself and its twin), sets
  the lex-leader test refuses included, since a deeper node may admit them.
  On 1-byte counts a walk over the values 0, 1, 2, ... (_reaches) takes the
  smallest counts with one bytes.count scan per value and stops once the
  bound is reached; it runs where the bound leaves a mean count of at most
  2 per member to add, and sorting decides elsewhere;
* a floor (_floor): the larger of the deficiency floor (a class whose
  rule-abiding families have at most B members forces m - B odd pairs on m
  members) and the averaging bound from each certified minimum of a smaller
  family of the same class in _CERTIFIED_MINIMA.  The first leaf that
  reaches the floor is optimal, so the search stops there.

There is one hill climber, _climb: first-improvement single-set swaps over
the pool, bounded by the run's deadline and evaluation cap (below).  It
keeps the counts packed as the tree does (_spreader builds the spread rows
of both), so a scan for a swap tests every candidate with a few integer
operations: it makes the swaps of an ascending candidate loop, in the
same order, adds the evaluations that loop would count, and polls the
budgets at the same 4096-evaluation marks.  local_search runs it once per
restart.  Branch and bound runs it once, from the first m pool members,
before the tree: this hint's value primes pruning, and its family is the
incumbent if the tree is cut before it reaches a leaf.  The hint's
evaluations open the run's count, which the tree continues, so the
evaluation cap and nodes_explored cover both.

A run has two budgets: budget_secs, DEFAULT_TIME_BUDGET unless given, and
budget_nodes, a cap on candidate evaluations only when given.  _setup turns
them into the run's deadline and evaluation cap (inf for no cap), the two
numbers every poll reads.

The tree runs on the calling thread and stops only at a budget poll.  A
checkpoint records the DFS path there, the pool indices chosen: every
subtree left of it is finished, so a resume descends along it and searches
on from the node at its end.  It is written when the budgets are spent, at
most every _SAVE_SECS while the tree runs, and with no path once the tree
ends; a rerun on that file returns its result without a hint or a tree.

The tree owns the run's one incumbent, which starts as the known family:
the hint's on a fresh run, or the checkpoint's on a resume, which then
runs no hint.  Pruning uses one bound.  It starts one above the known
value while the known family lies in the part left to search,
lex-greater than the path, so a tie met first is lex-less and wins;
otherwise at the known value.  Each kept leaf then lowers it to its own value, so the tree keeps
only strictly better leaves and its first optimum is the lex-least one.
A kept leaf replaces the incumbent unless it ties it with a lex-greater
witness, so the run ends with the least (value, witness) pair.  A resume's
bound is never above the direct run's at the same point, so a chain of
resumed runs makes no more evaluations than one direct run.  Every known
value is that of a real family, hence at least the floor, so the bound
stays above the floor until the floor stop ends the search: the floor
never needs to raise a lower bound.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from math import comb, inf
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import CheckpointError, InfeasibleSpecError, OracleSoundnessError
from .gf2 import _bit_indices, _subsets, _Value
from .setfamily import SetFamily, exact_t_row_reader, odd_row_reader

DEFAULT_TIME_BUDGET = 600.0  # the one default stop: no evaluation cap unless given
# At most 2^16 pool sets: the op reader's byte tables then take at most
# P^2/32 bytes (128 MiB) for the run, and each spreader's kept spreads at
# most _SPREAD_BYTES.  A larger ground set is refused outright, since every
# class on it but the lone uniform k = n set exceeds the cap.
_POOL_CAP = 1 << 16
# A spread row takes P * width bytes (a count of 1 to 3 bytes per pool set),
# so keeping all P of them could take 8 GiB or more at the cap: the tree and
# the climber each keep at most 2^29 bytes of them (512 MiB) and rebuild the
# rest.
_SPREAD_BYTES = 1 << 29
_EXHAUSTIVE_CAP = 10**8  # most families exhaustive mode will enumerate
_CHECK_INTERVAL = 1024  # budget polling granularity, in nodes
_SAVE_SECS = 5.0  # least time between two checkpoint writes of a run that goes on

_CLASSES = ("even", "odd", "uniform")
_OBJECTIVES = ("op", "ckt")
_MODES = ("exhaustive", "bnb", "local")


class SearchSpec(_Value):
    """Instance description: which families to range over and how to search.

    family_class "even" and "odd" range over all subsets of that size
    parity (the empty set counts as even); "uniform" ranges over all
    k-subsets.  objective "op" minimises odd-intersection pairs, "ckt"
    minimises pairs meeting in exactly t elements (uniform class only).
    mode "bnb" always starts from its top node ({∅} in the even class, the
    empty family in the others), uses the lex-leader test under coordinate
    permutations at every depth, complement twins (even class, even n), the
    conflict bound and the class floor (deficiency and averaging, see
    _floor), "exhaustive" none of them; both return the lex-least optimum.
    seed and restarts (>= 1) drive local search only, so the other modes
    refuse any but their defaults 0 and 1.  budget_secs (DEFAULT_TIME_BUDGET,
    600 s, unless given) bounds every run; budget_nodes caps its candidate
    evaluations (nodes_explored) only when given, and None means no cap.
    """

    __slots__ = (
        "ground_size",
        "family_size",
        "family_class",
        "k",
        "objective",
        "t",
        "mode",
        "budget_nodes",
        "budget_secs",
        "seed",
        "restarts",
    )
    ground_size: int
    family_size: int
    family_class: str
    k: int | None
    objective: str
    t: int | None
    mode: str
    budget_nodes: int | None
    budget_secs: float
    seed: int
    restarts: int

    def __init__(
        self,
        ground_size: int,
        family_size: int,
        family_class: str,
        k: int | None = None,
        objective: str = "op",
        t: int | None = None,
        mode: str = "bnb",
        budget_nodes: int | None = None,
        budget_secs: float = DEFAULT_TIME_BUDGET,
        seed: int = 0,
        restarts: int = 1,
    ) -> None:
        self._set(
            ground_size, family_size, family_class, k, objective, t, mode,
            budget_nodes, budget_secs, seed, restarts,
        )
        if not 1 <= self.ground_size <= _POOL_CAP:
            raise InfeasibleSpecError(
                f"ground size must be in [1, {_POOL_CAP}], got {self.ground_size}"
            )
        if self.family_size < 1:
            raise InfeasibleSpecError(f"family size must be >= 1, got {self.family_size}")
        if self.family_class not in _CLASSES:
            raise InfeasibleSpecError(
                f"family class must be one of {_CLASSES}, got {self.family_class!r}"
            )
        if self.family_class == "uniform":
            if self.k is None or not 1 <= self.k <= self.ground_size:
                raise InfeasibleSpecError(
                    f"uniform class needs 1 <= k <= {self.ground_size}, got k={self.k}"
                )
        elif self.k is not None:
            raise InfeasibleSpecError("k only applies to the uniform class")
        if self.objective not in _OBJECTIVES:
            raise InfeasibleSpecError(
                f"objective must be one of {_OBJECTIVES}, got {self.objective!r}"
            )
        if self.objective == "ckt":
            if self.family_class != "uniform":
                raise InfeasibleSpecError("objective 'ckt' needs the uniform class")
            if self.t is None or not 0 <= self.t < (self.k or 0):
                raise InfeasibleSpecError(
                    f"objective 'ckt' needs 0 <= t < k, got t={self.t}"
                )
        elif self.t is not None:
            raise InfeasibleSpecError("t only applies to objective 'ckt'")
        if self.mode not in _MODES:
            raise InfeasibleSpecError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.restarts < 1:
            raise InfeasibleSpecError(f"restarts must be >= 1, got {self.restarts}")
        if self.mode != "local" and (self.seed, self.restarts) != (0, 1):
            raise InfeasibleSpecError("seed and restarts only apply to mode 'local'")
        nodes_bad = self.budget_nodes is not None and self.budget_nodes < 1
        if nodes_bad or not 0 < self.budget_secs < inf:  # NaN fails too
            raise InfeasibleSpecError("budgets must be positive and finite")
        pool = self.pool_size()
        if pool > _POOL_CAP:
            raise InfeasibleSpecError(
                f"the class has {pool} candidate sets, over the cap of {_POOL_CAP} "
                f"(spreads take up to 512 MiB per spreader, byte tables up to P^2/32 bytes)"
            )
        if self.family_size > pool:
            raise InfeasibleSpecError(
                f"family size {self.family_size} exceeds the {pool} "
                f"candidate sets in the class"
            )

    def pool_size(self) -> int:
        if self.family_class == "uniform":
            return comb(self.ground_size, self.k)  # type: ignore[arg-type]
        return 1 << (self.ground_size - 1)


def _element_lists(family: SetFamily | None) -> list[list[int]] | None:
    """Each member of family as its ascending 1-based elements; None for no family."""
    return None if family is None else [[e + 1 for e in _bit_indices(x)] for x in family.masks]


class SearchResult(NamedTuple):
    """Outcome of one search run.

    optimal is True only when the instance space was fully covered or
    pruned soundly; local search never sets it.  witness members are in
    ascending mask order and satisfy objective(witness) == best_value.
    The JSON form adds the bracket's lower end: lower_bound is best_value
    when optimal and the class floor otherwise, and floor_entry names the
    certified-minimum table entry that set the floor, if one did.
    """

    best_value: int | None
    witness: SetFamily | None
    optimal: bool
    nodes_explored: int
    elapsed: float
    spec: SearchSpec

    def to_json_dict(self) -> dict:
        floor, entry = _floor(self.spec)
        return {
            "best_value": self.best_value,
            "witness": _element_lists(self.witness),
            "optimal": self.optimal,
            "lower_bound": self.best_value if self.optimal else floor,
            "floor_entry": None
            if entry is None
            else {"family_size": entry[0], "minimum": entry[1]},
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": int(self.elapsed * 1000),
            "spec": {name: getattr(self.spec, name) for name in SearchSpec.__slots__},
        }


def candidate_pool(spec: SearchSpec) -> list[int]:
    """All masks of the instance class, ascending (the lexicographic order)."""
    n = spec.ground_size
    if spec.family_class == "uniform":
        return sorted(_subsets((1 << n) - 1, spec.k))  # type: ignore[arg-type]
    want = 0 if spec.family_class == "even" else 1
    return [m for m in range(1 << n) if m.bit_count() & 1 == want]


# Class minima certified by this package's own branch and bound, each pinned
# by a test that recomputes it without the table.  The key is every field that
# defines the class: (family_class, objective, k, t, ground_size, family_size).
# An entry is a searched minimum, never a statement's proven bound taken on trust.
_CERTIFIED_MINIMA: dict[tuple[str, str, int | None, int | None, int, int], int] = {
    ("odd", "op", None, None, 4, 5): 3,
    ("odd", "op", None, None, 5, 6): 3,
    ("odd", "op", None, None, 6, 7): 3,
    ("odd", "op", None, None, 7, 8): 3,
    ("odd", "op", None, None, 8, 9): 3,  # thm-odd n=8: ~0.3 s
    ("odd", "op", None, None, 9, 10): 3,  # thm-odd n=9: ~2 s
}


def _rule_bound(family_class: str, n: int, k: int | None) -> int:
    """Most members of a family in the class with no odd pair, B in "m = B + s".

    Odd sets (the odd class, odd k in the uniform class) obey the oddtown
    bound n; even sets the eventown bound 2^floor(n/2) (Berlekamp 1969,
    Graver 1975).
    """
    if family_class == "odd" or (family_class == "uniform" and (k or 0) & 1):
        return n
    return 1 << (n // 2)


def _floor(spec: SearchSpec) -> tuple[int, tuple[int, int] | None]:
    """A lower bound on the objective of every family in the class, and its source.

    The bound is the larger of two:

    * the deficiency floor (op only): in a class whose rule-abiding families
      have size at most B, every family of size m has at least m - B counted
      pairs, because each member outside a maximal rule-abiding subfamily
      meets it oddly;
    * the averaging bound of each table entry (m2, v) of the same class with
      m2 < m: each pair of an m-family lies in C(m-2, m2-2) of its
      m2-subfamilies, each of which has at least v pairs, so the family has
      at least ceil(v * m(m-1) / (m2(m2-1))).

    The source is the (family size, minimum) entry whose bound is the floor,
    or None when the deficiency floor is at least as large.
    """
    n, m = spec.ground_size, spec.family_size
    floor = 0
    if spec.objective == "op":
        floor = max(0, m - _rule_bound(spec.family_class, n, spec.k))
    entry = None
    cls = (spec.family_class, spec.objective, spec.k, spec.t, n)
    for key, v in _CERTIFIED_MINIMA.items():
        m2 = key[-1]
        if key[:-1] == cls and m2 < m:
            bound = -(-v * m * (m - 1) // (m2 * (m2 - 1)))
            if bound > floor:
                floor, entry = bound, (m2, v)
    return floor, entry


def _reaches(counts: bytes, cur: int, need: int, bound: float) -> bool:
    """Whether cur plus the sum of the need smallest counts reaches bound.

    A walk over v = 0, 1, 2, ...: the need smallest counts are every count
    below v and then enough counts equal to v, and counts.count(v) is one
    C-speed scan.  While left counts are still to take, all at least v,
    the running sum plus left * v is a lower bound on the full sum, so the
    walk stops as soon as that reaches bound.  A walk that runs to the end
    decides on the full sum, sum(sorted(counts)[:need]).  counts holds at
    least need counts below 0xFF, so the walk ends below 0xFF and never
    takes a blocked field.
    """
    total, left, v = cur, need, 0
    while total + left * v < bound:
        c = counts.count(v)
        if c >= left:
            return False
        total += c * v
        left -= c
        v += 1
    return True


class _Outcome(NamedTuple):
    best_value: int | None
    witness: tuple[int, ...] | None  # chosen pool indices
    nodes: int
    aborted: bool


_NOTHING = _Outcome(None, None, 0, False)  # no family found, no evaluations


def _spreader(row: Callable[[int], int], P: int, width: int) -> Callable[[int], int]:
    """spread(j): row(j) of a pool of P sets with each bit widened to a field of width bytes.

    Field i of spread(j) is bit i of row(j), so adding spread(j) to a packed
    integer of counts adds row j to all of them at once.  A spread takes
    P * width bytes: those of the first _SPREAD_BYTES // (P * width) pool
    indices are kept, and later ones, and their rows, are rebuilt at each
    call.
    """
    nbytes = P * width
    bit_bytes = bytes.maketrans(b"01", b"\x00\x01")
    room = _SPREAD_BYTES // nbytes
    memo: list[int | None] = [None] * P

    def spread(j: int) -> int:
        s = memo[j]
        if s is None:
            # format puts bit P-1 first, so read big-endian, field j holds bit j
            field = bytearray(nbytes)
            field[width - 1 :: width] = format(row(j), f"0{P}b").encode().translate(bit_bytes)
            s = int.from_bytes(field, "big")
            if j < room:
                memo[j] = s
        return s

    return spread


def _climb(
    row: Callable[[int], int],
    P: int,
    start: Iterable[int],
    cap: float,
    deadline: float,
    evals: int = 0,
) -> tuple[int, tuple[int, ...], int, bool]:
    """First-improvement single-set swaps from the pool indices in start.

    For a in ascending order, swap in the first c outside the family whose
    swap strictly lowers the value; rescan after each swap, stop when none
    improves or once evals (candidate evaluations, continuing the count
    given) passes cap (inf for no cap) or the deadline.  A deadline passed
    while the start's spread rows are built returns the start family, evals
    unchanged.  Returns (value, chosen indices ascending, evals, stopped),
    the value recounted from the rows of the family returned.  row(j)
    reads the row of pool index j, and P is the pool size.

    Each scan tests every candidate at once.  W packs w[x], x's pairs with
    the family, as field x of b bits, b the least multiple of 8 with
    2^(b-1) > m, so a count plus 2^(b-1) never carries into the next field;
    free holds the top bit of each field outside the family.  G = W -
    spread(a) holds each count once a leaves, and c improves on a when
    G[c] < w[a]: adding 2^(b-1) - w[a] to every field leaves exactly those
    top bits clear.  The lowest such c under free is the first an ascending
    scan would meet.  A scan adds one evaluation per candidate up to and
    including c (all P - m if none improves), and polls the budget at each
    multiple of 4096 evaluations in that range, before that candidate's
    test, so the swaps, the count and a stop are those of a loop over the
    candidates.
    """
    chosen = set(start)
    width = (len(chosen).bit_length() + 8) // 8
    b = 8 * width
    field = (1 << b) - 1
    lift = 1 << (b - 1)
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * P, "little")
    spread = _spreader(row, P, width)
    W = 0
    free = ones << (b - 1)
    stopped = False
    for c in chosen:
        # a spread takes ~0.5 ms at P = 65,536, so poll before each one
        if time.monotonic() > deadline:
            stopped = True
            break
        W += spread(c)
        free ^= lift << c * b
    improved = not stopped
    while improved:
        improved = False
        for a in sorted(chosen):
            lost = W >> a * b & field
            G = W - spread(a)
            hits = ~(G + (lift - lost) * ones) & free
            if hits:
                c = (hits & -hits).bit_length() // b - 1
                scanned = (free & ((1 << c * b) - 1)).bit_count() + 1
            else:
                scanned = P - len(chosen)
            mark = (evals | 0xFFF) + 1
            while mark <= evals + scanned:
                if mark > cap or time.monotonic() > deadline:
                    evals = mark
                    stopped = True
                    break
                mark += 0x1000
            if stopped:
                break
            evals += scanned
            if hits:
                W = G + spread(c)
                free ^= (lift << a * b) | (lift << c * b)
                chosen.remove(a)
                chosen.add(c)
                improved = True
                break
    family = tuple(sorted(chosen))
    return _recount(row, family), family, evals, stopped


def _two_byte_fields(raw: bytes) -> array:
    """The little-endian 2-byte fields of raw as numbers, on a host of either byte order."""
    fields = array("H", raw)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def _top(spec: SearchSpec) -> tuple[int, ...]:
    """The members of the tree's top node: {∅} (pool index 0) or the empty family.

    ∅ meets every set evenly, so in the even class an optimum without it
    keeps its value when its largest member is swapped for ∅, and gets
    lex-smaller: under bnb with m >= 2 the lex-least optimum holds ∅.  The
    top node's first candidate is pool index len(top).
    """
    even = spec.mode == "bnb" and spec.family_class == "even" and spec.family_size >= 2
    return (0,) if even else ()


def _tree(
    pool: Sequence[int],
    row: Callable[[int], int],
    spec: SearchSpec,
    resume: Sequence[int],
    known: _Outcome,
    deadline: float,
    cap: float,
    floor: int,
    nodes: int,
    save: Callable[[tuple[int, ...] | None, _Outcome], None] | None = None,
) -> _Outcome:
    """Depth-first search of the combinations from one top node, improving on known.

    The tree owns the run's incumbent from its first node: it starts as
    known, the outcome known before the tree (the hint's on a fresh run, a
    checkpoint's on a resume), and the tree returns the least (value,
    witness) over known and the leaves it keeps, with known.nodes added to
    its count.  Pruning uses one bound.  It starts at known's value plus one
    while known's witness is lex-greater than the top node's members plus
    resume: that family is still in the part left to search, so a tie met
    first is lex-less and must win.  Otherwise it starts at known's value,
    or inf with no family.  A kept leaf lowers the bound to its value and
    replaces the incumbent unless it ties it with a lex-greater witness.  A
    subtree or candidate is cut when its lower bound reaches the bound.

    The top node is _top's.  Every node visits its children in ascending
    pool index, so entering a node means every subtree left of its path is
    finished: the path, the pool indices chosen below the top node, is a
    sound point to resume from.  A run resumes from the path resume (empty:
    from the top node).  Each node on it skips its children below the
    path's next member, descends into that member with the rest of the
    path, and counts no evaluations: the run that saved the path did.  So
    a resume that runs no hint first polls past the node the path ends at,
    and makes progress whatever its budget.

    Each node carries one packed integer whose field j counts candidate j's
    pairs with the partial family.  Fields are 1 byte wide when m < 256
    and 2 bytes otherwise.  A count is at most m - 1, so it stays below a
    field of all ones, which blocks a twin (below): the twin rule needs an
    even n, where the pool cap keeps m at most 2^15.  Adding member j
    adds spread(j), row j with each bit widened to a field, so a node reads
    all its counts with one to_bytes instead of a popcount per candidate.

    Complement twins (bnb, even class, even n): for even Y, |X^c & Y| and
    |X & Y| have the same parity, and X meets X^c in no point, so X and its
    complement X^c have the same row and the same count.  The map X -> X^c
    reverses the mask order of the pool, so the twin of index j is
    P - 1 - j, and the sets holding point n are the upper half [P/2, P).
    An upper set is admitted only when its twin, the smaller mask and so
    decided earlier, is chosen.  The lex-least optimum obeys this rule: a
    family holding an upper X but not X^c keeps its value when X is swapped
    for X^c, and gets lex-smaller.  A node's start is the index after its
    last member, 0 at the empty family.  Its admitted candidates are the
    lower ones in [start, P/2) and the pending twins: those of chosen
    members, at index >= start, all above the lower ones.  A node carries
    block, every bit of the fields of the upper sets whose twin its path
    passed over, and reads (packed | block) >> start fields once: that
    slice of counts serves the bound, the leaf and the child loop.  It
    holds the lower candidates, then their undecided twins in
    [P/2, P - start), which a later choice may admit, then from P - start
    up the twins of decided sets: the pending twins, and blocked fields of
    all ones, above every count.  So the conflict bound sums the smallest
    counts of the slice, each pending twin once and each lower candidate
    twice, for itself and its twin; dropping the undecided twins would be
    unsound.  The evaluation count and the cut of a node with fewer real
    counts than members to add leave out the blocked fields, counted by
    one count of the all-ones value.  A child from lower j blocks the
    fields of the twins of start..j-1, [P - j, P - start); a child from a
    pending twin keeps block, since its slice starts past every undecided
    twin.  The last member is the first least count of the slice at
    start + counts.index: the lower candidates come first, and a twin of
    one ties its lower set, so a lower candidate wins a tie and an
    undecided twin never wins.  In every other class and mode the lower
    half is the whole pool, nothing is blocked, and the counts are the
    candidates'.

    The conflict bound is read one of two ways, with the same cut.  On
    1-byte counts, where bound - cur <= 2 * need, _reaches walks the count
    values 0, 1, 2, ... with one bytes.count scan each and stops as soon as
    the bound is reached.  It makes about one scan per unit of the mean
    count the bound leaves each member to add, so past 2 sorting the counts
    is cheaper, and sum(sorted(counts)[:need]) decides there, on 2-byte
    counts, and under an infinite bound.

    Lex-leaders (bnb): each node carries the cells of the ground set, the
    classes of points that every chosen member treats alike; at the empty
    family they are the one cell [n], so the first members admitted are
    the prefix sets {1,..,c}.  A lower candidate X is admitted only if it
    holds the lowest points of each cell.  A permutation of the points
    inside the cells fixes each chosen member setwise and keeps the class
    and the value.  If the lex-least optimum continued with an X that
    fails the test, the permutation that moves X's points of each cell to
    the bottom of that cell would send X to a lesser mask and the family
    to a lex-smaller one with the same value.  So the lex-least optimum
    passes the test at every depth.  An admitted X holds a prefix of each
    cell, so it splits each cell into a lower and an upper run, and since
    the first cell [n] is a run, every cell is a run of consecutive
    points.  A node keeps them as one mask, tied: the points in the same
    cell as the point just below them, every point but the lowest at the
    top node ((1 << n) - 2), none outside bnb.  With moved = X ^ X << 1,
    the points that X holds without their predecessor or the reverse, X
    passes the test when X & tied & moved == 0, no point of X lacking its
    cell-predecessor, and its child's mask is tied & ~moved.
    Pending twins are neither tested nor used to split: a twin splits the
    cells as its chosen complement did, so its child keeps tied.  The
    conflict bound still counts every candidate, since one refused here
    may pass deeper, once its cell is split.  At the last level the least
    count is taken over the counts, untested: a leaf the test would refuse
    is still a real family, met in lex order.

    A node adds its candidates, the lower ones and the pending twins,
    counted before the lex-leader test, to the evaluation count
    (nodes_explored, the unit of the cap, inf for none).  The count starts at
    nodes, the evaluations made before the tree (the bnb hint's), so cap
    bounds the two together; a hint of _CHECK_INTERVAL evaluations or more
    has the top node poll the budgets at once.  The search stops once the
    bound is at most floor, a lower bound on every family (_floor's, or -1
    to search every family): a kept leaf has reached the floor, and every
    later leaf is a lex-greater tie at best.  The budget poll is
    the only place a run stops: there save(path, best so far) is called
    when the budgets are spent, and otherwise at most every _SAVE_SECS.
    A search that ends uncut, at the floor stop too, calls save(None, ...).
    """
    P = len(pool)
    m = spec.family_size
    bounding = spec.mode == "bnb"
    twinned = bounding and spec.family_class == "even" and spec.ground_size % 2 == 0
    half = P // 2 if twinned else P
    width = 1 if m < 256 else 2
    bits = 8 * width
    full = (1 << bits) - 1  # a blocked field, above every count
    spread = _spreader(row, P, width)
    top = _top(spec)

    val, wit = known.best_value, known.witness
    if wit is None:
        bound = inf
    else:  # a known family still ahead of the path yields to a tie met first
        bound = val + 1 if wit > top + tuple(resume) else val
    next_check = _CHECK_INTERVAL
    next_save = time.monotonic() + _SAVE_SECS
    aborted = False

    def extend(
        chosen: tuple[int, ...],
        block: int,
        tied: int,
        packed: int,
        cur: int,
        path: tuple[int, ...],
    ) -> None:
        # block: every bit of the fields of the upper sets whose twin the path
        # passed over;
        # tied: the points in the same cell as the point just below them;
        # path: the rest of the resume path below this node, empty off it
        nonlocal nodes, next_check, next_save, bound, val, wit, aborted
        if nodes >= next_check:
            next_check = nodes + _CHECK_INTERVAL
            now = time.monotonic()
            aborted = nodes > cap or now > deadline
            if save is not None and (aborted or now >= next_save):
                next_save = now + _SAVE_SECS
                save(chosen[len(top) :], outcome())
            if aborted:
                return
        start = chosen[-1] + 1 if chosen else 0
        need = m - len(chosen)
        raw = ((packed | block) >> (start * bits)).to_bytes((P - start) * width, "little")
        counts = raw if width == 1 else _two_byte_fields(raw)
        low = half - start if start < half else 0  # lower candidates: [start, half)
        # the lower candidates, and when twinned their undecided twins up to
        # P - start, then the pending twins among the blocked fields
        real = len(counts) - (counts.count(full) if block else 0)
        # a node on the path counted its candidates in the run that saved it
        nodes += 0 if path else (real - low if twinned else real)
        if real < need:
            return
        if need == 1:  # keep the first least leaf, as ascending j would: none is below floor
            w = min(counts)
            if cur + w < bound:
                bound = cur + w
                # never an undecided twin, which ties its lower set
                leaf = chosen + (start + counts.index(w),)
                if wit is None or bound < val or leaf < wit:  # a tie keeps the lex-lesser
                    val, wit = bound, leaf
            return
        if bounding:
            # the walk makes about one scan per unit of the mean count the
            # bound leaves each member to add; past 2, sorting is cheaper
            if width == 1 and bound - cur <= 2 * need:
                if _reaches(counts, cur, need, bound):
                    return
            elif cur + sum(sorted(counts)[:need]) >= bound:
                return
        # on the resume path, the children below path[0] are finished
        first = path[0] if path else start
        for j, w in zip(range(first, min(half, P - need + 1)), counts[first - start :]):
            nv = cur + w
            if bounding and nv >= bound:
                continue
            x = pool[j]
            moved = x ^ x << 1  # the points x holds without their predecessor, or the reverse
            if x & tied & moved:  # a point of x without its cell-predecessor
                continue
            extend(
                chosen + (j,),
                # the child passes over start..j-1: block their twins
                block | ((1 << (j - start) * bits) - 1) << (P - j) * bits if twinned else block,
                tied & ~moved,
                packed + spread(j),
                nv,
                path[1:] if j == first else (),
            )
            if aborted or bound <= floor:  # no later leaf beats the floor
                return
        if twinned:  # the unblocked fields from P - start up are the pending twins
            for t in range(max(first, P - start), P - need + 1):
                w = counts[t - start]
                nv = cur + w
                if w == full or nv >= bound:
                    continue
                # a twin splits the cells as its chosen complement did, and its
                # slice starts past every undecided twin
                extend(chosen + (t,), block, tied, packed + spread(t), nv,
                       path[1:] if t == first else ())
                if aborted or bound <= floor:
                    return

    def outcome() -> _Outcome:
        return _Outcome(val, wit, known.nodes + nodes, aborted)

    # the top node splits no cell: in bnb its one cell is [n], every point
    # but the lowest tied; it blocks nothing, so at even n the twin of ∅,
    # [n] at index P - 1, is pending
    tied = (1 << spec.ground_size) - 2 if bounding else 0
    # extend recurses once per member, and m may reach the pool cap 2^16;
    # CPython >= 3.11 keeps these Python-to-Python calls off the C stack
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + m)
    try:
        extend(top, 0, tied, 0, 0, tuple(resume))
    finally:
        sys.setrecursionlimit(limit)
    if save is not None and not aborted:
        save(None, outcome())
    return outcome()


# The SearchSpec fields that bound or seed a run without changing its
# enumeration space or order: an aborted run may resume under other values.
# Every other field is part of a checkpoint's identity.
_RUN_SETTINGS = ("budget_nodes", "budget_secs", "seed", "restarts")


def _instance_identity(spec: SearchSpec) -> dict:
    """The fields that determine the enumeration space and its order."""
    return {
        name: getattr(spec, name) for name in SearchSpec.__slots__ if name not in _RUN_SETTINGS
    }


def _index_list(x: object, lo: int, hi: int, sizes: range) -> bool:
    """Whether x is a list of increasing ints in [lo, hi) whose length is in sizes."""
    return (
        isinstance(x, list)
        and len(x) in sizes
        and all(type(i) is int for i in x)  # JSON true/false load as bool, a subclass of int
        and all(a < b for a, b in zip(x, x[1:]))
        and (not x or lo <= x[0] and x[-1] < hi)
    )


def _load_checkpoint(
    path: Path, spec: SearchSpec, row: Callable[[int], int]
) -> tuple[list[int] | None, _Outcome]:
    """(resume path, best so far) from a checkpoint, or ([], _NOTHING) if absent.

    The resume path is _tree's: the pool indices chosen below the top node
    at the poll that wrote the file, or None once the search has ended.
    Nothing in the file is trusted: the path must be fewer than m members
    with the top node's, increasing, from the top node's first candidate
    up to P - 1, nodes a count, a witness m increasing pool indices whose
    value, recounted from their rows, is best_value, and the digest must
    match the other fields.  The digest catches hand edits and corruption
    that leave a file self-consistent, such as a path moved past the
    subtrees searched; it does not authenticate a file whose digest was
    recomputed after an edit.  A file without a path, such as one in an
    older format that counted first-level branches or root branches, is
    corrupt.
    """
    if not path.exists():
        return [], _NOTHING
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        instance = data["instance"]
        resume = data["path"]
        nodes = data["nodes"]
        value = data["best_value"]
        witness = data["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt: {exc}") from None
    if instance != _instance_identity(spec):
        raise CheckpointError(f"checkpoint {path} was written for a different instance")
    P, m = spec.pool_size(), spec.family_size
    first = len(_top(spec))  # the top node's first candidate
    problem = None
    if not (resume is None or _index_list(resume, first, P, range(m - first))):
        problem = f"path {resume!r} is not under {m - first} increasing indices in [{first}, {P})"
    elif not (type(nodes) is int and nodes >= 0):
        problem = f"nodes {nodes!r} is not a count"
    elif value is not None or witness is not None:
        if not _index_list(witness, 0, P, range(m, m + 1)):
            problem = f"witness {witness!r} is not {m} increasing pool indices"
        else:
            recount = _recount(row, witness)
            if not (type(value) is int and value == recount):
                problem = f"best_value {value!r} is not its witness's value {recount}"
    if problem is None:
        fields = {key: val for key, val in data.items() if key != "digest"}
        if data.get("digest") != _digest(fields):
            problem = "its digest is missing or does not match its fields"
    if problem is not None:
        raise CheckpointError(f"checkpoint {path} is corrupt: {problem}")
    return resume, _Outcome(value, None if witness is None else tuple(witness), nodes, False)


def _digest(fields: dict) -> str:
    """SHA-256 hex of the fields as sorted-key JSON."""
    import hashlib  # loads OpenSSL, ~3.7 MB of RSS: only checkpointed runs pay it

    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8")).hexdigest()


def _write_checkpoint(path: Path, data: dict) -> None:
    """Replace path atomically, so a crash mid-write leaves the old checkpoint.

    The file holds data plus "digest", the _digest of data.
    """
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({**data, "digest": _digest(data)}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _setup(spec: SearchSpec) -> tuple[float, float, list[int], Callable[[int], int], float]:
    """(start time, deadline, pool, row reader, evaluation cap) of a run.

    budget_secs counts from before the pool.  The cap is budget_nodes, or
    inf when it is None: no cap.

    row(j) is the conflict row of pool[j]: bit i marks (pool[j], pool[i]) as
    a counted pair.  The reader builds no row here, only the element basis
    and, where they pay, the byte tables (setfamily.odd_row_reader).
    """
    start_time = time.monotonic()
    deadline = start_time + spec.budget_secs
    pool = candidate_pool(spec)
    if spec.objective == "op":
        row = odd_row_reader(pool)
    else:
        row = exact_t_row_reader(pool, spec.t)  # type: ignore[arg-type]
    cap = inf if spec.budget_nodes is None else spec.budget_nodes
    return start_time, deadline, pool, row, cap


def _recount(row: Callable[[int], int], chosen: Sequence[int]) -> int:
    """The counted pairs among the pool indices chosen, read off their rows."""
    bits = sum(1 << i for i in chosen)
    return sum((row(i) & bits).bit_count() for i in chosen) // 2


def _result(
    spec: SearchSpec,
    pool: Sequence[int],
    row: Callable[[int], int],
    start_time: float,
    value: int | None = None,
    chosen: Sequence[int] | None = None,
    nodes: int = 0,
    optimal: bool = False,
) -> SearchResult:
    """The SearchResult of a run whose best family is the pool indices chosen, if any.

    A family's value is recounted from the rows first: a mismatch means the
    search misreported it, and raises OracleSoundnessError.
    """
    if chosen is not None:
        recount = _recount(row, chosen)
        if recount != value:
            raise OracleSoundnessError(
                f"search reported value {value} for pool indices {list(chosen)}, "
                f"whose rows count {recount}"
            )
    return SearchResult(
        best_value=value,
        witness=None if chosen is None else SetFamily(spec.ground_size, [pool[i] for i in chosen]),
        optimal=optimal,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start_time,
        spec=spec,
    )


def _minimize_exact(spec: SearchSpec, checkpoint: str | Path | None = None) -> SearchResult:
    P, m = spec.pool_size(), spec.family_size
    if spec.mode == "exhaustive" and comb(P, m) > _EXHAUSTIVE_CAP:
        raise InfeasibleSpecError(
            f"exhaustive enumeration of C({P},{m}) = {comb(P, m)} families exceeds "
            f"the feasibility cap {_EXHAUSTIVE_CAP}; use branch and bound"
        )
    ck_path = None if checkpoint is None else Path(checkpoint)
    if ck_path is not None and not ck_path.parent.is_dir():
        raise CheckpointError(f"checkpoint {ck_path}: directory {ck_path.parent} does not exist")
    start_time, deadline, pool, row, cap = _setup(spec)
    # exhaustive mode enumerates every family: no value is <= -1
    floor = _floor(spec)[0] if spec.mode == "bnb" else -1
    resume, preload = ([], _NOTHING) if ck_path is None else _load_checkpoint(ck_path, spec, row)
    if resume is None:  # the file holds an ended search and its result
        value, chosen, nodes, _ = preload
        return _result(spec, pool, row, start_time, value, chosen, nodes, optimal=True)
    # the hint is the known family of a fresh run, and its evaluations open
    # the run's count; a resumed family already holds the first run's hint
    known, evals = preload, 0
    if spec.mode == "bnb" and preload.witness is None:
        value, chosen, evals, _ = _climb(row, P, range(m), cap, deadline)
        known = _Outcome(value, chosen, preload.nodes, False)

    def save(path: tuple[int, ...] | None, so_far: _Outcome) -> None:
        _write_checkpoint(
            ck_path,  # type: ignore[arg-type]
            {
                "instance": _instance_identity(spec),
                "path": path,  # JSON writes a tuple as a list
                "best_value": so_far.best_value,
                "witness": None if so_far.witness is None else list(so_far.witness),
                "nodes": so_far.nodes,
            },
        )

    value, chosen, nodes, aborted = _tree(
        pool, row, spec, resume, known, deadline, cap, floor, evals,
        save if ck_path is not None else None,
    )
    return _result(spec, pool, row, start_time, value, chosen, nodes, not aborted)


def minimize(spec: SearchSpec, checkpoint: str | Path | None = None) -> SearchResult:
    """Dispatch on spec.mode; exhaustive and bnb are exact, local is heuristic.

    A checkpoint records where an exact search's tree stopped, the path of
    its last budget poll (see _tree), or that the search ended, so a rerun
    returns its result at once.  Local mode, which has no tree, refuses one.
    """
    if spec.mode == "local":
        if checkpoint is not None:
            raise InfeasibleSpecError("checkpoints apply to exact modes only, not mode 'local'")
        return local_search(spec)
    return _minimize_exact(spec, checkpoint)


def local_search(spec: SearchSpec) -> SearchResult:
    """First-improvement hill climbing over single-set swaps, spec.restarts times.

    spec.mode must be "local" (InfeasibleSpecError otherwise), so the result
    never reads as a cut exact run.  Each restart climbs from a family drawn
    with spec.seed, so a fixed seed gives a fixed run.  The restarts share
    the budgets: budget_secs, and budget_nodes when given.  The result is
    an upper-bound incumbent, never a proof, so optimal is always False.  A
    run always returns a family: one whose deadline has passed before its
    first climb returns that climb's start family.
    """
    import random

    if spec.mode != "local":
        raise InfeasibleSpecError(f"local search needs mode 'local', got {spec.mode!r}")
    start_time, deadline, pool, row, cap = _setup(spec)
    rng = random.Random(spec.seed)
    found: list[tuple[int, tuple[int, ...]]] = []
    evals = 0
    for _ in range(spec.restarts):
        start = rng.sample(range(len(pool)), spec.family_size)
        value, chosen, evals, stopped = _climb(row, len(pool), start, cap, deadline, evals)
        found.append((value, chosen))
        if stopped:
            break
    return _result(spec, pool, row, start_time, *min(found), evals)


# ---------------------------------------------------------------------------
# Statement verification


# Each statement's claimed range of s, (least, most) from n and the rule
# bound B (m = B + s); None: no upper end.  Each statement names its class.
_S_RANGES: dict[str, Callable[[int, int], tuple[int, int | None]]] = {
    "thm-even": lambda n, B: (1, 2),
    "thm-odd": lambda n, B: (1, 1),
    "conj-even": lambda n, B: (3, B - (1 << (n // 4))),
    "conj-odd": lambda n, B: (1, B),
    "prob-uniform": lambda n, B: (1, None),
}
_STATEMENTS = tuple(_S_RANGES)
# Each class's claimed least op at m = B + s, from s, B and k
_CLAIMS: dict[str, Callable[[int, int, int | None], int]] = {
    "even": lambda s, B, k: s * B // 2,
    "odd": lambda s, B, k: 3 * s,
    "uniform": lambda s, B, k: 4 if k == 3 else 5,
}
# TheoremReport fields whose JSON key differs from the field name
_REPORT_KEYS = {"proven": "proven_statement", "result": "search"}


class TheoremReport(NamedTuple):
    """Oracle minimum versus a claimed lower bound for one statement instance."""

    statement: str
    n: int
    s: int
    k: int | None
    family_size: int
    claimed_bound: int
    minimum: int | None
    verdict: str
    proven: bool
    result: SearchResult

    def to_json_dict(self) -> dict:
        return {
            _REPORT_KEYS.get(name, name): value.to_json_dict() if name == "result" else value
            for name, value in self._asdict().items()
        }


def verify_theorem(
    statement: str,
    n: int,
    s: int = 1,
    k: int | None = None,
    *,
    mode: str = "bnb",
    budget_nodes: int | None = None,
    budget_secs: float = DEFAULT_TIME_BUDGET,
) -> TheoremReport:
    """Compare the exact class minimum against a statement's claimed bound.

    Statements:
      thm-even      proven: 2^(n/2)+s even sets force s*2^(n/2-1) odd pairs, s in {1,2}
      conj-even     conjectured extension of thm-even to 3 <= s <= 2^(n/2)-2^(n/4)
      thm-odd       proven: n+1 odd sets force 3 odd pairs (s must be 1)
      conj-odd      conjectured: n+s odd sets force 3s odd pairs, 1 <= s <= n
      prob-uniform  conjectured: n+s k-uniform sets (odd k) force 4 odd pairs for
                    k=3 and 5 otherwise

    s outside the statement's claimed range (_S_RANGES) raises ValueError,
    "{statement} claims {lo} <= s <= {hi} at n={n}, got s={s}" (prob-uniform
    has no upper end), and an empty range (conj-even at n <= 5) says
    "{statement} claims no s at n={n} ({lo} <= s <= {hi} is empty)"; the
    claimed bound is the class's entry in _CLAIMS.
    k applies to prob-uniform only: odd, at least 3, 3 when left out.
    A COUNTEREXAMPLE verdict against a proven statement raises
    OracleSoundnessError, because it can only mean the search is wrong.
    A run cut by its budgets is INCONCLUSIVE unless its incumbent is
    already below the bound.  The budgets are SearchSpec's: budget_secs
    (600 s unless given) bounds the run, and budget_nodes caps its
    evaluations only when given.
    """
    if statement not in _STATEMENTS:
        raise ValueError(f"statement must be one of {_STATEMENTS}, got {statement!r}")
    if k is not None and statement != "prob-uniform":
        raise ValueError(f"k only applies to prob-uniform, not {statement}")
    family_class = statement.partition("-")[2]
    spec_k = 3 if k is None and family_class == "uniform" else k
    if family_class == "uniform" and (spec_k < 3 or spec_k % 2 == 0):  # type: ignore[operator]
        raise ValueError(f"prob-uniform needs odd k >= 3, got k={spec_k}")
    rule = _rule_bound(family_class, n, spec_k)
    lo, hi = _S_RANGES[statement](n, rule)
    if hi is not None and hi < lo:
        raise ValueError(f"{statement} claims no s at n={n} ({lo} <= s <= {hi} is empty)")
    if s < lo or (hi is not None and s > hi):
        most = "" if hi is None else f" <= {hi}"
        raise ValueError(f"{statement} claims {lo} <= s{most} at n={n}, got s={s}")
    m = rule + s
    bound = _CLAIMS[family_class](s, rule, spec_k)
    proven = statement.startswith("thm-")

    spec = SearchSpec(
        ground_size=n,
        family_size=m,
        family_class=family_class,
        k=spec_k,
        mode=mode,
        budget_nodes=budget_nodes,
        budget_secs=budget_secs,
    )
    result = minimize(spec)

    if result.best_value is not None and result.best_value < bound:
        verdict = "COUNTEREXAMPLE"
        if proven:
            raise OracleSoundnessError(
                f"{statement} at n={n}, s={s}: search found a family with value "
                f"{result.best_value} below the proven bound {bound}; "
                f"witness {_element_lists(result.witness)}"
            )
    elif not result.optimal:
        verdict = "INCONCLUSIVE"
    elif result.best_value == bound:
        verdict = "TIGHT"
    else:
        verdict = "HOLDS"

    # the fields in TheoremReport's order
    return TheoremReport(
        statement, n, s, spec_k, m, bound, result.best_value, verdict, proven, result
    )
