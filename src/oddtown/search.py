"""Exact and heuristic minimisation of pair-count objectives over set families.

Each pool member carries a bitmask row marking the members it forms a
counted pair with, built by F2 linearity (setfamily.odd_rows for op) or by
bit-sliced counting (setfamily.exact_t_rows for c_kt), never pair by pair.

The exact engine enumerates families as increasing-index combinations over a
mask-sorted candidate pool, so the first optimum found in depth-first order
is the lexicographically least one.  Branch and bound adds three sound
devices on top of plain enumeration, all three always on:

* an incremental objective: extending a partial family costs one AND plus
  one popcount per candidate;
* a conflict bound: a partial family with value v and r more members to add
  reaches at least v plus the sum of the r smallest candidate conflict
  counts against the fixed partial family;
* a deficiency floor: in a class whose rule-abiding families have size at
  most B, every family of size m has at least m - B counted pairs, because
  each member outside a maximal rule-abiding subfamily meets it oddly.  The
  first leaf that reaches the floor is optimal, so the search stops there.

There is one hill climber, _climb: first-improvement single-set swaps over
the rows, bounded by budget_nodes and budget_secs.  local_search runs it once
per restart.  Branch and bound runs it once, from the first m pool members,
before the tree: this hint's value primes pruning, and its family is the
incumbent if the tree is cut before it reaches a leaf.

The tree runs on the calling thread, one root branch (choice of first
member) after another; the root branch is also the unit a checkpoint
records.  Pruning uses one bound: one more than the least value known
before the tree (the hint's or a resumed checkpoint's), then each kept
leaf's value.  A subtree or candidate is cut when its lower bound reaches
the bound, so the tree keeps only strictly better leaves and its first
optimum is the lex-least one.  Every known value is that of a real family,
hence at least the floor, so the bound stays above the floor until the
floor stop ends the search: the floor never needs to raise a lower bound.
The final merge takes the least (value, witness) pair over the tree, the
checkpoint and the hint.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from heapq import nsmallest
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import CheckpointError, InfeasibleSpecError, OracleSoundnessError
from .setfamily import SetFamily, _bit_indices, exact_t_rows, odd_rows

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_TIME_BUDGET = 600.0
# A pool of P sets has P rows of P bits, P^2/8 bytes: at most 2^16 sets
# keeps the rows at 512 MiB.  A larger ground set is refused outright, since
# every class on it but the lone uniform k = n set exceeds the cap.
_POOL_CAP = 1 << 16
_EXHAUSTIVE_CAP = 10**8  # most families exhaustive mode will enumerate
_CHECK_INTERVAL = 1024  # budget polling granularity, in nodes

_CLASSES = ("even", "odd", "uniform")
_OBJECTIVES = ("op", "ckt")
_MODES = ("exhaustive", "bnb", "local")


@dataclass(frozen=True)
class SearchSpec:
    """Instance description: which families to range over and how to search.

    family_class "even" and "odd" range over all subsets of that size
    parity (the empty set counts as even); "uniform" ranges over all
    k-subsets.  objective "op" minimises odd-intersection pairs, "ckt"
    minimises pairs meeting in exactly t elements (uniform class only).
    symmetry None resolves to branch-and-bound even-class instances with
    ground_size >= 6.  mode "bnb" always uses the conflict bound and the
    deficiency floor, "exhaustive" neither.  threads is accepted
    (it must be >= 1) and has no effect: the search always runs on the
    calling thread.  seed and restarts drive local search only.
    """

    ground_size: int
    family_size: int
    family_class: str
    k: int | None = None
    objective: str = "op"
    t: int | None = None
    mode: str = "bnb"
    budget_nodes: int = DEFAULT_NODE_BUDGET
    budget_secs: float = DEFAULT_TIME_BUDGET
    threads: int = 1
    symmetry: bool | None = None
    seed: int = 0
    restarts: int = 1

    def __post_init__(self) -> None:
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
        if self.threads < 1:
            raise InfeasibleSpecError(f"threads must be >= 1, got {self.threads}")
        if self.budget_nodes < 1 or not self.budget_secs > 0:  # NaN fails too
            raise InfeasibleSpecError("budgets must be positive")
        pool = self.pool_size()
        if pool > _POOL_CAP:
            raise InfeasibleSpecError(
                f"the class has {pool} candidate sets, over the cap of {_POOL_CAP} "
                f"(conflict rows take P^2/8 bytes)"
            )
        if self.family_size > pool:
            raise InfeasibleSpecError(
                f"family size {self.family_size} exceeds the {pool} "
                f"candidate sets in the class"
            )

    def pool_size(self) -> int:
        if self.family_class == "uniform":
            return comb(self.ground_size, self.k)  # type: ignore[arg-type]
        if self.ground_size == 1:
            return 1
        return 1 << (self.ground_size - 1)

    def resolved_symmetry(self) -> bool:
        if self.symmetry is not None:
            return self.symmetry
        return (
            self.mode == "bnb"
            and self.family_class == "even"
            and self.ground_size >= 6
        )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    optimal is True only when the instance space was fully covered or
    pruned soundly; local search never sets it.  witness members are in
    ascending mask order and satisfy objective(witness) == best_value.
    """

    best_value: int | None
    witness: SetFamily | None
    optimal: bool
    nodes_explored: int
    elapsed: float
    spec: SearchSpec

    def to_json_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "witness": None
            if self.witness is None
            else [list(m.elements()) for m in self.witness.members],
            "optimal": self.optimal,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": int(self.elapsed * 1000),
            "spec": asdict(self.spec),
        }


def candidate_pool(spec: SearchSpec) -> list[int]:
    """All masks of the instance class, ascending (the lexicographic order)."""
    n = spec.ground_size
    if spec.family_class == "uniform":
        masks = [
            sum(1 << (b - 1) for b in combo)
            for combo in combinations(range(1, n + 1), spec.k)  # type: ignore[arg-type]
        ]
        return sorted(masks)
    want = 0 if spec.family_class == "even" else 1
    return [m for m in range(1 << n) if m.bit_count() & 1 == want]


def _pool_rows(spec: SearchSpec, pool: Sequence[int]) -> list[int]:
    """Bitmask rows of counted pairs: bit j of row i marks (pool[i], pool[j])."""
    if spec.objective == "op":
        return list(odd_rows(pool))
    return list(exact_t_rows(pool, spec.t))  # type: ignore[arg-type]


def _deficiency_floor(spec: SearchSpec) -> int:
    """A lower bound on the objective of every family in the class."""
    if spec.objective != "op":
        return 0
    n, m = spec.ground_size, spec.family_size
    if spec.family_class == "even":
        rule_bound = 1 << (n // 2)
    elif spec.family_class == "odd":
        rule_bound = n
    else:
        rule_bound = n if (spec.k or 0) & 1 else 1 << (n // 2)
    return max(0, m - rule_bound)


def _root_indices(spec: SearchSpec, pool: Sequence[int]) -> list[int]:
    """First-member choices, restricted to orbit representatives when symmetric.

    Relabeling the ground set maps any family to one whose minimum-mask
    member is the prefix set {1,..,c} of the least member cardinality c, so
    restricting the first chosen set to prefix-set masks keeps at least one
    representative of every relabeling class.
    """
    limit = len(pool) - spec.family_size
    idxs = range(limit + 1)
    if not spec.resolved_symmetry():
        return list(idxs)
    reps = set()
    if spec.family_class == "uniform":
        cards = [spec.k]
    elif spec.family_class == "even":
        cards = list(range(0, spec.ground_size + 1, 2))
    else:
        cards = list(range(1, spec.ground_size + 1, 2))
    for c in cards:
        reps.add((1 << c) - 1)
    return [i for i in idxs if pool[i] in reps]


@dataclass
class _Outcome:
    best_value: int | None
    witness: tuple[int, ...] | None  # chosen pool indices
    nodes: int
    aborted: bool


def _climb(
    rows: Sequence[int],
    start: Iterable[int],
    budget_nodes: int,
    deadline: float,
    evals: int = 0,
) -> tuple[int, tuple[int, ...], int, bool]:
    """First-improvement single-set swaps from the pool indices in start.

    For a in ascending order, swap in the first c outside the family whose
    swap strictly lowers the value; rescan after each swap, stop when none
    improves or once evals (candidate evaluations, continuing the count
    given) passes budget_nodes or the deadline.  w[x] counts x's pairs with
    the family.  Returns (value, chosen indices ascending, evals, stopped).
    """
    chosen = set(start)
    bits = 0
    for c in chosen:
        bits |= 1 << c
    w = [(row & bits).bit_count() for row in rows]
    value = sum(w[c] for c in chosen) // 2
    stopped = False
    improved = True
    while improved and not stopped:
        improved = False
        for a in sorted(chosen):
            lost = w[a]
            row_a = rows[a]
            for c in range(len(rows)):
                if c in chosen:
                    continue
                evals += 1
                if evals & 0xFFF == 0 and (evals > budget_nodes or time.monotonic() > deadline):
                    stopped = True
                    break
                if w[c] > lost:
                    continue  # gained >= w[c] - 1 >= lost
                gained = w[c] - (row_a >> c & 1)
                if gained < lost:
                    row_c = rows[c]
                    for x in _bit_indices(row_c & ~row_a):
                        w[x] += 1
                    for x in _bit_indices(row_a & ~row_c):
                        w[x] -= 1
                    chosen.remove(a)
                    chosen.add(c)
                    value += gained - lost
                    improved = True
                    break
            if improved or stopped:
                break
    return value, tuple(sorted(chosen)), evals, stopped


def _tree(
    rows: Sequence[int],
    spec: SearchSpec,
    roots: Sequence[int],
    bound: float,
    deadline: float,
    floor: int,
    root_done: Callable[[int, _Outcome], None] | None = None,
) -> _Outcome:
    """Depth-first search of the combinations under roots, keeping leaves below bound.

    The search stops at the first kept leaf whose value is at most floor.
    root_done(position in roots, best so far) is called after each root
    branch that ran to its end.
    """
    P = len(rows)
    m = spec.family_size
    bounding = spec.mode == "bnb"
    budget_nodes = spec.budget_nodes

    wit: tuple[int, ...] | None = None
    nodes = 0
    next_check = _CHECK_INTERVAL
    aborted = False
    done = False  # floor reached: later branches are lex-greater ties at best

    def extend(chosen: tuple[int, ...], chosen_bits: int, cur: int, start: int) -> None:
        nonlocal nodes, next_check, bound, wit, aborted, done
        if nodes >= next_check:
            next_check = nodes + _CHECK_INTERVAL
            if nodes > budget_nodes or time.monotonic() > deadline:
                aborted = True
                return
        need = m - len(chosen)
        last = P - need
        ws = [(rows[j] & chosen_bits).bit_count() for j in range(start, P)]
        nodes += len(ws)
        if bounding and need > 1 and cur + sum(nsmallest(need, ws)) >= bound:
            return
        for j in range(start, last + 1):
            nv = cur + ws[j - start]
            if bounding and nv >= bound:
                continue
            if need == 1:
                if nv < bound:
                    bound = nv
                    wit = chosen + (j,)
                    if nv <= floor:
                        done = True
                        return
            else:
                extend(chosen + (j,), chosen_bits | (1 << j), nv, j + 1)
                if aborted or done:
                    return

    def outcome() -> _Outcome:
        return _Outcome(None if wit is None else int(bound), wit, nodes, aborted)

    for pos, root in enumerate(roots):
        nodes += 1
        if m == 1:  # every one-member family has value 0
            bound, wit, done = 0, (root,), True
        else:
            extend((root,), 1 << root, 0, root + 1)
        if aborted:
            break
        if root_done is not None:
            root_done(pos, outcome())
        if done:
            break
    return outcome()


def _instance_identity(spec: SearchSpec) -> dict:
    """The fields that determine the enumeration space and its order.

    Budgets may differ between an aborted run and its resume without
    affecting soundness; these may not.
    """
    return {
        "ground_size": spec.ground_size,
        "family_size": spec.family_size,
        "family_class": spec.family_class,
        "k": spec.k,
        "objective": spec.objective,
        "t": spec.t,
        "mode": spec.mode,
        "symmetry": spec.resolved_symmetry(),
    }


def _load_checkpoint(
    path: Path, spec: SearchSpec, rows: Sequence[int], n_roots: int
) -> tuple[int, _Outcome] | None:
    """(completed root count, best so far) from a checkpoint, or None if absent.

    Nothing in the file is trusted: the counts must be in range, a witness
    must be m increasing pool indices whose value, recounted from the rows,
    is best_value, and the digest must match the other fields.  The digest
    catches hand edits and corruption that leave a file self-consistent,
    such as a completed_roots count raised past the branches searched; it
    does not authenticate a file whose digest was recomputed after an edit.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        instance = data["instance"]
        completed = data["completed_roots"]
        nodes = data["nodes"]
        value = data["best_value"]
        witness = data["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt: {exc}") from None
    if instance != _instance_identity(spec):
        raise CheckpointError(f"checkpoint {path} was written for a different instance")

    def is_int(x: object) -> bool:
        return type(x) is int  # JSON true/false load as bool, a subclass of int

    problem = None
    if not (is_int(completed) and 0 <= completed <= n_roots):
        problem = f"completed_roots {completed!r} is not in [0, {n_roots}]"
    elif not (is_int(nodes) and nodes >= 0):
        problem = f"nodes {nodes!r} is not a count"
    elif value is not None or witness is not None:
        if not (
            isinstance(witness, list)
            and len(witness) == spec.family_size
            and all(is_int(i) for i in witness)
            and witness == sorted(set(witness))
            and 0 <= witness[0]
            and witness[-1] < len(rows)
        ):
            problem = f"witness {witness!r} is not {spec.family_size} increasing pool indices"
        else:
            bits = sum(1 << i for i in witness)
            recount = sum((rows[i] & bits).bit_count() for i in witness) // 2
            if not (is_int(value) and value == recount):
                problem = f"best_value {value!r} is not its witness's value {recount}"
    if problem is None:
        fields = {key: val for key, val in data.items() if key != "digest"}
        if data.get("digest") != _digest(fields):
            problem = "its digest is missing or does not match its fields"
    if problem is not None:
        raise CheckpointError(f"checkpoint {path} is corrupt: {problem}")
    return completed, _Outcome(value, None if witness is None else tuple(witness), nodes, False)


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


def _minimize_exact(spec: SearchSpec, checkpoint: str | Path | None = None) -> SearchResult:
    start_time = time.monotonic()
    deadline = start_time + spec.budget_secs
    pool = candidate_pool(spec)
    P = len(pool)
    m = spec.family_size
    if spec.mode == "exhaustive" and comb(P, m) > _EXHAUSTIVE_CAP:
        raise InfeasibleSpecError(
            f"exhaustive enumeration of C({P},{m}) = {comb(P, m)} families exceeds "
            f"the feasibility cap {_EXHAUSTIVE_CAP}; use branch and bound"
        )
    rows = _pool_rows(spec, pool)
    # exhaustive mode enumerates every family: no value is <= -1
    floor = _deficiency_floor(spec) if spec.mode == "bnb" else -1
    roots = _root_indices(spec, pool)
    # the hint primes pruning, and is the incumbent if the tree is cut early
    known: list[_Outcome] = []
    if spec.mode == "bnb":
        value, chosen, _, _ = _climb(rows, range(m), spec.budget_nodes, deadline)
        known.append(_Outcome(value, chosen, 0, False))

    ck_path = Path(checkpoint) if checkpoint is not None else None
    preload: _Outcome | None = None
    skip_roots = 0
    if ck_path is not None:
        loaded = _load_checkpoint(ck_path, spec, rows, len(roots))
        if loaded is not None:
            skip_roots, preload = loaded
            known.append(preload)
    known_best, _ = _merge_best(known)
    bound = float("inf") if known_best is None else known_best + 1

    def on_root_done(pos: int, so_far: _Outcome) -> None:
        best_val, best_wit = _merge_best([so_far] if preload is None else [so_far, preload])
        _write_checkpoint(
            ck_path,  # type: ignore[arg-type]
            {
                "instance": _instance_identity(spec),
                "completed_roots": skip_roots + pos + 1,
                "best_value": best_val,
                "witness": None if best_wit is None else list(best_wit),
                "nodes": (preload.nodes if preload is not None else 0) + so_far.nodes,
            },
        )

    tree = _tree(
        rows, spec, roots[skip_roots:], bound, deadline, floor,
        root_done=on_root_done if ck_path is not None else None,
    )
    best_val, best_wit = _merge_best([tree, *known])
    witness_family = (
        None
        if best_wit is None
        else SetFamily.from_masks(spec.ground_size, [pool[i] for i in best_wit])
    )
    return SearchResult(
        best_value=best_val,
        witness=witness_family,
        optimal=not tree.aborted,
        nodes_explored=tree.nodes + sum(o.nodes for o in known),
        elapsed=time.monotonic() - start_time,
        spec=spec,
    )


def _merge_best(
    outcomes: Sequence[_Outcome],
) -> tuple[int | None, tuple[int, ...] | None]:
    """The least (value, witness) pair; an outcome has both or neither."""
    found = [(o.best_value, o.witness) for o in outcomes if o.best_value is not None]
    return min(found, default=(None, None))  # type: ignore[return-value]


def minimize(spec: SearchSpec, checkpoint: str | Path | None = None) -> SearchResult:
    """Dispatch on spec.mode; exhaustive and bnb are exact, local is heuristic."""
    if spec.mode == "local":
        return local_search(spec)
    return _minimize_exact(spec, checkpoint)


def local_search(spec: SearchSpec, initial: SetFamily | None = None) -> SearchResult:
    """First-improvement hill climbing over single-set swaps, spec.restarts times.

    Deterministic for a fixed spec.seed; restart 0 starts from `initial` when
    given, later restarts from seeded random families.  The result is an
    upper-bound incumbent, never a proof, so optimal is always False.
    """
    import random

    start_time = time.monotonic()
    deadline = start_time + spec.budget_secs
    pool = candidate_pool(spec)
    index_of = {mask: i for i, mask in enumerate(pool)}
    m = spec.family_size
    rows = _pool_rows(spec, pool)
    rng = random.Random(spec.seed)

    best: tuple[int, tuple[int, ...]] | None = None
    evals = 0
    stopped = False
    for r in range(spec.restarts):
        if stopped:
            break
        if r == 0 and initial is not None:
            if len(initial) != m:
                raise ValueError(f"initial family has {len(initial)} members, spec wants {m}")
            try:
                start = [index_of[mask] for mask in initial.masks()]
            except KeyError as exc:
                raise ValueError(f"initial member {exc} is not in the instance class") from None
        else:
            start = rng.sample(range(len(pool)), m)
        value, chosen, evals, stopped = _climb(
            rows, start, spec.budget_nodes, deadline, evals
        )
        if best is None or (value, chosen) < best:
            best = (value, chosen)

    return SearchResult(
        best_value=None if best is None else best[0],
        witness=None
        if best is None
        else SetFamily.from_masks(spec.ground_size, [pool[i] for i in best[1]]),
        optimal=False,
        nodes_explored=evals,
        elapsed=time.monotonic() - start_time,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Statement verification


_STATEMENTS = ("thm-even", "thm-odd", "conj-even", "conj-odd", "prob-uniform")
_VERDICTS = ("HOLDS", "TIGHT", "COUNTEREXAMPLE", "INCONCLUSIVE")


@dataclass(frozen=True)
class TheoremReport:
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
            "statement": self.statement,
            "n": self.n,
            "s": self.s,
            "k": self.k,
            "family_size": self.family_size,
            "claimed_bound": self.claimed_bound,
            "minimum": self.minimum,
            "verdict": self.verdict,
            "proven_statement": self.proven,
            "search": self.result.to_json_dict(),
        }


def verify_theorem(
    statement: str,
    n: int,
    s: int = 1,
    k: int | None = None,
    *,
    mode: str = "bnb",
    threads: int = 1,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    budget_secs: float = DEFAULT_TIME_BUDGET,
    symmetry: bool | None = None,
) -> TheoremReport:
    """Compare the exact class minimum against a statement's claimed bound.

    Statements:
      thm-even      proven: 2^(n/2)+s even sets force s*2^(n/2-1) odd pairs, s in {1,2}
      conj-even     conjectured extension of thm-even to 3 <= s <= 2^(n/2)-2^(n/4)
      thm-odd       proven: n+1 odd sets force 3 odd pairs (s must be 1)
      conj-odd      conjectured: n+s odd sets force 3s odd pairs, 1 <= s <= n
      prob-uniform  conjectured: n+s k-uniform sets (odd k) force 4 odd pairs for
                    k=3 and 5 otherwise

    A COUNTEREXAMPLE verdict against a proven statement raises
    OracleSoundnessError, because it can only mean the search is wrong.
    threads is passed to SearchSpec, where it has no effect.
    """
    if statement not in _STATEMENTS:
        raise ValueError(f"statement must be one of {_STATEMENTS}, got {statement!r}")
    half = n // 2
    family_class = "even"
    spec_k: int | None = None
    if statement == "thm-even":
        if s not in (1, 2):
            raise ValueError(f"thm-even is proven for s in {{1, 2}}, got s={s}")
        m = (1 << half) + s
        bound = s * (1 << (half - 1)) if half >= 1 else s
        proven = True
    elif statement == "conj-even":
        hi = (1 << half) - (1 << (n // 4))
        if not 3 <= s <= hi:
            raise ValueError(f"conj-even claims 3 <= s <= {hi} at n={n}, got s={s}")
        m = (1 << half) + s
        bound = s * (1 << (half - 1))
        proven = False
    elif statement == "thm-odd":
        if s != 1:
            raise ValueError(f"thm-odd is the s=1 statement, got s={s}")
        family_class = "odd"
        m = n + 1
        bound = 3
        proven = True
    elif statement == "conj-odd":
        if not 1 <= s <= n:
            raise ValueError(f"conj-odd claims 1 <= s <= {n}, got s={s}")
        family_class = "odd"
        m = n + s
        bound = 3 * s
        proven = False
    else:  # prob-uniform
        spec_k = 3 if k is None else k
        if spec_k < 3 or spec_k % 2 == 0:
            raise ValueError(f"prob-uniform needs odd k >= 3, got k={spec_k}")
        if s < 1:
            raise ValueError(f"need s >= 1, got s={s}")
        family_class = "uniform"
        m = n + s
        bound = 4 if spec_k == 3 else 5
        proven = False

    spec = SearchSpec(
        ground_size=n,
        family_size=m,
        family_class=family_class,
        k=spec_k,
        mode=mode,
        threads=threads,
        budget_nodes=budget_nodes,
        budget_secs=budget_secs,
        symmetry=symmetry,
    )
    result = minimize(spec)

    if result.best_value is not None and result.best_value < bound:
        verdict = "COUNTEREXAMPLE"
        if proven:
            raise OracleSoundnessError(
                f"{statement} at n={n}, s={s}: search found a family with value "
                f"{result.best_value} below the proven bound {bound}; "
                f"witness {[list(m.elements()) for m in result.witness.members]}"  # type: ignore[union-attr]
            )
    elif not result.optimal:
        verdict = "INCONCLUSIVE"
    elif result.best_value == bound:
        verdict = "TIGHT"
    else:
        verdict = "HOLDS"

    return TheoremReport(
        statement=statement,
        n=n,
        s=s,
        k=spec_k,
        family_size=m,
        claimed_bound=bound,
        minimum=result.best_value,
        verdict=verdict,
        proven=proven,
        result=result,
    )
