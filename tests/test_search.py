"""Exact search engine: oracle agreement, determinism, budgets, statements."""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import threading
import time
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oddtown as ot
from oddtown import CheckpointError, InfeasibleSpecError, OracleSoundnessError, SearchSpec, search
from oddtown.cli import main as cli_main
from oddtown.search import candidate_pool, local_search, minimize, verify_theorem

from oracles import (
    all_optima_brute,
    climb_reference,
    lex_leader,
    min_objective_brute,
    op_sets,
    pairs_exact_t,
    split,
    to_sets,
)


def pool_sets(n: int, family_class: str, k: int | None = None) -> list[frozenset[int]]:
    """The candidate pool as frozensets, in ascending mask order, pure Python."""
    out = []
    for mask in range(1 << n):
        members = frozenset(i + 1 for i in range(n) if (mask >> i) & 1)
        if family_class == "even" and len(members) % 2 == 0:
            out.append(members)
        elif family_class == "odd" and len(members) % 2 == 1:
            out.append(members)
        elif family_class == "uniform" and len(members) == k:
            out.append(members)
    if family_class == "uniform":
        out.sort(key=lambda s: sum(1 << (e - 1) for e in s))
    return out


def witness_sets(result) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(m.elements()) for m in result.witness.members)


EXACT_INSTANCES = [
    # (spec kwargs, expected minimum)
    (dict(ground_size=3, family_size=4, family_class="odd"), 3),
    (dict(ground_size=4, family_size=5, family_class="even"), 2),
    (dict(ground_size=4, family_size=6, family_class="even"), 4),
    (dict(ground_size=4, family_size=5, family_class="odd"), 3),
    (dict(ground_size=4, family_size=6, family_class="odd"), 6),
    (dict(ground_size=4, family_size=7, family_class="odd"), 9),
    (dict(ground_size=5, family_size=6, family_class="odd"), 3),
    (dict(ground_size=5, family_size=7, family_class="odd"), 6),
    (dict(ground_size=5, family_size=5, family_class="even"), 2),
    (dict(ground_size=5, family_size=6, family_class="uniform", k=3), 3),
    (dict(ground_size=5, family_size=5, family_class="uniform", k=4, objective="ckt", t=2), 0),
]


def brute(kw):
    pool = pool_sets(kw["ground_size"], kw["family_class"], kw.get("k"))
    if kw.get("objective") == "ckt":
        objective = lambda fam: pairs_exact_t(fam, kw["t"])
    else:
        objective = op_sets
    return min_objective_brute(pool, kw["family_size"], objective)


class TestExactMinima:
    @pytest.mark.parametrize("kw,expected", EXACT_INSTANCES)
    def test_value_and_witness_match_brute_oracle(self, kw, expected):
        oracle_value, oracle_witness = brute(kw)
        assert oracle_value == expected
        result = minimize(SearchSpec(mode="exhaustive", **kw))
        assert result.optimal
        assert result.best_value == expected
        assert witness_sets(result) == oracle_witness

    @pytest.mark.parametrize("kw,expected", EXACT_INSTANCES)
    def test_bnb_equals_exhaustive(self, kw, expected):
        plain = minimize(SearchSpec(mode="exhaustive", **kw))
        bnb = minimize(SearchSpec(mode="bnb", **kw))
        assert bnb.optimal
        assert bnb.best_value == plain.best_value == expected
        assert bnb.witness == plain.witness

    def test_witness_value_consistency(self):
        for kw, _ in EXACT_INSTANCES:
            result = minimize(SearchSpec(mode="bnb", **kw))
            if kw.get("objective") == "ckt":
                assert ot.c_kt(result.witness, kw["t"]) == result.best_value
            else:
                assert ot.op_count(result.witness) == result.best_value

    def test_uniform_level_minimum_has_x5_among_optima(self):
        # the six-triple, three-odd-pair family is optimal in its class
        pool = pool_sets(5, "uniform", 3)
        value, optima = all_optima_brute(pool, 6, op_sets)
        assert value == 3
        x5 = frozenset(frozenset(m.elements()) for m in ot.example_x5().members)
        assert x5 in {frozenset(fam) for fam in optima}

    def test_ckt_data_point_n6(self):
        kw = dict(ground_size=6, family_size=9, family_class="uniform", k=4, objective="ckt", t=2)
        oracle_value, _ = brute(kw)
        result = minimize(SearchSpec(mode="exhaustive", **kw))
        assert result.best_value == oracle_value == 12

    def test_constructions_are_never_beaten(self):
        # minima are lower bounds for same-shape constructions
        even = minimize(
            SearchSpec(ground_size=4, family_size=5, family_class="even", mode="bnb")
        )
        assert even.best_value <= ot.op_count(ot.eventown_plus(4, 1))
        odd = minimize(
            SearchSpec(ground_size=4, family_size=5, family_class="odd", mode="bnb")
        )
        assert odd.best_value <= ot.op_count(ot.oddtown_plus(4, 1))


# (mode, spec kwargs) -> (best_value, nodes_explored): the run's work, which
# any change to the tree's pruning or expansion order moves.  Under bnb it is
# the hint climb's evaluations plus the tree's.  Each tree node adds its
# candidates, the top node too: the empty family adds all P pool sets
NODE_COUNT_PINS = [
    ("bnb", dict(ground_size=6, family_size=9, family_class="even"), (4, 957)),
    ("bnb", dict(ground_size=5, family_size=7, family_class="odd"), (6, 1_404)),
    # the (6, 7) table entry gives the averaging floor ceil(3*56/42) = 4, the
    # optimum, so the search stops at its first optimal leaf
    ("bnb", dict(ground_size=6, family_size=8, family_class="odd"), (4, 3_174)),
    ("bnb", dict(ground_size=6, family_size=9, family_class="uniform", k=4, objective="ckt", t=2),
     (12, 539)),
    # the first leaf reaches the floor 0 and stops the search; in the last two,
    # later first-level branches would add nodes had it not stopped
    ("bnb", dict(ground_size=5, family_size=5, family_class="uniform", k=4, objective="ckt", t=2),
     (0, 15)),
    ("bnb", dict(ground_size=6, family_size=5, family_class="uniform", k=4, objective="ckt", t=2),
     (0, 115)),
    ("bnb", dict(ground_size=5, family_size=5, family_class="odd"), (0, 151)),
    ("exhaustive", dict(ground_size=5, family_size=7, family_class="odd"), (6, 23_815)),
    ("exhaustive",
     dict(ground_size=6, family_size=9, family_class="uniform", k=4, objective="ckt", t=2),
     (12, 17_874)),
    # complement twins cut the tree's 57 evaluations (below the top node {∅})
    # to 29, and the lex-leader test to 23; the hint adds 9
    ("bnb", dict(ground_size=4, family_size=7, family_class="even"), (8, 32)),
    # odd n, so no twin rule: below the top node {∅} the lex-leader test
    # does all the cutting (4,733,203 tree evaluations without it)
    ("bnb", dict(ground_size=7, family_size=9, family_class="even"), (4, 37_503)),
    # even n=6 m = 10…14 (m=9 opens the list): the twin rule's tree below n=8
    ("bnb", dict(ground_size=6, family_size=10, family_class="even"), (8, 3_697)),
    ("bnb", dict(ground_size=6, family_size=11, family_class="even"), (12, 8_495)),
    ("bnb", dict(ground_size=6, family_size=12, family_class="even"), (16, 18_822)),
    ("bnb", dict(ground_size=6, family_size=13, family_class="even"), (20, 25_218)),
    ("bnb", dict(ground_size=6, family_size=14, family_class="even"), (24, 31_284)),
]


@pytest.mark.parametrize("mode,kw,expected", NODE_COUNT_PINS)
def test_node_counts_are_pinned(mode, kw, expected):
    result = minimize(SearchSpec(mode=mode, **kw))
    assert result.optimal
    assert (result.best_value, result.nodes_explored) == expected


def test_node_count_without_the_table(monkeypatch):
    # an empty table leaves the deficiency floor 2, below the optimum, so the
    # whole tree runs
    monkeypatch.setattr(search, "_CERTIFIED_MINIMA", {})
    result = minimize(SearchSpec(ground_size=6, family_size=8, family_class="odd"))
    assert result.optimal
    assert (result.best_value, result.nodes_explored) == (4, 10_242)


@pytest.mark.parametrize("mode,kw,expected", NODE_COUNT_PINS)
def test_spreads_rebuilt_past_the_memo_cap(monkeypatch, mode, kw, expected):
    # a cap of 0 bytes stores no spread, so every child rebuilds its own
    kept = minimize(SearchSpec(mode=mode, **kw))
    monkeypatch.setattr(search, "_SPREAD_BYTES", 0)
    rebuilt = minimize(SearchSpec(mode=mode, **kw))
    assert (rebuilt.best_value, rebuilt.witness, rebuilt.nodes_explored) == (
        kept.best_value, kept.witness, kept.nodes_explored
    )
    assert (rebuilt.best_value, rebuilt.nodes_explored) == expected


@pytest.mark.parametrize(
    "mode,nodes", [("bnb", 33_927), ("exhaustive", 2_895_878)], ids=["bnb", "exhaustive"]
)
def test_counts_past_one_byte(mode, nodes):
    # 258 of the 259 sets of size 258 over [259]: every pair meets in 257
    # points, so every pair is odd and a candidate's count reaches 257.  The
    # uniform class has one prefix set, so bnb's top node admits only the
    # first pool set, and below it the lex-leader test admits one candidate
    # a node: the set missing the highest point of the one cell left
    spec = SearchSpec(
        ground_size=259, family_size=258, family_class="uniform", k=258, mode=mode
    )
    result = minimize(spec)
    assert (result.best_value, result.nodes_explored, result.optimal) == (
        33153, nodes, True
    )
    assert result.best_value == comb(258, 2)


def test_twinned_counts_past_one_byte():
    # 511 of the 512 even sets over [10]: counts take 2 bytes, and the twin
    # rule (even class, even n) leaves pending twins and blocked fields of
    # 0xFFFF at most nodes, so the leaf and the bound read those twins'
    # 2-byte counts beside the blocked fields
    spec = dict(ground_size=10, family_size=511, family_class="even")
    bnb = minimize(SearchSpec(**spec))
    plain = minimize(SearchSpec(mode="exhaustive", **spec))
    assert (bnb.best_value, bnb.nodes_explored, bnb.optimal) == (65_024, 2_926_214, True)
    assert plain.optimal
    assert (plain.best_value, plain.witness) == (bnb.best_value, bnb.witness)


@pytest.mark.parametrize(
    "m,value,nodes,digest",
    [(255, 15_120, 5_000_437, "951bdf8de8fcd6c0"), (256, 15_256, 5_000_719, "15fefc7158ffc636")],
)
def test_twinned_counts_at_the_one_byte_edge(m, value, nodes, digest):
    # counts take 1 byte up to m = 255, where a count reaches at most 254,
    # below a blocked field's 0xFF; at m = 256 a count may reach 255, so they
    # take 2.  Both runs are cut by the budget, so the pin is the tree's
    # incumbent and its evaluations; the digest pins the witness's masks
    spec = SearchSpec(ground_size=10, family_size=m, family_class="even", budget_nodes=5_000_000)
    result = minimize(spec)
    masks = result.witness.masks
    assert (result.best_value, result.nodes_explored, result.optimal) == (value, nodes, False)
    assert hashlib.sha256(repr(masks).encode()).hexdigest()[:16] == digest
    assert ot.op_count(result.witness) == value


@settings(deadline=None)
@given(
    counts=st.one_of(
        st.binary(max_size=300), st.lists(st.integers(0, 7), max_size=300).map(bytes)
    ),
    blocked=st.lists(st.integers(0, 300), max_size=40),
    cur=st.integers(0, 40),
    slack=st.integers(-4, 4),
)
@example(counts=bytes(range(256)) + bytes(44), blocked=[], cur=0, slack=0)
@example(counts=bytes(range(8)) * 4, blocked=[0, 3, 3, 17, 300], cur=2, slack=0)
def test_the_walk_cuts_where_sorting_does(counts, blocked, cur, slack):
    # a node is cut when it has fewer real counts than members to add, or
    # else when cur plus its need smallest real counts reaches the bound.  A
    # blocked field is all ones, 0xFF on 1-byte counts (every 0xFF here, and
    # one more at each position in blocked) and 0xFFFF on 2-byte ones, above
    # every real count.  The walk on 1-byte counts and the sorted sum on
    # both widths must decide on the real counts alone at every need, under
    # a bound near that sum (both sides of it) and under no bound at all
    counts = bytearray(counts)
    for i in blocked:
        counts[i:i] = b"\xff"
    counts = bytes(counts)
    real = sorted(c for c in counts if c != 0xFF)
    # 2-byte counts stay below 2^15, since m <= 2^15 in the twinned tree
    wide = search._two_byte_fields(
        b"".join((0xFFFF if c == 0xFF else 129 * c).to_bytes(2, "little") for c in counts)
    )
    for need in range(1, len(real) + 2):
        for fields, scale in ((counts, 1), (wide, 129)):
            exact = cur + scale * sum(real[:need])
            for bound in (exact + slack, float("inf")):
                cut = len(real) < need or exact >= bound
                sorted_sum = cur + sum(sorted(fields)[:need])
                assert (len(real) < need or sorted_sum >= bound) == cut, (need, bound)
                if scale == 1:
                    walked = len(real) < need or search._reaches(fields, cur, need, bound)
                    assert walked == cut, (need, bound)


def test_the_hint_counts_in_the_run(monkeypatch, tmp_path):
    # nodes_explored and a checkpoint's nodes are the hint climb's evaluations
    # plus the tree's.  A climb whose count is dropped leaves the tree's alone:
    # with no budget binding, the tree runs the same either way
    climb = search._climb
    hints = []

    def counted(*args):
        out = climb(*args)
        hints.append(out[2])
        return out

    def uncounted(*args):
        value, chosen, _, stopped = climb(*args)
        return value, chosen, 0, stopped

    def run(spec, checkpoint=None, climber=counted):
        monkeypatch.setattr(search, "_climb", climber)
        hints.clear()
        return minimize(spec, checkpoint=checkpoint)

    spec = SearchSpec(ground_size=7, family_size=9, family_class="even")
    tree = run(spec, climber=uncounted).nodes_explored
    assert run(spec).nodes_explored == hints[0] + tree == 1_127 + 36_376

    # the checkpoint's count holds the hint's; its family holds the hint's
    # too, so a resume runs no hint and adds the tree's count alone
    kw = dict(ground_size=8, family_size=17, family_class="even")
    path = tmp_path / "run.ckpt"
    cut = run(SearchSpec(budget_nodes=137_892, **kw), path)
    assert not cut.optimal
    before = json.loads(path.read_text(encoding="utf-8"))["nodes"]
    assert before == cut.nodes_explored > hints[0] == 7_892
    grow, trees = search._tree, []

    def tree_counted(pool, rows, spec, resume, known, deadline, floor, nodes, save=None):
        out = grow(pool, rows, spec, resume, known, deadline, floor, nodes, save)
        trees.append((known.nodes, nodes, out.nodes))
        return out

    monkeypatch.setattr(search, "_tree", tree_counted)
    resumed = run(SearchSpec(**kw), path)
    assert resumed.optimal
    assert hints == []
    # the tree gets the file's count with its family and continues from it
    assert trees == [(before, 0, resumed.nodes_explored)]
    assert resumed.nodes_explored > before

    # the hint spends the whole budget, so the tree stops at its first poll
    cut = run(SearchSpec(budget_nodes=2_000, **kw))
    assert not cut.optimal
    assert cut.nodes_explored == hints[0] == 4_096


def _entry_spec(key: tuple) -> SearchSpec:
    family_class, objective, k, t, n, m = key
    return SearchSpec(
        ground_size=n, family_size=m, family_class=family_class, k=k, objective=objective, t=t
    )


class TestCertifiedMinima:
    @pytest.mark.parametrize(
        "key,value",
        list(search._CERTIFIED_MINIMA.items()),
        ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else str(x),
    )
    def test_entry_is_recomputed(self, monkeypatch, key, value):
        # each entry stands on its own search, with no table floor under it
        monkeypatch.setattr(search, "_CERTIFIED_MINIMA", {})
        result = minimize(_entry_spec(key))
        assert result.optimal
        assert result.best_value == value

    def test_no_entry_certifies_itself(self):
        # the floor of an entry's own class stays below its value, so no
        # entry, nor one of equal or larger size, feeds its own search
        for key, value in search._CERTIFIED_MINIMA.items():
            floor, entry = search._floor(_entry_spec(key))
            assert floor < value, key
            assert entry is None or entry[0] < key[-1], key

    def test_averaging_floor_values(self):
        # ceil(3 * m(m-1) / 72) from the n=8, m=9 entry, against m - 8
        spec = lambda m: SearchSpec(ground_size=8, family_size=m, family_class="odd")
        assert [search._floor(spec(m)) for m in (9, 10, 11, 12, 13)] == [
            (1, None), (4, (9, 3)), (5, (9, 3)), (6, (9, 3)), (7, (9, 3))
        ]
        # no entry of another class, objective or ground size applies
        assert search._floor(SearchSpec(ground_size=8, family_size=17, family_class="even")) == (1, None)
        # the n=9, m=10 entry: ceil(3 * 11*10 / (10*9)) = 4, against 11 - 9
        assert search._floor(SearchSpec(ground_size=9, family_size=11, family_class="odd")) == (4, (10, 3))

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(4, 8) for m in range(n + 1, n + 4)]
    )
    def test_table_keeps_value_and_witness(self, monkeypatch, n, m):
        # the floor is only a leaf stop, so the table may cut nodes but never
        # change the value or the lex-least witness
        spec = SearchSpec(ground_size=n, family_size=m, family_class="odd")
        with_table = minimize(spec)
        monkeypatch.setattr(search, "_CERTIFIED_MINIMA", {})
        without = minimize(spec)
        assert with_table.optimal and without.optimal
        assert (with_table.best_value, with_table.witness) == (without.best_value, without.witness)
        assert op_sets(witness_sets(with_table)) == with_table.best_value
        # plain enumeration of C(32, 9) = 28,048,800 families at (6, 9) took
        # ~20 s; LEX_LEADER_PINS odd-6-9 pins the value and witness it gave
        if comb(spec.pool_size(), m) <= 2 * 10**7:
            plain = minimize(
                SearchSpec(ground_size=n, family_size=m, family_class="odd", mode="exhaustive")
            )
            assert (plain.best_value, plain.witness) == (with_table.best_value, with_table.witness)


# even class, n = 6: (m, minimum, lex-least witness masks)
EVEN_N6_MINIMA = [
    (7, 0, (0, 3, 12, 15, 48, 51, 60)),
    (8, 0, (0, 3, 12, 15, 48, 51, 60, 63)),
    (9, 4, (0, 3, 5, 10, 15, 48, 53, 58, 63)),
    (10, 8, (0, 3, 5, 10, 12, 15, 48, 51, 60, 63)),
    (11, 12, (0, 3, 5, 6, 15, 23, 40, 48, 57, 58, 63)),
    (12, 16, (0, 3, 5, 6, 15, 23, 24, 39, 40, 57, 58, 63)),
    (13, 20, (0, 3, 5, 6, 15, 23, 24, 39, 40, 48, 57, 58, 63)),
    (14, 24, (0, 3, 5, 6, 15, 23, 24, 39, 40, 48, 57, 58, 60, 63)),
    (15, 32, (0, 3, 5, 6, 9, 15, 18, 23, 40, 45, 48, 54, 57, 58, 63)),
    (16, 40, (0, 3, 5, 6, 9, 10, 15, 20, 23, 40, 43, 48, 53, 58, 60, 63)),
]

# (spec kwargs, minimum, lex-least witness masks): what branch and bound gave
# before the lex-leader test, at sizes too large to check against exhaustive mode
LEX_LEADER_PINS = [
    (dict(ground_size=6, family_size=7, family_class="odd"), 3, (1, 2, 4, 7, 8, 16, 32)),
    (dict(ground_size=6, family_size=8, family_class="odd"), 4, (1, 2, 4, 8, 49, 50, 52, 56)),
    (dict(ground_size=6, family_size=9, family_class="odd"), 8,
     (1, 2, 4, 8, 16, 35, 37, 41, 49)),
    (dict(ground_size=6, family_size=10, family_class="odd"), 12,
     (1, 2, 4, 7, 8, 11, 13, 14, 16, 32)),
    (dict(ground_size=6, family_size=11, family_class="odd"), 15,
     (1, 2, 4, 8, 16, 35, 37, 38, 41, 42, 44)),
    (dict(ground_size=6, family_size=12, family_class="odd"), 20,
     (1, 2, 4, 8, 16, 31, 35, 37, 38, 41, 42, 44)),
    (dict(ground_size=7, family_size=8, family_class="uniform", k=3), 9,
     (7, 11, 13, 14, 19, 21, 22, 25)),
    (dict(ground_size=7, family_size=9, family_class="uniform", k=3), 12,
     (7, 11, 13, 14, 19, 21, 22, 25, 26)),
    (dict(ground_size=7, family_size=10, family_class="uniform", k=3), 15,
     (7, 11, 13, 14, 19, 21, 22, 25, 26, 28)),
    (dict(ground_size=7, family_size=11, family_class="uniform", k=3), 21,
     (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35)),
    (dict(ground_size=7, family_size=9, family_class="even"), 4,
     (0, 3, 5, 10, 15, 48, 53, 58, 63)),
]


def _lex_leader_path(masks, n):
    """Whether each member of an ascending family passes the reference
    lex-leader test against the cells of the members before it."""
    cells = ((1 << n) - 1,)
    for x in masks:
        if not lex_leader(x, cells):
            return False
        cells = split(x, cells)
    return True


def _tied(cells):
    """The tree's one mask for cells that are runs of consecutive points:
    each point in the same cell as the point just below it."""
    tied = 0
    for c in cells:
        tied |= c & c << 1
    return tied


def _admits(x, tied):
    """The tree's lex-leader test: no point of x lacks its cell-predecessor."""
    return x & tied & ~(x << 1) == 0


class TestLexLeader:
    def test_cell_test_by_hand(self):
        # each case on the reference cells and on the tree's one mask
        cases = [
            (0b0000, (0b1111,), True),
            (0b0011, (0b1111,), True),
            (0b1111, (0b1111,), True),
            (0b0101, (0b1111,), False),  # holds point 3 without point 2
            (0b1000, (0b1111,), False),
            (0b10000, (0b1111,), True),  # points outside every cell are free
            (0b0101, (0b0011, 0b1100), True),
            (0b0111, (0b0011, 0b1100), True),
            (0b0110, (0b0011, 0b1100), False),  # point 2 without point 1
            (0b1001, (0b0011, 0b1100), False),  # point 4 without point 3
            (0b1010_0000, (), True),
        ]
        for x, cells, admitted in cases:
            assert lex_leader(x, cells) == admitted, (x, cells)
            assert _admits(x, _tied(cells)) == admitted, (x, cells)
        assert (_tied((0b1111,)), _tied((0b0011, 0b1100)), _tied(())) == (0b1110, 0b1010, 0)

    def test_refinement_by_hand(self):
        assert split(0b0011, (0b1111,)) == (0b0011, 0b1100)
        assert split(0b0000, (0b1111,)) == (0b1111,)
        assert split(0b1111, (0b1111,)) == (0b1111,)
        # parts of one point are dropped
        assert split(0b0001, (0b0111,)) == (0b0110,)
        assert split(0b0101, (0b0011, 0b1100)) == ()
        assert split(0b0_0111, (0b1_1111, 0b110_0000)) == (0b0_0111, 0b1_1000, 0b110_0000)
        # a set and its complement split the cells alike, in another order
        cells = (0b0_1111, 0b1_0000)
        assert split(0b1_0110, cells) == (0b0110, 0b1001)
        assert split(0b0_1001, cells) == (0b1001, 0b0110)
        # the tree's split of a run by an admitted prefix: tied & ~(x ^ x << 1)
        assert 0b1110 & ~(0b0011 ^ 0b0011 << 1) == _tied((0b0011, 0b1100)) == 0b1010
        # test and split along a family: {2} first fails against the ground
        # set; after {1}, the cell {2, 3} admits {2} but not {3}
        assert not _lex_leader_path((0b010,), 3)
        assert _lex_leader_path((0b001, 0b010, 0b100), 3)
        assert not _lex_leader_path((0b001, 0b100), 3)

    def test_prefix_sets_are_the_lex_leaders_of_the_ground_set(self):
        # the top node's one cell [n] is the mask of every point but the lowest
        for n in range(1, 8):
            ground, top = (1 << n) - 1, (1 << n) - 2
            assert _tied((ground,)) == top
            for x in range(1 << n):
                prefix = x & (x + 1) == 0
                assert lex_leader(x, (ground,)) == _admits(x, top) == prefix, (n, x)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cells_are_runs_so_one_mask_holds_them(self, n):
        # every ascending sequence of admitted members, to depth 3, from the
        # one cell [n]: each reference cell is a run of consecutive points
        # (adding its lowest bit clears it), the mask admits exactly what the
        # reference admits, and the child's mask tied & ~(x ^ x << 1) is
        # that of the reference's split cells
        nodes = 0
        stack = [((), ((1 << n) - 1,), (1 << n) - 2)]
        while stack:
            members, cells, tied = stack.pop()
            nodes += 1
            assert all(c & (c + (c & -c)) == 0 for c in cells), (members, cells)
            assert tied == _tied(cells), members
            if len(members) == 3:
                continue
            for x in range(members[-1] + 1 if members else 0, 1 << n):
                admitted = lex_leader(x, cells)
                assert _admits(x, tied) == admitted, (members, x)
                if admitted:
                    stack.append((members + (x,), split(x, cells), tied & ~(x ^ x << 1)))
        assert nodes == {1: 4, 2: 11, 3: 36, 4: 111, 5: 302, 6: 730}[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lex_least_optima_pass_at_every_depth(self, n):
        # the soundness claim itself, on plain enumeration's witnesses: each
        # member holds the lowest points of every cell its predecessors leave
        checked = 0
        for family_class in ("even", "odd"):
            pool = 1 << (n - 1)
            for m in range(1, pool + 1):
                if comb(pool, m) > 20_000:
                    continue
                spec = SearchSpec(ground_size=n, family_size=m, family_class=family_class,
                                  mode="exhaustive")
                assert _lex_leader_path(minimize(spec).witness.masks, n), spec
                checked += 1
        assert checked == {3: 8, 4: 16, 5: 32}[n]

    @pytest.mark.parametrize(
        "kw,value,masks",
        LEX_LEADER_PINS,
        ids=[f"{kw['family_class']}-{kw['ground_size']}-{kw['family_size']}"
             for kw, _, _ in LEX_LEADER_PINS],
    )
    def test_lex_leader_keeps_the_pinned_witnesses(self, kw, value, masks):
        result = minimize(SearchSpec(**kw))
        assert result.optimal
        assert (result.best_value, result.witness.masks) == (value, masks)
        assert op_sets(witness_sets(result)) == value
        assert _lex_leader_path(masks, kw["ground_size"])


class TestDeterminismAndSoundness:
    def test_prefix_roots_keep_value_and_witness(self):
        # every class, objective, t and m at n <= 5 small enough to enumerate:
        # bnb, which starts only from its roots (the empty set in the even
        # class, prefix sets in the others), returns plain enumeration's
        # lex-least optimum
        checked = 0
        for n in range(1, 6):
            classes = [dict(family_class="even"), dict(family_class="odd")]
            for k in range(1, n + 1):
                classes.append(dict(family_class="uniform", k=k))
                classes += [dict(family_class="uniform", k=k, objective="ckt", t=t)
                            for t in range(k)]
            for cls in classes:
                pool = SearchSpec(ground_size=n, family_size=1, **cls).pool_size()
                for m in range(1, pool + 1):
                    if comb(pool, m) > 20_000:
                        continue
                    spec = SearchSpec(ground_size=n, family_size=m, **cls)
                    bnb = minimize(spec)
                    plain = minimize(
                        SearchSpec(ground_size=n, family_size=m, mode="exhaustive", **cls)
                    )
                    assert bnb.optimal and plain.optimal
                    assert (bnb.best_value, bnb.witness) == (plain.best_value, plain.witness), spec
                    checked += 1
        assert checked == 248

    def test_first_level_branches(self, monkeypatch, tmp_path):
        # polled at every node and saved at every poll, the checkpoint's
        # paths of one member name the first-level branches, the children
        # of the top node: in bnb, the prefix sets (a uniform class has
        # one), and below {∅} in the even class the even ones; in exhaustive
        # mode every index that leaves room for the rest of the family.  The
        # even class's pending twin [n] is the last pool set, so it starts a
        # branch only when it completes the family (m = 2), where the top
        # node is a leaf and has no branches
        seen = []
        monkeypatch.setattr(search, "_write_checkpoint", lambda path, data: seen.append(data))
        monkeypatch.setattr(search, "_CHECK_INTERVAL", 1)
        monkeypatch.setattr(search, "_SAVE_SECS", 0)

        def branches(**kw):
            seen.clear()
            spec = SearchSpec(**kw)
            assert minimize(spec, checkpoint=tmp_path / "run.ckpt").optimal
            assert seen[-1]["path"] is None  # the search ended
            pool = candidate_pool(spec)
            return [pool[data["path"][0]] for data in seen[:-1] if len(data["path"]) == 1]

        # pool index 15 holds {1,..,5} and leaves too few sets after it for m = 7
        assert branches(ground_size=5, family_size=7, family_class="odd") == [0b1, 0b111]
        assert branches(ground_size=6, family_size=9, family_class="odd") == [0b1, 0b111, 0b11111]
        assert branches(ground_size=5, family_size=6, family_class="uniform", k=3) == [0b111]
        for n in (5, 6):
            assert branches(ground_size=n, family_size=9, family_class="even") == [0b11, 0b1111]
        for cls in ("even", "odd"):
            masks = branches(ground_size=5, family_size=3, family_class=cls, mode="exhaustive")
            assert masks == candidate_pool(SearchSpec(ground_size=5, family_size=3,
                                                      family_class=cls))[:14]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_twin_rule_matches_plain_enumeration(self, n):
        # even class, even n: bnb starts at the empty set and admits a set
        # holding point n only beside its complement.  Every instance with at
        # most 250,000 families (n = 6: m <= 5 or m >= 27) returns plain
        # enumeration's lex-least optimum; a bound that drops the twins of
        # undecided lower candidates changes the witness at (4, 6) and (4, 7)
        pool = 1 << (n - 1)
        sizes = [m for m in range(1, pool + 1) if comb(pool, m) <= 250_000]
        for m in sizes:
            spec = SearchSpec(ground_size=n, family_size=m, family_class="even")
            bnb = minimize(spec)
            plain = minimize(
                SearchSpec(ground_size=n, family_size=m, family_class="even", mode="exhaustive")
            )
            assert bnb.optimal and plain.optimal
            assert (bnb.best_value, bnb.witness) == (plain.best_value, plain.witness), spec
            assert op_sets(witness_sets(bnb)) == bnb.best_value
        assert len(sizes) == {2: 2, 4: 8, 6: 11}[n]

    @pytest.mark.parametrize(
        "m,value,masks", EVEN_N6_MINIMA, ids=[f"m{m}" for m, _, _ in EVEN_N6_MINIMA]
    )
    def test_twin_rule_keeps_the_pinned_n6_witnesses(self, m, value, masks):
        # the values and lex-least witnesses branch and bound gave before the
        # twin rule and the empty-set root; (6, 8)-(6, 10) are where dropping
        # the undecided twins from the bound changes the witness
        result = minimize(SearchSpec(ground_size=6, family_size=m, family_class="even"))
        assert result.optimal
        assert (result.best_value, result.witness.masks) == (value, masks)
        assert op_sets(witness_sets(result)) == value

    # the name is kept from when the test also varied a thread count
    def test_randomized_mode_and_thread_equivalence(self):
        import random

        rng = random.Random(71)
        for _ in range(25):
            family_class = rng.choice(["even", "odd", "uniform"])
            n = rng.randrange(3, 6)
            k = rng.randrange(1, n) if family_class == "uniform" else None
            pool = len(pool_sets(n, family_class, k))
            m = rng.randrange(2, min(pool, 7) + 1)
            kw = dict(ground_size=n, family_size=m, family_class=family_class, k=k)
            baseline = minimize(SearchSpec(mode="exhaustive", **kw))
            seen = {(baseline.best_value, baseline.witness.masks)}
            for mode in ("exhaustive", "bnb"):
                r = minimize(SearchSpec(mode=mode, **kw))
                seen.add((r.best_value, r.witness.masks))
            assert len(seen) == 1, f"divergence on {kw}: {seen}"

    def test_minimum_is_monotone_in_family_size(self):
        values = []
        for m in range(2, 8):
            r = minimize(SearchSpec(ground_size=4, family_size=m, family_class="odd", mode="bnb"))
            values.append(r.best_value)
        assert values == sorted(values)

    def test_n6_even_flagship_instance(self):
        spec = SearchSpec(ground_size=6, family_size=9, family_class="even", mode="bnb")
        result = minimize(spec)
        assert result.optimal
        assert result.best_value == 4  # matches the proven bound at s=1
        assert ot.op_count(result.witness) == 4


@pytest.mark.parametrize("mode", ["bnb", "exhaustive"])
def test_tree_deeper_than_the_recursion_limit(mode):
    # the whole even class of [11], 1,024 members: the tree recurses once per
    # member, past CPython's default limit of 1,000 frames
    spec = SearchSpec(ground_size=11, family_size=1024, family_class="even", mode=mode)
    limit = sys.getrecursionlimit()
    result = minimize(spec)
    assert sys.getrecursionlimit() == limit
    assert result.optimal
    assert result.best_value == ot.op(ot.SetFamily(11, candidate_pool(spec))).op_count == 261888


def test_deep_tree_from_the_command_line(capsys):
    assert cli_main(["search", "--class", "even", "--n", "11", "--m", "1024"]) == 0
    assert json.loads(capsys.readouterr().out)["best_value"] == 261888


class TestBudgetsAndValidation:
    def test_node_budget_exhaustion_is_inconclusive(self):
        spec = SearchSpec(
            ground_size=5,
            family_size=6,
            family_class="odd",
            mode="exhaustive",
            budget_nodes=50,
        )
        result = minimize(spec)
        assert not result.optimal

    def test_infeasible_family_size(self):
        with pytest.raises(InfeasibleSpecError):
            SearchSpec(ground_size=3, family_size=5, family_class="odd")

    def test_uniform_needs_k(self):
        with pytest.raises(InfeasibleSpecError):
            SearchSpec(ground_size=4, family_size=2, family_class="uniform")

    def test_ckt_needs_uniform_and_t(self):
        with pytest.raises(InfeasibleSpecError):
            SearchSpec(ground_size=4, family_size=2, family_class="even", objective="ckt", t=1)
        with pytest.raises(InfeasibleSpecError):
            SearchSpec(
                ground_size=4, family_size=2, family_class="uniform", k=2, objective="ckt", t=2
            )

    def test_exhaustive_feasibility_cap(self):
        # C(64, 9) ~ 2.75e10 families, over the 10^8 that exhaustive mode enumerates
        spec = SearchSpec(ground_size=7, family_size=9, family_class="even", mode="exhaustive")
        with pytest.raises(InfeasibleSpecError, match="feasibility cap"):
            minimize(spec)

    def test_pool_matches_class(self):
        spec = SearchSpec(ground_size=4, family_size=2, family_class="even")
        masks = candidate_pool(spec)
        assert masks == sorted(masks)
        assert all(m.bit_count() % 2 == 0 for m in masks)
        assert len(masks) == 8
        # at n = 1 each parity class has one set: {∅} and {{1}}
        for family_class in ("even", "odd"):
            spec = SearchSpec(ground_size=1, family_size=1, family_class=family_class)
            assert spec.pool_size() == len(candidate_pool(spec)) == 1

    def test_single_member_families(self):
        result = minimize(SearchSpec(ground_size=1, family_size=1, family_class="even", mode="bnb"))
        assert result.best_value == 0
        assert result.witness.masks == (0,)
        result = minimize(SearchSpec(ground_size=3, family_size=1, family_class="odd", mode="exhaustive"))
        assert result.best_value == 0
        assert result.witness.masks == (0b001,)

    def test_whole_pool_family(self):
        # m equals the class size: exactly one family exists
        spec = SearchSpec(ground_size=3, family_size=4, family_class="odd", mode="bnb")
        result = minimize(spec)
        assert result.optimal and result.best_value == 3
        assert len(result.witness) == 4

    def test_budget_out_keeps_the_hint_family(self):
        # the tree is cut long before a leaf; the hint climb's family is the incumbent
        kw = dict(ground_size=8, family_size=17, family_class="even")
        result = minimize(SearchSpec(budget_nodes=10_000, **kw))
        assert not result.optimal
        assert result.best_value == 8
        assert op_sets(to_sets(result.witness)) == 8
        # a node budget too small for the climb to finish still yields a family
        cut = minimize(SearchSpec(budget_nodes=1, **kw))
        assert not cut.optimal
        assert cut.best_value is not None and cut.best_value >= 8
        assert op_sets(to_sets(cut.witness)) == cut.best_value

    # The worker count is clamped to none: whatever the CPU count, the tree
    # runs on the calling thread.  The ids keep the (CPU count, workers
    # started) pairs of the thread pool this replaces; at 2 CPUs it started 2.
    @pytest.mark.parametrize("cpus", [1, 2, None], ids=["1-0", "2-2", "None-0"])
    def test_worker_count_is_clamped(self, monkeypatch, cpus):
        kw = dict(ground_size=4, family_size=5, family_class="odd", mode="bnb")
        baseline = minimize(SearchSpec(**kw))
        constructed = []

        class CountingThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", CountingThread)
        result = minimize(SearchSpec(**kw))
        assert (result.best_value, result.witness, result.nodes_explored) == (
            baseline.best_value, baseline.witness, baseline.nodes_explored
        )
        assert constructed == []

    @pytest.mark.parametrize(
        "budgets",
        [dict(budget_secs=float("nan")), dict(budget_secs=0.0), dict(budget_secs=-1.0),
         dict(budget_nodes=0), dict(budget_secs=float("inf"))],
    )
    def test_budgets_must_be_positive(self, budgets):
        with pytest.raises(InfeasibleSpecError, match="budgets"):
            SearchSpec(ground_size=4, family_size=5, family_class="even", **budgets)

    @pytest.mark.parametrize("mode", ["bnb", "exhaustive", "local"])
    def test_time_budget_covers_the_row_build(self, monkeypatch, mode):
        # even n=12 has P = 2,048 rows; a deadline already passed stops the
        # build at its first poll, and the run holds no family
        built = []

        def counted(masks):
            for row in ot.setfamily.odd_rows(masks):
                built.append(row)
                yield row

        monkeypatch.setattr(search, "odd_rows", counted)
        spec = SearchSpec(
            ground_size=12, family_size=2, family_class="even", mode=mode, budget_secs=1e-9
        )
        result = minimize(spec)
        assert len(built) < spec.pool_size()
        assert (result.best_value, result.witness, result.optimal) == (None, None, False)
        assert result.nodes_explored == 0

    @pytest.mark.parametrize("mode", ["bnb", "local"])
    def test_a_misreported_climb_value_raises(self, monkeypatch, mode):
        # the hint of even n=4 m=5 is optimal, so a value one too low is
        # never beaten by the tree and reaches the result
        climb = search._climb

        def misreport(*args):
            value, chosen, evals, stopped = climb(*args)
            return value - 1, chosen, evals, stopped

        monkeypatch.setattr(search, "_climb", misreport)
        spec = SearchSpec(ground_size=4, family_size=5, family_class="even", mode=mode)
        with pytest.raises(OracleSoundnessError, match="whose rows count"):
            minimize(spec)

    def test_a_misreported_tree_value_raises(self, monkeypatch):
        # spread rows of zeros make every leaf of the exhaustive tree look like
        # value 0, and the first family of even n=4 m=5 has odd pairs
        monkeypatch.setattr(search, "_spreader", lambda rows, width: lambda j: 0)
        spec = SearchSpec(ground_size=4, family_size=5, family_class="even", mode="exhaustive")
        with pytest.raises(OracleSoundnessError, match="reported value 0"):
            minimize(spec)

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(family_size=0), "family size must be >= 1, got 0"),
            (dict(family_class="all"), "family class must be one of .*, got 'all'"),
            (dict(objective="cut"), "objective must be one of .*, got 'cut'"),
            (dict(mode="dfs"), "mode must be one of .*, got 'dfs'"),
            (dict(seed=9), "seed and restarts only apply to mode 'local'"),
            (dict(mode="exhaustive", restarts=3), "seed and restarts only apply to mode 'local'"),
        ],
        ids=["family_size", "family_class", "objective", "mode", "bnb-seed", "exhaustive-restarts"],
    )
    def test_spec_values_are_checked(self, kw, message):
        # the CLI's choices keep the first four from the command line
        with pytest.raises(InfeasibleSpecError, match=message):
            SearchSpec(**{**dict(ground_size=4, family_size=5, family_class="even"), **kw})

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_must_be_positive(self, restarts):
        # no restart would climb from no family and return a null result
        with pytest.raises(InfeasibleSpecError, match="restarts"):
            SearchSpec(ground_size=4, family_size=5, family_class="even", mode="local",
                       restarts=restarts)

    @pytest.mark.parametrize(
        "kw,pool",
        [
            (dict(family_class="even", ground_size=18), 2**17),
            (dict(family_class="odd", ground_size=18), 2**17),
            (dict(family_class="uniform", ground_size=363, k=2), 65_703),
            (dict(family_class="uniform", ground_size=40, k=20), comb(40, 20)),
        ],
    )
    def test_pool_cap_applies_to_every_class(self, kw, pool):
        with pytest.raises(InfeasibleSpecError, match=f"{pool} candidate sets.*65536"):
            SearchSpec(family_size=2, **kw)

    def test_pool_cap_edges(self):
        # pools of exactly 2^16 and just under it are accepted
        assert SearchSpec(ground_size=17, family_size=2, family_class="odd").pool_size() == 2**16
        spec = SearchSpec(ground_size=362, family_size=2, family_class="uniform", k=2)
        assert spec.pool_size() == 65_341
        # a ground set past the cap is refused before its pool is counted
        with pytest.raises(InfeasibleSpecError, match="ground size"):
            SearchSpec(ground_size=10**12, family_size=2, family_class="even")

    def test_result_json_shape(self):
        result = minimize(
            SearchSpec(ground_size=4, family_size=5, family_class="even", mode="bnb")
        )
        doc = result.to_json_dict()
        assert doc["best_value"] == 2
        assert doc["optimal"] is True
        assert isinstance(doc["witness"], list)
        assert (doc["lower_bound"], doc["floor_entry"]) == (2, None)
        assert doc["spec"]["ground_size"] == 4
        assert isinstance(doc["elapsed_ms"], int)


def resume_chain(kw, budget, path, most_runs=30):
    """Runs at budget_nodes=budget on one checkpoint until one certifies.

    Returns (the path the first run saved, runs, last result); the first
    run must be cut.
    """
    last = minimize(SearchSpec(budget_nodes=budget, **kw), checkpoint=path)
    assert not last.optimal
    first = json.loads(path.read_text(encoding="utf-8"))["path"]
    runs = 1
    while not last.optimal:
        last = minimize(SearchSpec(budget_nodes=budget, **kw), checkpoint=path)
        runs += 1
        assert runs <= most_runs
    return first, runs, last


class TestCheckpoint:
    def test_resume_after_abort_matches_direct_run(self, tmp_path):
        kw = dict(ground_size=5, family_size=6, family_class="odd")
        direct = minimize(SearchSpec(mode="exhaustive", **kw))
        path = tmp_path / "run.ckpt"
        partial = minimize(
            SearchSpec(mode="exhaustive", budget_nodes=6000, **kw), checkpoint=path
        )
        assert not partial.optimal
        assert path.exists()
        resumed = minimize(SearchSpec(mode="exhaustive", **kw), checkpoint=path)
        assert resumed.optimal
        assert resumed.best_value == direct.best_value
        assert resumed.witness == direct.witness

    def test_resume_after_abort_at_two_threads(self, tmp_path, capsys):
        # the CLI still accepts --threads 2 on a resumed run; it selects nothing
        direct = minimize(
            SearchSpec(mode="exhaustive", ground_size=5, family_size=6, family_class="odd")
        )
        path = tmp_path / "run.ckpt"
        argv = ["--json", "search", "--class", "odd", "--n", "5", "--m", "6",
                "--mode", "exhaustive", "--threads", "2", "--checkpoint", str(path)]
        assert cli_main([*argv, "--budget-nodes", "6000"]) == 3
        assert len(json.loads(path.read_text(encoding="utf-8"))["path"]) >= 1
        capsys.readouterr()
        assert cli_main(argv) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["optimal"] is True
        assert resumed["best_value"] == direct.best_value
        assert resumed["witness"] == direct.to_json_dict()["witness"]

    def test_even_class_resume_after_abort_matches_direct_run(self, tmp_path):
        # thm-even n=8 s=1: a budget cut below the top node {∅} leaves a path
        # through its second child, {1,2,3,4} (pool index 7), since the first
        # ends before the budget does.  The budget is the hint's 7,892
        # evaluations plus 130,000 for the tree
        kw = dict(ground_size=8, family_size=17, family_class="even")
        direct = minimize(SearchSpec(**kw))
        path = tmp_path / "run.ckpt"
        partial = minimize(SearchSpec(budget_nodes=137_892, **kw), checkpoint=path)
        assert not partial.optimal
        assert json.loads(path.read_text(encoding="utf-8"))["path"][0] == 7
        resumed = minimize(SearchSpec(**kw), checkpoint=path)
        assert resumed.optimal
        assert (resumed.best_value, resumed.witness) == (direct.best_value, direct.witness)
        assert direct.best_value == 8

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ground_size=6, family_size=12, family_class="even"),  # complement twins
            dict(ground_size=5, family_size=7, family_class="even"),
            dict(ground_size=5, family_size=7, family_class="odd"),
            dict(ground_size=5, family_size=6, family_class="odd", mode="exhaustive"),
        ],
        ids=["even6", "even5", "odd5", "odd5-exhaustive"],
    )
    def test_a_saved_path_splits_the_tree_exactly(self, monkeypatch, kw):
        # with the lex-least optimum known, the tree grown from a path saved
        # at any poll counts exactly the evaluations the whole tree makes
        # after that poll: a resume neither recounts the path nor searches a
        # subtree left of it, and it bounds at the optimum's value plus one
        # before that family (a tie met first wins) and at the value after it
        monkeypatch.setattr(search, "_CHECK_INTERVAL", 4)
        monkeypatch.setattr(search, "_SAVE_SECS", 0)
        spec = SearchSpec(**kw)
        pool = candidate_pool(spec)
        rows = search._pool_rows(spec, pool)
        direct = minimize(spec)
        chosen = tuple(pool.index(mask) for mask in direct.witness.masks)
        known = search._Outcome(direct.best_value, chosen, 0, False)
        saves = []

        def tree(resume, save=None):
            return search._tree(pool, rows, spec, resume, known, float("inf"), -1, 0, save)

        whole = tree((), lambda path, so_far: saves.append((path, so_far.nodes)))
        assert whole.witness == chosen and not whole.aborted
        assert saves.pop() == (None, whole.nodes)
        assert len(saves) >= 20
        top = search._top(spec)
        assert any(top + path < chosen for path, _ in saves)
        assert any(top + path > chosen for path, _ in saves)
        for path, before in saves[:: len(saves) // 20]:
            assert before + tree(path).nodes == whole.nodes, path

    def test_a_lex_greater_tie_leaves_the_known_family(self):
        # odd n=5 m=6 from the path (3, 4, 5, 10), knowing an optimum that
        # the lex-leader test refuses and that lies ahead of the path: the
        # first tie the tree meets is lex-greater, so the known family stays,
        # as the least (value, witness) over it and the tree's leaves
        spec = SearchSpec(ground_size=5, family_size=6, family_class="odd")
        pool = candidate_pool(spec)
        rows = search._pool_rows(spec, pool)

        def tree(known, floor):
            return search._tree(pool, rows, spec, (3, 4, 5, 10), known, float("inf"), floor, 0)

        known = search._Outcome(3, (3, 4, 6, 9, 10, 11), 0, False)
        assert tree(search._NOTHING, 3).witness == (3, 4, 8, 9, 10, 11)
        assert tree(known, -1)[:2] == (3, known.witness)

    def test_cut_inside_the_first_branch_resumes_to_the_direct_run(self, tmp_path):
        # thm-even n=8 s=1 takes 179,934 evaluations, most of them below the
        # top node's first child {1,2} (pool index 1): a budget of 36,000 cuts
        # inside it, and runs resumed at that budget reach TIGHT 8 with the
        # direct run's witness and evaluations
        kw = dict(ground_size=8, family_size=17, family_class="even")
        direct = minimize(SearchSpec(**kw))
        path = tmp_path / "run.ckpt"
        first, runs, last = resume_chain(kw, 36_000, path)
        assert (first[0], runs) == (1, 5)
        assert (last.best_value, last.witness) == (direct.best_value, direct.witness)
        assert last.nodes_explored == direct.nodes_explored == 179_934
        assert json.loads(path.read_text(encoding="utf-8"))["path"] is None

    @pytest.mark.parametrize(
        "kw,budget",
        [
            (dict(ground_size=7, family_size=9, family_class="even"), 5_000),
            (dict(ground_size=6, family_size=9, family_class="odd"), 3_000),
            (dict(ground_size=6, family_size=12, family_class="even"), 3_000),  # complement twins
        ],
        ids=["even7", "odd6", "even6"],
    )
    def test_a_resumed_chain_makes_the_direct_runs_evaluations(self, tmp_path, kw, budget):
        # each resume bounds at the known value plus one only while the known
        # family is still ahead of its path, so no run re-finds a tie that
        # cannot win, and the chain ends where the direct run does
        direct = minimize(SearchSpec(**kw))
        _, runs, last = resume_chain(kw, budget, tmp_path / "run.ckpt")
        assert runs >= 3
        assert (last.best_value, last.witness) == (direct.best_value, direct.witness)
        assert last.nodes_explored == direct.nodes_explored

    # odd n=5 m=6 exhaustive, cut at budget_nodes=6000 below its second
    # first-level branch, as written on disk: such files must still resume
    SAVED = (
        '{"instance": {"ground_size": 5, "family_size": 6, "family_class": "odd", '
        '"k": null, "objective": "op", "t": null, "mode": "exhaustive"}, '
        '"path": [1, 3, 4, 10, 14], "best_value": 3, "witness": [0, 1, 2, 3, 4, 8], '
        '"nodes": 6152, '
        '"digest": "03701cbd1960a51c22ccd8bb7796ac671146cfe7899b90e89805c9742ecc5c0f"}'
    )

    def test_saved_checkpoint_still_resumes(self, tmp_path):
        spec = SearchSpec(ground_size=5, family_size=6, family_class="odd", mode="exhaustive")
        path = tmp_path / "run.ckpt"
        path.write_text(self.SAVED, encoding="utf-8")
        direct = minimize(spec)
        resumed = minimize(spec, checkpoint=path)
        assert resumed.optimal
        assert (resumed.best_value, resumed.witness) == (direct.best_value, direct.witness)

    def test_checkpoint_spec_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        minimize(
            SearchSpec(ground_size=4, family_size=5, family_class="even", mode="bnb"),
            checkpoint=path,
        )
        with pytest.raises(ValueError):
            minimize(
                SearchSpec(ground_size=4, family_size=6, family_class="even", mode="bnb"),
                checkpoint=path,
            )

    @pytest.mark.parametrize("cut", [0, 1, 14, -1])
    def test_truncated_checkpoint_names_the_file(self, tmp_path, cut):
        path = tmp_path / "run.ckpt"
        spec = SearchSpec(ground_size=4, family_size=5, family_class="even", mode="bnb")
        minimize(spec, checkpoint=path)
        path.write_text(path.read_text(encoding="utf-8")[:cut], encoding="utf-8")
        with pytest.raises(CheckpointError, match="run.ckpt"):
            minimize(spec, checkpoint=path)

    def test_wrong_shape_checkpoint_is_corrupt(self, tmp_path):
        path = tmp_path / "run.ckpt"
        spec = SearchSpec(ground_size=4, family_size=5, family_class="even", mode="bnb")
        minimize(spec, checkpoint=path)
        good = path.read_text(encoding="utf-8")
        forged = [
            # well formed, but the witness's value is 5 and the true minimum 2
            dict(best_value=0, witness=[0, 1, 2, 3, 4]),
            dict(best_value=3),
            dict(best_value="2"),
            dict(best_value=2.0),
            dict(best_value=None),
            dict(witness=None),
            dict(witness=[0, 1, 2, 3, 8]),  # the pool has 8 sets
            dict(witness=[-1, 0, 1, 2, 3]),
            dict(witness=[0, 2, 1, 3, 4]),
            dict(witness=[0, 0, 1, 2, 3]),
            dict(witness=[0, 1, 2, 3]),
            dict(witness=[0, 1, 2, 3, "4"]),
            dict(witness="01234"),
            dict(path=[-3]),
            dict(path=[1, 8]),  # the pool has 8 sets
            dict(path=[2, 1]),
            dict(path=[1, 1]),
            dict(path=[1, 2, 3, 4]),  # with {∅}, the top node's, 5 members: m
            dict(path=[0]),  # below the top node's first candidate, index 1
            dict(path=True),
            dict(path="1"),
            dict(path=[True]),
            dict(nodes=-1),
            dict(nodes="12"),
        ]
        texts = ["[]", "{}", '"x"', "\xff\xfe"]
        texts += [json.dumps({**json.loads(good), **fields}) for fields in forged]
        # self-consistent but undigested: the genuine file, and one claiming
        # the search ended with a real family of value 5
        undigested = {k: v for k, v in json.loads(good).items() if k != "digest"}
        texts.append(json.dumps(undigested))
        texts.append(json.dumps({**undigested, "path": None, "best_value": 5,
                                 "witness": [0, 1, 2, 3, 4]}))
        # digested, in the format that still named a symmetry setting, whose
        # root positions counted every first member
        legacy = {**undigested, "instance": {**undigested["instance"], "symmetry": False}}
        texts.append(json.dumps({**legacy, "digest": search._digest(legacy)}))
        # digested, in the formats that counted completed root branches and
        # named the next first-level branch
        for field in ("completed_roots", "next_branch"):
            legacy = {k: v for k, v in undigested.items() if k != "path"}
            legacy[field] = 1
            texts.append(json.dumps({**legacy, "digest": search._digest(legacy)}))
        for text in texts:
            path.write_bytes(text.encode("latin-1"))
            with pytest.raises(CheckpointError, match="run.ckpt"):
                minimize(spec, checkpoint=path)
        # digested again, the forged files are refused for their fields
        for fields in forged:
            doc = {**undigested, **fields}
            path.write_text(json.dumps({**doc, "digest": search._digest(doc)}), encoding="utf-8")
            refusal = r"run\.ckpt is corrupt: (path|nodes|witness|best_value) "
            with pytest.raises(CheckpointError, match=refusal):
                minimize(spec, checkpoint=path)
        path.write_text(good, encoding="utf-8")
        assert minimize(spec, checkpoint=path).best_value == 2

    def test_local_mode_refuses_a_checkpoint(self, tmp_path):
        path = tmp_path / "run.ckpt"
        spec = SearchSpec(ground_size=4, family_size=5, family_class="even", mode="local")
        with pytest.raises(InfeasibleSpecError, match="local"):
            minimize(spec, checkpoint=path)
        assert not path.exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        kw = dict(ground_size=5, family_size=6, family_class="odd")
        path = tmp_path / "run.ckpt"
        minimize(SearchSpec(mode="exhaustive", budget_nodes=6000, **kw), checkpoint=path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            minimize(SearchSpec(mode="exhaustive", **kw), checkpoint=path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


class TestLocalSearch:
    def test_deterministic_for_fixed_seed(self):
        kw = dict(ground_size=8, family_size=17, family_class="even", mode="local", restarts=3)
        a = local_search(SearchSpec(seed=5, **kw))
        b = local_search(SearchSpec(seed=5, **kw))
        c = local_search(SearchSpec(seed=6, **kw))
        assert (a.best_value, a.witness) == (b.best_value, b.witness)
        assert not a.optimal
        assert ot.op_count(c.witness) == c.best_value

    def test_seeded_with_construction_keeps_its_value(self):
        start = ot.eventown_plus(8, 1)
        spec = SearchSpec(ground_size=8, family_size=17, family_class="even", mode="local")
        result = local_search(spec, initial=start)
        assert result.best_value <= ot.op_count(start) == 8

    def test_initial_family_of_the_wrong_size_is_refused(self):
        spec = SearchSpec(ground_size=8, family_size=18, family_class="even", mode="local")
        with pytest.raises(ValueError, match="initial family has 17 members, spec wants 18"):
            local_search(spec, initial=ot.eventown_plus(8, 1))

    def test_large_even_instance_reaches_construction_value(self):
        start = ot.eventown_plus(12, 1)
        spec = SearchSpec(
            ground_size=12, family_size=65, family_class="even", mode="local", restarts=2
        )
        result = local_search(spec, initial=start)
        assert result.best_value <= 32

    def test_mode_dispatch(self):
        spec = SearchSpec(
            ground_size=4, family_size=5, family_class="even", mode="local", seed=3, restarts=2
        )
        result = minimize(spec)
        assert not result.optimal
        assert result.best_value >= 2  # proven minimum for this instance

    def test_initial_must_match_class(self):
        spec = SearchSpec(ground_size=4, family_size=2, family_class="even", mode="local")
        bad = ot.SetFamily.from_sets(4, [(1,), (2,)])
        with pytest.raises(ValueError):
            local_search(spec, initial=bad)

    def test_initial_must_share_the_ground_set(self):
        # {}, {1, 2}, {1, 3} over [10] are masks of even sets of [8] too
        spec = SearchSpec(ground_size=8, family_size=3, family_class="even", mode="local")
        other = ot.SetFamily(10, [0, 3, 5])
        with pytest.raises(ot.GroundSetMismatchError, match="ground sets differ: 10 vs 8"):
            local_search(spec, initial=other)


# (spec kwargs, seed, initial family) -> (best_value, witness masks, nodes_explored),
# recorded from the swap-by-swap local search this climber replaced
LOCAL_SEARCH_PINS = [
    (dict(ground_size=8, family_size=17, family_class="even"), 0, None,
     (8, (0, 10, 48, 58, 65, 75, 113, 123, 132, 142, 180, 190, 197, 207, 245, 249, 255), 11063)),
    (dict(ground_size=8, family_size=17, family_class="even"), 3, None,
     (8, (0, 24, 33, 57, 66, 90, 99, 123, 132, 156, 165, 189, 198, 222, 231, 243, 255), 11733)),
    (dict(ground_size=7, family_size=10, family_class="odd"), 0, None,
     (5, (1, 2, 4, 8, 16, 97, 98, 100, 104, 112), 1460)),
    (dict(ground_size=7, family_size=10, family_class="odd"), 1, None,
     (9, (7, 8, 11, 16, 35, 67, 103, 109, 110, 118), 1591)),
    (dict(ground_size=9, family_size=12, family_class="uniform", k=3), 1, None,
     (9, (21, 37, 49, 52, 74, 138, 194, 200, 266, 322, 386, 392), 4967)),
    (dict(ground_size=8, family_size=12, family_class="uniform", k=4, objective="ckt", t=2), 0, None,
     (12, (15, 23, 30, 54, 86, 105, 150, 169, 201, 210, 225, 232), 2767)),
    (dict(ground_size=8, family_size=12, family_class="uniform", k=4, objective="ckt", t=2), 3, None,
     (12, (60, 92, 108, 116, 120, 135, 139, 147, 163, 195, 226, 232), 1893)),
    (dict(ground_size=8, family_size=17, family_class="even", restarts=3), 5, None,
     (8, (0, 12, 48, 60, 65, 77, 113, 125, 130, 142, 178, 190, 195, 207, 240, 243, 255), 33053)),
    (dict(ground_size=6, family_size=12, family_class="even", restarts=2), 4, None,
     (16, (0, 3, 10, 12, 15, 17, 36, 46, 48, 51, 53, 63), 1366)),
    (dict(ground_size=8, family_size=17, family_class="even", restarts=2), 0, (8, 1),
     (8, (0, 3, 6, 12, 15, 48, 51, 60, 63, 192, 195, 204, 207, 240, 243, 252, 255), 12950)),
    (dict(ground_size=8, family_size=17, family_class="even", restarts=3, budget_nodes=5000), 0, None,
     (14, (0, 10, 48, 58, 65, 113, 123, 132, 142, 180, 190, 197, 207, 215, 245, 249, 255), 8192)),
]


@pytest.mark.parametrize("kw,seed,initial,expected", LOCAL_SEARCH_PINS)
def test_local_search_trajectory_is_pinned(kw, seed, initial, expected):
    start = None if initial is None else ot.eventown_plus(*initial)
    result = local_search(SearchSpec(mode="local", seed=seed, **kw), initial=start)
    assert (result.best_value, result.witness.masks, result.nodes_explored) == expected


# the wide workload's local item at seed 7: (value, witness masks, evaluations),
# recorded from the per-candidate climber that the packed scan replaced
WIDE_LOCAL_PIN = (
    32,
    (0, 43, 144, 187, 260, 303, 404, 447, 585, 610, 729, 754, 845, 870, 989, 1014, 1091,
     1128, 1235, 1272, 1351, 1388, 1495, 1532, 1546, 1569, 1690, 1713, 1806, 1829, 1950,
     1973, 2122, 2145, 2266, 2289, 2382, 2405, 2526, 2549, 2563, 2600, 2707, 2744, 2823,
     2860, 2967, 3004, 3081, 3106, 3225, 3250, 3341, 3366, 3485, 3510, 3648, 3691, 3792,
     3835, 3908, 3951, 4052, 4066, 4095),
    4_241_717,
)


@pytest.mark.parametrize("cap", [None, 0], ids=["kept", "rebuilt"])
def test_wide_local_item_is_pinned(monkeypatch, cap):
    # a cap of 0 bytes stores no spread, so every scan rebuilds the ones it adds
    if cap is not None:
        monkeypatch.setattr(search, "_SPREAD_BYTES", cap)
    spec = SearchSpec(ground_size=12, family_size=65, family_class="even", mode="local", seed=7)
    result = local_search(spec)
    assert (result.best_value, result.witness.masks, result.nodes_explored) == WIDE_LOCAL_PIN


def _climb_instances():
    """Every class and objective at n <= 7, and two instances with 16-bit fields."""

    def sizes(P: int) -> list[int]:
        return sorted(m for m in {1, 2, P // 3, P // 2, P - 1} if 1 <= m <= P)

    for n in range(2, 8):
        for family_class in ("even", "odd"):
            for m in sizes(1 << (n - 1)):
                yield dict(ground_size=n, family_size=m, family_class=family_class)
        for k in range(1, n + 1):
            for m in sizes(comb(n, k)):
                yield dict(ground_size=n, family_size=m, family_class="uniform", k=k)
                for t in range(k):
                    yield dict(
                        ground_size=n, family_size=m, family_class="uniform", k=k,
                        objective="ckt", t=t,
                    )
    # m >= 128 needs 2^(b-1) > m, so b = 16
    yield dict(ground_size=9, family_size=130, family_class="odd")
    yield dict(ground_size=9, family_size=200, family_class="even")


# (budget_nodes, deadline): a stop falls on a multiple of 4096 evaluations,
# before, at or after the budget; the last has its deadline already passed
CLIMB_BUDGETS = [(b, float("inf")) for b in (1, 4095, 4096, 4097, 5000, 10**9)] + [(10**9, 0.0)]


def test_packed_climb_matches_the_candidate_loop():
    runs = stops = 0
    for kw in _climb_instances():
        spec = SearchSpec(**kw)
        rows = search._pool_rows(spec, candidate_pool(spec))
        m = spec.family_size
        rng = random.Random(repr(sorted(kw.items())))
        for start in (range(m), rng.sample(range(len(rows)), m)):
            # a count carried in from earlier restarts moves the 4096 marks mid-scan
            for evals in (0, 4000):
                for budget, deadline in CLIMB_BUDGETS:
                    got = search._climb(rows, start, budget, deadline, evals)
                    assert got == climb_reference(rows, start, budget, deadline, evals), (
                        kw, list(start), evals, budget, deadline
                    )
                    runs += 1
                    stops += got[3]
    assert stops > 100 and runs - stops > 100  # both endings are exercised


def test_climb_polls_the_deadline_while_it_builds_its_start(monkeypatch):
    # the start's spread rows took ~150 ms at even n=17 m=300 before the first poll
    built = []
    spreader = search._spreader

    def counting_spreader(rows, width):
        spread = spreader(rows, width)

        def counted(j):
            built.append(j)
            return spread(j)

        return counted

    monkeypatch.setattr(search, "_spreader", counting_spreader)
    spec = SearchSpec(ground_size=8, family_size=17, family_class="even")
    rows = search._pool_rows(spec, candidate_pool(spec))
    start = tuple(range(3, 20))
    got = search._climb(rows, start, 10**9, time.monotonic() - 1, evals=123)
    assert got == (search._recount(rows, start), start, 123, True)
    assert got[0] > 0
    assert len(built) <= 1


class TestVerifyTheorem:
    @pytest.mark.parametrize(
        "statement,n,s,minimum,verdict",
        [
            ("thm-even", 4, 1, 2, "TIGHT"),
            ("thm-even", 4, 2, 4, "TIGHT"),
            ("thm-even", 5, 1, 2, "TIGHT"),
            ("thm-odd", 3, 1, 3, "TIGHT"),
            ("thm-odd", 4, 1, 3, "TIGHT"),
            ("thm-odd", 5, 1, 3, "TIGHT"),
            ("conj-odd", 4, 2, 6, "TIGHT"),
            ("conj-odd", 4, 4, 12, "TIGHT"),
            ("conj-odd", 5, 2, 6, "TIGHT"),
        ],
    )
    def test_statement_instances(self, statement, n, s, minimum, verdict):
        report = verify_theorem(statement, n, s)
        assert report.minimum == minimum
        assert report.verdict == verdict

    def test_a_proven_statement_below_its_bound_raises(self, monkeypatch):
        # a search that reports a value below a proven bound is wrong, so
        # the report is refused rather than returned as a counterexample
        real = search.minimize

        def forged(spec):
            return real(spec)._replace(best_value=1)

        monkeypatch.setattr(search, "minimize", forged)
        with pytest.raises(OracleSoundnessError, match="value 1 below the proven bound 2"):
            verify_theorem("thm-even", 4, 1)
        assert verify_theorem("conj-odd", 4, 2).verdict == "COUNTEREXAMPLE"

    def test_prob_uniform_counterexample_finding(self):
        # the class contains a six-triple family with only three odd pairs,
        # so the uniform question is refuted at n=5, k=3
        report = verify_theorem("prob-uniform", 5, 1, 3)
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.minimum == 3
        assert report.claimed_bound == 4
        assert ot.op_count(report.result.witness) == 3

    def test_conj_odd_counterexample_finding_at_n6(self):
        # recorded finding: pairing singletons {i} with triples {i,5,6}
        # gives eight odd sets over [6] with only four odd pairs, under the
        # conjectured 3s = 6; exhaustive enumeration confirms 4 is minimal
        report = verify_theorem("conj-odd", 6, 2)
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.minimum == 4
        assert report.claimed_bound == 6
        assert report.result.optimal
        paired = ot.SetFamily.from_sets(
            6, [(1,), (2,), (3,), (4,), (1, 5, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6)]
        )
        assert op_sets([frozenset(m.elements()) for m in paired.members]) == 4
        assert ot.op_count(report.result.witness) == 4

    @pytest.mark.parametrize(
        "n,s,minimum",
        [(7, 2, 4), (7, 3, 5), (8, 2, 4), (8, 3, 5), (8, 4, 6), (9, 2, 4), (9, 3, 5), (9, 4, 6),
         (9, 5, 7)],
    )
    def test_odd_class_minimum_is_s_plus_2_not_3s(self, n, s, minimum):
        # recorded finding: s+2 singleton/triple pairs over a reserved 2-set
        # plus padding singletons give n+s odd sets with op = s+2, and the
        # exact minimum matches; 3s only survives where n < s+4.  In every
        # case here the averaging floor from the thm-odd minimum 3 at m = n+1
        # equals s+2, so the search stops at its first optimal leaf, and the
        # lex-least optimum is that family.  At (9, 2) the run without the
        # table, the whole tree (~5 s), gives the same value and witness
        padded = ot.SetFamily.from_sets(
            n,
            [(i,) for i in range(1, n - 1)]
            + [(i, n - 1, n) for i in range(1, s + 3)],
        )
        assert len(padded) == n + s
        assert op_sets([frozenset(m.elements()) for m in padded.members]) == s + 2
        report = verify_theorem("conj-odd", n, s)
        assert report.result.optimal
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.minimum == minimum == s + 2
        assert ot.op_count(report.result.witness) == minimum
        assert to_sets(report.result.witness) == to_sets(padded)

    def test_conj_even_is_tight_across_its_range_at_n6(self):
        # recorded finding: the even-class bound s*2^(n/2-1) is attained for
        # every claimed s at n=6 although no twin-block construction exists
        for s in (3, 4, 5, 6):
            report = verify_theorem("conj-even", 6, s)
            assert report.result.optimal
            assert report.verdict == "TIGHT"
            assert report.minimum == 4 * s

    def test_thm_even_n8_s1_is_certified(self):
        # recorded finding: 17 even sets over [8] force 8 odd pairs, and the
        # bound is attained; certified in ~0.1 s
        report = verify_theorem("thm-even", 8, 1)
        assert report.result.optimal
        assert (report.verdict, report.minimum, report.claimed_bound) == ("TIGHT", 8, 8)
        assert op_sets(to_sets(report.result.witness)) == 8

    # The two deepest trees the suite runs, ~1-2 s each, pinned by their
    # evaluations and witness: the twinned even tree and the odd tree.  They
    # stay out of NODE_COUNT_PINS, whose memo-cap test would run each twice more
    def test_thm_even_n8_s2_is_certified(self):
        # recorded finding: 18 even sets over [8] force 16 odd pairs, and the
        # bound is attained; certified in ~1 s
        report = verify_theorem("thm-even", 8, 2)
        assert report.result.optimal
        assert (report.verdict, report.minimum, report.claimed_bound) == ("TIGHT", 16, 16)
        assert op_sets(to_sets(report.result.witness)) == 16
        assert report.result.nodes_explored == 10_400_502
        assert report.result.witness.masks == (
            0, 3, 5, 10, 12, 15, 48, 51, 60, 63, 192, 195, 204, 207, 240, 243, 252, 255
        )

    def test_thm_odd_n9_is_certified(self):
        # recorded finding: 10 odd sets over [9] force 3 odd pairs; ~2 s
        report = verify_theorem("thm-odd", 9, 1)
        assert report.result.optimal
        assert (report.verdict, report.minimum, report.claimed_bound) == ("TIGHT", 3, 3)
        assert report.result.nodes_explored == 51_551_409
        assert report.result.witness.masks == (1, 2, 4, 7, 8, 16, 32, 64, 128, 256)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="thm-even claims 1 <= s <= 2 at n=4, got s=3"):
            verify_theorem("thm-even", 4, 3)
        with pytest.raises(ValueError, match="thm-odd claims 1 <= s <= 1 at n=4, got s=2"):
            verify_theorem("thm-odd", 4, 2)
        with pytest.raises(ValueError, match="conj-odd claims 1 <= s <= 4 at n=4, got s=5"):
            verify_theorem("conj-odd", 4, 5)
        with pytest.raises(ValueError):
            verify_theorem("prob-uniform", 5, 1, 4)
        with pytest.raises(ValueError, match="conj-even claims 3 <= s <= 6 at n=6, got s=7"):
            verify_theorem("conj-even", 6, 7)
        with pytest.raises(ValueError, match="conj-even claims 3 <= s <= 6 at n=6, got s=2"):
            verify_theorem("conj-even", 6, 2)
        with pytest.raises(ValueError, match="prob-uniform claims 1 <= s at n=5, got s=0"):
            verify_theorem("prob-uniform", 5, 0)
        with pytest.raises(ValueError):
            verify_theorem("nope", 4, 1)
        for statement, s in (("thm-even", 1), ("thm-odd", 1), ("conj-even", 3), ("conj-odd", 1)):
            with pytest.raises(ValueError, match="k only applies to prob-uniform"):
                verify_theorem(statement, 8, s, 3)

    @pytest.mark.parametrize(
        "statement,k,s_range,size,claim",
        [
            ("thm-even", None, lambda n: (1, 2),
             lambda n, s: 2 ** (n // 2) + s, lambda n, s: s * 2 ** (n // 2 - 1)),
            ("conj-even", None, lambda n: range(3, 2 ** (n // 2) - 2 ** (n // 4) + 1),
             lambda n, s: 2 ** (n // 2) + s, lambda n, s: s * 2 ** (n // 2 - 1)),
            ("thm-odd", None, lambda n: (1,), lambda n, s: n + 1, lambda n, s: 3),
            ("conj-odd", None, lambda n: range(1, n + 1), lambda n, s: n + s, lambda n, s: 3 * s),
            ("prob-uniform", 3, lambda n: range(1, comb(n, 3) + 1),
             lambda n, s: n + s, lambda n, s: 4),
            ("prob-uniform", 5, lambda n: range(1, comb(n, 5) + 1),
             lambda n, s: n + s, lambda n, s: 5),
        ],
        ids=["thm-even", "conj-even", "thm-odd", "conj-odd", "prob-uniform-k3", "prob-uniform-k5"],
    )
    def test_family_size_and_claim_follow_the_paper(self, statement, k, s_range, size, claim):
        # every s in the statement's range, n = 2..8: the spec refuses just
        # the families larger than the class, and the rest report the paper's
        # m and claimed bound; budget_nodes=1 stops each at its first poll
        checked = 0
        for n in range(2, 9):
            if k is not None and k > n:
                continue
            pool = comb(n, k) if k else 2 ** (n - 1)
            for s in s_range(n):
                if size(n, s) > pool:
                    with pytest.raises(InfeasibleSpecError):
                        verify_theorem(statement, n, s, k, budget_nodes=1)
                    continue
                report = verify_theorem(statement, n, s, k, budget_nodes=1)
                assert (report.family_size, report.claimed_bound) == (size(n, s), claim(n, s))
                checked += 1
        assert checked

    def test_inconclusive_under_tiny_budget(self):
        report = verify_theorem("conj-odd", 5, 2, budget_nodes=40)
        assert report.verdict == "INCONCLUSIVE"

    def test_report_json_shape(self):
        report = verify_theorem("thm-odd", 4, 1)
        doc = report.to_json_dict()
        assert doc["verdict"] == "TIGHT"
        assert doc["claimed_bound"] == 3
        assert doc["search"]["best_value"] == 3

    def test_report_json_key_order(self):
        report = verify_theorem("thm-odd", 4, 1)
        doc = report.to_json_dict()
        assert list(doc) == [
            "statement", "n", "s", "k", "family_size", "claimed_bound", "minimum",
            "verdict", "proven_statement", "search",
        ]
        assert doc["proven_statement"] is True
        assert doc["search"] == report.result.to_json_dict()
