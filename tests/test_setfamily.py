"""Family statistics, structural operators, validators and the file format."""

from __future__ import annotations

import random
import re
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oddtown as ot
from oddtown import (
    BitSubset,
    CapExceededError,
    DuplicateMemberError,
    FamilyFormatError,
    ParityError,
    SetFamily,
    UniformityError,
)
from oddtown import constructions, setfamily
from oddtown.setfamily import _element_basis

from oracles import (
    follows_rules,
    max_even_subfamily,
    odd_diagonal,
    odd_pairs,
    op_sets,
    pairs_exact_t,
    to_sets,
)


def family_of(sets, n):
    return SetFamily.from_sets(n, sets)


def all_k_subsets(n, k):
    return family_of(combinations(range(1, n + 1), k), n)


def random_uniform_family(rng, n, k, m):
    pool = list(combinations(range(1, n + 1), k))
    return family_of(rng.sample(pool, m), n)


class TestSetFamily:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateMemberError):
            family_of([(1, 2), (2, 1)], 3)

    def test_empty_ground_set_rejected(self):
        with pytest.raises(ValueError, match="^ground size must be >= 1, got 0$"):
            SetFamily(0, [])

    def test_mask_outside_ground_set_rejected(self):
        with pytest.raises(ValueError, match="^mask 0x8 has bits outside ground set of size 3$"):
            SetFamily(3, (0b1, 0b1000))

    def test_insertion_order_and_canonical(self):
        fam = family_of([(2, 3), (1,)], 3)
        assert [m.elements() for m in fam.members] == [(2, 3), (1,)]
        assert list(fam) == list(fam.members)
        assert [m.elements() for m in fam.canonical().members] == [(1,), (2, 3)]

    def test_union_deduplicates(self):
        a = family_of([(1,), (2,)], 3)
        b = family_of([(2,), (3,)], 3)
        assert [m.elements() for m in a.union(b).members] == [(1,), (2,), (3,)]

    def test_mask_paths_build_no_bit_subsets(self, tmp_path, monkeypatch):
        # the wide family of eventown_plus(24, 4): construction, op and the
        # file round trip work on masks alone
        built = []
        init = BitSubset.__init__

        def counting_init(self, mask, ground_size):
            built.append(mask)
            init(self, mask, ground_size)

        monkeypatch.setattr(BitSubset, "__init__", counting_init)

        def built_by(call, *args):
            built.clear()
            return call(*args), len(built)

        path = tmp_path / "wide.txt"
        fam, made = built_by(ot.eventown_plus, 24, 4)
        assert (len(fam), made) == (4100, 0)
        assert built_by(ot.save_family, fam, path)[1] == 0
        assert built_by(ot.op, fam) == (ot.OpReport(8192, None, 4100), 0)
        assert built_by(ot.load_family, path) == (fam, 0)

    def test_empty_set_is_a_legal_member(self):
        fam = SetFamily(4, [0, 0b11])
        assert len(fam) == 2
        assert ot.is_eventown(fam)

    def test_membership_of_any_object(self):
        fam = SetFamily(4, [0, 0b11])
        assert BitSubset(0b11, 4) in fam
        assert BitSubset(0b101, 4) not in fam
        assert BitSubset(0b11, 5) not in fam  # another ground set
        for other in (1, 0b11, None, "ab", (0b11, 4), [0, 0b11]):
            assert other not in fam


class TestOp:
    def test_x5_has_three_odd_pairs(self):
        report = ot.op(ot.example_x5(), materialize_pairs=True)
        assert report.op_count == 3
        assert report.pairs == ((0, 1), (2, 3), (4, 5))
        assert report.density == Fraction(3, 15)

    def test_eventown_family_has_none(self):
        a, _ = ot.eventown_pair(8)
        assert ot.op(a).op_count == 0

    def test_f1_has_four(self):
        assert ot.op_count(ot.example_f1()) == 4

    def test_single_member_density_undefined(self):
        report = ot.op(family_of([(1,)], 2))
        assert report.op_count == 0 and report.density is None

    @given(st.integers(2, 8), st.data())
    def test_matches_set_oracle(self, n, data):
        m = data.draw(st.integers(0, min(10, 1 << n)))
        masks = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m, unique=True)
        )
        fam = SetFamily(n, masks)
        assert ot.op(fam).op_count == op_sets(to_sets(fam))

    def test_invariant_under_relabeling_and_reordering(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(2, 9)
            masks = rng.sample(range(1 << n), rng.randrange(2, min(12, 1 << n)))
            fam = SetFamily(n, masks)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = family_of(
                [[perm[e - 1] for e in m.elements()] for m in fam.members], n
            )
            shuffled = list(fam.masks)
            rng.shuffle(shuffled)
            assert ot.op_count(fam) == ot.op_count(relabeled)
            assert ot.op_count(fam) == ot.op_count(SetFamily(n, shuffled))

    def test_eventown_iff_zero_op_for_even_families(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(2, 9)
            evens = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
            fam = SetFamily(n, rng.sample(evens, rng.randrange(1, min(10, len(evens)))))
            assert (ot.op_count(fam) == 0) == ot.is_eventown(fam)

    def test_even_family_deficiency_lower_bound(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randrange(2, 7)
            evens = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
            cap = 1 << (n // 2)
            if len(evens) <= cap:
                continue
            m = rng.randrange(cap + 1, len(evens) + 1)
            fam = SetFamily(n, rng.sample(evens, m))
            assert ot.op_count(fam) >= m - cap


def masks_over(n: int, max_size: int):
    """Distinct masks over [n], the empty set and odd sizes included."""
    return st.lists(
        st.integers(0, (1 << n) - 1), max_size=min(max_size, 1 << n), unique=True
    )


class TestRowKernel:
    """Everything built on the odd-pair row kernel agrees with the set oracles."""

    @given(st.integers(1, 7), st.data())
    @example(1, None)
    def test_op_and_rule_validators(self, n, data):
        masks = [0, 1] if data is None else data.draw(masks_over(n, 12))
        fam = SetFamily(n, masks)
        sets = to_sets(fam)
        report = ot.op(fam, materialize_pairs=True)
        assert report.pairs == tuple(odd_pairs(sets))
        assert report.op_count == op_sets(sets)
        assert ot.is_eventown(fam) == follows_rules(sets, 0)
        assert ot.is_oddtown(fam) == follows_rules(sets, 1)

    @given(st.integers(1, 6), st.data())
    @example(1, None)
    def test_bipartite_check(self, n, data):
        if data is None:
            xs, ys = [1, 0], [1, 0]
        else:
            m = data.draw(st.integers(0, min(7, 1 << n)))
            pick = st.lists(
                st.integers(0, (1 << n) - 1), min_size=m, max_size=m, unique=True
            )
            xs = data.draw(pick)
            ys = xs if data.draw(st.booleans()) else data.draw(pick)
        fx, fy = SetFamily(n, xs), SetFamily(n, ys)
        assert ot.bipartite_oddtown_check(fx, fy) == odd_diagonal(to_sets(fx), to_sets(fy))

    @given(st.integers(1, 7), st.data())
    @example(1, None)
    def test_exact_maximal_eventown_subfamily(self, n, data):
        evens = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
        masks = [0] if data is None else data.draw(
            st.lists(st.sampled_from(evens), max_size=10, unique=True)
        )
        fam = SetFamily(n, masks)
        sub = ot.maximal_eventown_subfamily(fam, "exact")
        expected = max_even_subfamily(to_sets(fam))
        assert sub.masks == tuple(masks[i] for i in expected)


def mask_over(n: int, sparse: bool):
    """A mask over [n]: any at all, or one of at most two points (a sparse bit matrix)."""
    if sparse:
        return st.frozensets(st.integers(0, n - 1), max_size=2).map(
            lambda points: sum(1 << e for e in points)
        )
    return st.integers(0, (1 << n) - 1)


def masks_holding_top(n: int, max_size: int, sparse: bool = False):
    """Distinct masks over [n], the first holding point n, so the top table byte is read."""
    top = mask_over(n - 1, sparse).map(lambda m: m | 1 << (n - 1))
    rest = st.lists(mask_over(n, sparse), max_size=max_size - 1, unique=True)
    return st.tuples(top, rest).map(lambda tr: [tr[0]] + [m for m in tr[1] if m != tr[0]])


def element_basis_reference(targets):
    """basis[e] marks the targets holding element e, one bit at a time, for each e held."""
    width = max((t.bit_length() for t in targets), default=0)
    columns = (sum(1 << j for j, t in enumerate(targets) if t >> e & 1) for e in range(width))
    return {e: column for e, column in enumerate(columns) if column}


@contextmanager
def row_kernel(tables: bool):
    """Make setfamily._byte_tables build its tables, or none, whatever the input."""
    with mock.patch.object(setfamily, "_tables_pay", lambda *_: tables):
        yield


BOTH_KERNELS = pytest.mark.parametrize("tables", [False, True], ids=["bit-by-bit", "tables"])


class TestRowKernelAcrossBytes:
    """Both row kernels at n = 9..20, where bits 8 and 16 cross table bytes."""

    @BOTH_KERNELS
    @given(st.integers(9, 20), st.booleans(), st.data())
    def test_op_with_pairs_and_rule_validators(self, tables, n, sparse, data):
        fam = SetFamily(n, data.draw(masks_holding_top(n, 14, sparse)))
        sets = to_sets(fam)
        with row_kernel(tables):
            report = ot.op(fam, materialize_pairs=True)
            assert report.pairs == tuple(odd_pairs(sets))
            assert report.op_count == op_sets(sets)
            assert ot.is_eventown(fam) == follows_rules(sets, 0)
            assert ot.is_oddtown(fam) == follows_rules(sets, 1)

    @BOTH_KERNELS
    @pytest.mark.parametrize(
        "family",
        [
            ot.eventown_pair(16)[1],
            ot.eventown_plus(16, 5, seed=1),
            ot.singletons(20),
            ot.oddtown_plus(20, 4, seed=2),
            ot.disjoint_k4_triples(20),
        ],
        ids=["eventown-b-16", "eventown-plus-16", "singletons-20", "oddtown-plus-20",
             "triples-20"],
    )
    def test_constructions_against_oracle(self, tables, family):
        sets = to_sets(family)
        with row_kernel(tables):
            report = ot.op(family, materialize_pairs=True)
            assert report.pairs == tuple(odd_pairs(sets))
            assert ot.is_eventown(family) == follows_rules(sets, 0)
            assert ot.is_oddtown(family) == follows_rules(sets, 1)

    @BOTH_KERNELS
    @given(st.integers(9, 20), st.booleans(), st.data())
    def test_bipartite_check_with_bits_outside_the_targets(self, tables, n, sparse, data):
        xs = data.draw(masks_holding_top(n, 8, sparse))
        keep = data.draw(st.integers(0, (1 << n) - 1))  # ys live inside keep
        ys = data.draw(
            st.lists(mask_over(n, sparse).map(lambda m: m & keep),
                     min_size=len(xs), max_size=len(xs), unique=True)
        )
        fx, fy = SetFamily(n, xs), SetFamily(n, ys)
        with row_kernel(tables):
            assert ot.bipartite_oddtown_check(fx, fy) == odd_diagonal(to_sets(fx), to_sets(fy))

    @BOTH_KERNELS
    def test_bipartite_pattern_with_a_point_outside_the_targets(self, tables):
        # X_i = {i, 20}, Y_i = {i}: point 20 lies in no Y, so only the diagonal is odd
        xs = SetFamily(20, [1 << i | 1 << 19 for i in range(19)])
        ys = SetFamily(20, [1 << i for i in range(19)])
        # Y_19 = {19, 20} meets every X_j in point 20 as well
        ys_with_top = SetFamily(20, ys.masks[:-1] + (1 << 18 | 1 << 19,))
        with row_kernel(tables):
            assert ot.bipartite_oddtown_check(xs, ys)
            assert not ot.bipartite_oddtown_check(xs, ys_with_top)

    @BOTH_KERNELS
    @given(st.integers(2, 20), st.booleans(), st.data())
    def test_saved_lines(self, tables, tmp_path_factory, n, sparse, data):
        fam = SetFamily(n, data.draw(masks_holding_top(n, 14, sparse)))
        path = tmp_path_factory.mktemp("saved") / "fam.txt"
        with row_kernel(tables):
            ot.save_family(fam, path)
        lines = [" ".join(map(str, sorted(s))) or "empty" for s in to_sets(fam)]
        assert path.read_text() == "\n".join([f"n={n}", *lines]) + "\n"

    @given(st.integers(9, 20), st.integers(2, 6), st.data())
    def test_ckt(self, n, k, data):
        t = data.draw(st.integers(0, k - 1))
        first = data.draw(st.frozensets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1))
        rest = data.draw(
            st.lists(st.frozensets(st.integers(1, n), min_size=k, max_size=k), max_size=11)
        )
        sets = list(dict.fromkeys([first | {n}, *rest]))  # point n is in the first set
        assert ot.c_kt(family_of(sets, n), t) == pairs_exact_t(sets, t)

    @given(
        st.tuples(st.one_of(st.integers(1, 24), st.integers(200, 400)), st.booleans()).flatmap(
            lambda width_sparse: st.lists(mask_over(*width_sparse), max_size=40)
        )
    )
    @example([])
    @example([0, 0])
    @example([1 << j for j in range(100)])  # one bit in 100: the bit-by-bit side
    @example([1 << j for j in range(100)] + [3])  # just past it: the bytes side
    @example([1 << 3 * j for j in range(70)])  # sparse over a wide ground
    @example([0] * 150 + [1 << 30, 1])  # sparse by its empty targets
    @example([(1 << 8) - 1 - j for j in range(9)])  # the top element ends the first byte
    @example([(1 << 9) - 1 - j for j in range(17)])  # and opens the second
    @example([(1 << 16) - 1 - j for j in range(33)])
    @example([(1 << 17) - 1 - j for j in range(39)])
    @example([(1 << 24) - 1 - 3 * j for j in range(40)])
    def test_element_basis(self, targets):
        # at most two points in each target over a width of 200 or more is
        # mostly the sparse, bit-by-bit transpose, and over widths 1 to 24 the
        # bytes one; those widths put the top element on and beside byte
        # edges, and up to 40 targets leave counts that are not multiples of 8
        assert _element_basis(targets) == element_basis_reference(targets)


@pytest.mark.parametrize("statistic", [ot.op, lambda fam: ot.c_kt(fam, 0)], ids=["op", "c_kt"])
def test_wide_ground_costs_follow_the_set_bits(statistic):
    # {1} and {10^6}: each mask takes 125 KB, a basis indexed by element 8 MB
    fam = SetFamily(10**6, [1, 1 << (10**6 - 1)])
    tracemalloc.start()
    try:
        statistic(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestKernelSelection:
    """_byte_tables builds tables only for many dense masks, and not on a wide sparse ground set."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        made = []

        def spy(masks, size):
            made.append(real(masks, size))
            return made[-1]

        real = setfamily._tables_pay
        monkeypatch.setattr(setfamily, "_tables_pay", spy)
        return made

    def test_wide_benchmark_family_takes_the_tables(self, decisions, tmp_path):
        family = ot.eventown_plus(24, 4, seed=3)  # 4,100 members, about 12 points each
        assert ot.op(family).op_count == 8192
        ot.save_family(family, tmp_path / "plus.txt")
        assert decisions == [True, True]

    def test_singletons_over_ten_thousand_points_go_bit_by_bit(self, decisions, tmp_path):
        n = 10_000
        family = ot.singletons(n)
        assert ot.op(family).op_count == 0
        path = tmp_path / "singletons.txt"
        ot.save_family(family, path)
        assert path.read_text() == "\n".join([f"n={n}", *map(str, range(1, n + 1))]) + "\n"
        assert decisions == [False, False]

    def test_pairs_over_120_points_go_bit_by_bit(self, decisions):
        # 7,140 members over 15 bytes: fewer than 1,024 per byte, and 2 points each
        family = all_k_subsets(120, 2)
        assert ot.op(family).op_count == 120 * comb(119, 2)  # pairs sharing one point
        assert decisions == [False]

    def test_fewer_than_1024_masks_per_byte_go_bit_by_bit(self, decisions):
        # the 1,820 4-subsets of [16] span 2 bytes: tables would outgrow a quarter of the rows
        family = all_k_subsets(16, 4)
        even_pairs = ot.c_kt(family, 0) + ot.c_kt(family, 2)  # 4-sets meet in 0..3 points
        assert ot.op(family).op_count == comb(1820, 2) - even_pairs
        assert decisions == [False]

    def test_2048_masks_over_two_full_bytes_take_the_tables(self, decisions):
        # every subset of [11] plus point 16: elements reach the top bit of byte 2
        family = SetFamily(16, [m | 1 << 15 for m in range(2048)])
        with row_kernel(False):
            expected = ot.op(family).op_count
        assert ot.op(family).op_count == expected
        assert decisions == [True]

    def test_few_masks_go_bit_by_bit(self, decisions):
        assert ot.op(ot.eventown_pair(8)[0]).op_count == 0
        assert decisions == [False]

    @pytest.mark.parametrize(
        "masks,tables",
        [
            ([m for m in range(1 << 12) if m.bit_count() % 2 == 0], True),
            (list(all_k_subsets(40, 2).masks), False),
        ],
        ids=["even-12", "pairs-40"],
    )
    def test_readers_read_rows_in_any_order(self, decisions, masks, tables):
        # reverse, random and repeated reads of one reader give the rows read
        # in order: no read changes the basis or the tables the reads share
        P = len(masks)
        order = [*reversed(range(P)), *random.Random(5).choices(range(P), k=P)]
        readers = [(setfamily.odd_row_reader(masks), list(setfamily.odd_rows(masks)))]
        for t in (0, 1, 2):
            rows = list(setfamily.exact_t_rows(masks, t))
            readers.append((setfamily.exact_t_row_reader(masks, t), rows))
        for row, rows in readers:
            assert [row(i) for i in order] == [rows[i] for i in order]
        assert decisions == [tables, tables]


class TestCkt:
    def test_all_4_subsets_of_5_at_t3(self):
        assert ot.c_kt(all_k_subsets(5, 4), 3) == 10

    def test_two_disjoint_sets_at_t0(self):
        assert ot.c_kt(family_of([(1, 2, 3), (4, 5, 6)], 6), 0) == 1

    def test_uniformity_enforced(self):
        with pytest.raises(UniformityError):
            ot.c_kt(family_of([(1, 2), (1, 2, 3)], 4), 1)

    def test_t_range_enforced(self):
        fam = all_k_subsets(4, 2)
        with pytest.raises(ValueError):
            ot.c_kt(fam, 2)
        with pytest.raises(ValueError):
            ot.c_kt(fam, -1)

    def test_empty_family_has_no_pair_at_any_t(self):
        # an empty family is k-uniform for every k, as _links takes it
        empty = SetFamily(6, [])
        assert [ot.c_kt(empty, t) for t in range(7)] == [0] * 7
        assert ot.check_application_bound(empty, 5, s=1)[:2] == (0, 0)
        with pytest.raises(ValueError, match="got t=-1"):
            ot.c_kt(empty, -1)

    def test_matches_set_oracle(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randrange(5, 9)
            k = rng.randrange(1, n)  # up to three bit planes in exact_t_rows
            m = rng.randrange(1, min(10, comb(n, k)) + 1)
            fam = random_uniform_family(rng, n, k, m)
            for t in range(k):
                assert ot.c_kt(fam, t) == pairs_exact_t(to_sets(fam), t)

    def test_steiner_shadow_near_block_addition(self, steiner_21_5_2_file):
        # adding a 4-set meeting a block in 3 points raises c_{4,2} by
        # (k-1) + 3*C(k-1,2) = 12 at k=4
        system = ot.load_steiner(steiner_21_5_2_file)
        f0 = ot.shadow(system.blocks, 4)
        assert ot.c_kt(f0, 2) == 0
        block = system.blocks.members[0].elements()
        outside = next(e for e in range(1, 22) if e not in block)
        added = BitSubset.from_elements(block[:3] + (outside,), 21)
        assert added not in f0
        extended = SetFamily(21, f0.masks + (added.mask,))
        assert ot.c_kt(extended, 2) == 12


class TestShadow:
    def test_single_4_set(self):
        shade = ot.shadow(family_of([(1, 2, 3, 4)], 4), 3)
        assert len(shade) == 4
        assert shade.canonical() == all_k_subsets(4, 3).canonical()

    def test_disjoint_blocks(self):
        fam = family_of([(1, 2, 3, 4), (5, 6, 7, 8)], 8)
        assert len(ot.shadow(fam, 3)) == 8

    def test_degenerate_full_block_design(self):
        system = ot.SteinerSystem(5, 5, 2, family_of([(1, 2, 3, 4, 5)], 5))
        shade = ot.shadow(system.blocks, 4)
        assert len(shade) == 5  # 6/(k(k-1)) * C(n, k-2) = 6/12 * 10 at k=4

    def test_rejects_k_at_member_size(self):
        with pytest.raises(ValueError):
            ot.shadow(family_of([(1, 2, 3)], 5), 3)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="shadow size must be non-negative, got -1"):
            ot.shadow(family_of([(1, 2, 3)], 5), -1)

    def test_shadow_of_shadow(self):
        rng = random.Random(17)
        for _ in range(20):
            fam = random_uniform_family(rng, 7, 5, 4)
            left = ot.shadow(ot.shadow(fam, 4), 2)
            right = ot.shadow(fam, 2)
            assert left == right


class TestLink:
    def test_point_link_in_complete_level(self):
        fam = all_k_subsets(5, 4)
        lk = ot.link(fam, BitSubset.from_elements([1], 5))
        assert len(lk) == 4
        assert all(1 not in m for m in lk.members)

    def test_non_contained_prefix_gives_empty_link(self):
        fam = family_of([(1, 2, 3)], 5)
        assert len(ot.link(fam, BitSubset.from_elements([4], 5))) == 0

    def test_link_count_identity_on_degenerate_shadow(self):
        f0 = ot.shadow(family_of([(1, 2, 3, 4, 5)], 5), 4)
        total = sum(
            len(ot.link(f0, BitSubset.from_elements([e], 5))) for e in range(1, 6)
        )
        assert total == comb(4, 1) * len(f0) == 20


class TestLinkIdentity:
    def test_k3_empty_prefix_is_family_itself(self):
        fam = family_of([(1, 2, 3), (2, 3, 4)], 5)
        result = ot.check_link_identity(fam, 3)
        assert result == (2, 2, True)

    def test_all_4_subsets_of_5(self):
        result = ot.check_link_identity(all_k_subsets(5, 4), 4)
        assert result.lhs == result.rhs == 20
        assert result.holds

    def test_disjoint_triples_n8(self):
        result = ot.check_link_identity(ot.disjoint_k4_triples(8), 3)
        assert result.lhs == result.rhs == 8

    def test_uniformity_and_k_range(self):
        with pytest.raises(UniformityError):
            ot.check_link_identity(family_of([(1, 2, 3)], 5), 4)
        with pytest.raises(ValueError):
            ot.check_link_identity(family_of([(1, 2)], 5), 2)

    def test_holds_on_random_uniform_families(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(5, 10)
            k = rng.choice([3, 4, 5])
            m = rng.randrange(1, min(12, comb(n, k)) + 1)
            fam = random_uniform_family(rng, n, k, m)
            assert ot.check_link_identity(fam, k).holds


class TestApplicationBound:
    def test_no_near_intersections_means_all_links_clean(self):
        fam = all_k_subsets(5, 4)
        result = ot.check_application_bound(fam, 4, s=1)
        assert (result.lhs, result.mid) == (0, 0)
        assert result.rhs == 3 * comb(4, 3)
        assert result.first_leg_holds

    def test_first_leg_on_random_families(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randrange(6, 11)
            k = rng.choice([4, 5])
            m = rng.randrange(2, min(12, comb(n, k)) + 1)
            fam = random_uniform_family(rng, n, k, m)
            result = ot.check_application_bound(fam, k, s=1)
            assert result.lhs >= result.mid

    def test_first_leg_is_an_identity(self):
        # members meeting in j points share C(j, k-3) links and meet oddly
        # there only when j = k-2, so both sides count (k-2) * c_{k,k-2}
        rng = random.Random(31)
        for k in (4, 5, 6):
            for n in range(k + 1, k + 4):
                for _ in range(20):
                    m = rng.randrange(1, min(12, comb(n, k)) + 1)
                    fam = random_uniform_family(rng, n, k, m)
                    result = ot.check_application_bound(fam, k, s=1)
                    assert result.lhs == result.mid, f"identity broke on {fam}"

    @pytest.mark.parametrize("n,holds", [(5, False), (6, True)])
    def test_conjectured_leg_is_reported(self, n, holds):
        # all 4-subsets: of [5] no two meet in 2 points, so mid = 0 < 12 = rhs;
        # of [6] mid = 90
        result = ot.check_application_bound(all_k_subsets(n, 4), 4, s=1)
        assert result.conjectured_leg_holds is holds

    def test_k_range(self):
        with pytest.raises(ValueError):
            ot.check_application_bound(all_k_subsets(5, 3), 3, s=1)


class TestRuleValidators:
    def test_eventown_pair_families(self):
        a, b = ot.eventown_pair(8)
        assert ot.is_eventown(a) and ot.is_eventown(b)
        assert not ot.is_oddtown(a)

    def test_singleton_families_are_oddtown(self):
        assert ot.is_oddtown(ot.singletons(6))

    def test_x5_is_not_oddtown(self):
        assert not ot.is_oddtown(ot.example_x5())

    def test_odd_sized_member_breaks_eventown(self):
        assert not ot.is_eventown(family_of([(1,), (2, 3)], 3))


class TestMaximalEventownSubfamily:
    def test_eventown_family_returns_itself(self):
        a, _ = ot.eventown_pair(4)
        for strategy in ("greedy", "exact"):
            result = ot.maximal_eventown_subfamily(a, strategy)
            assert result.masks == a.masks

    def test_perturbed_extremal_family_peaks_at_original_size(self):
        a, b = ot.eventown_pair(8)
        twin_only = sorted(set(b.masks) - set(a.masks))
        fam = SetFamily(8, a.masks + (twin_only[0],))
        exact = ot.maximal_eventown_subfamily(fam, "exact")
        assert len(exact) == 16
        assert ot.is_eventown(exact)

    def test_unknown_strategy_rejected(self):
        a, _ = ot.eventown_pair(4)
        with pytest.raises(ValueError, match="unknown strategy 'fast'"):
            ot.maximal_eventown_subfamily(a, "fast")

    def test_greedy_contract(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(2, 9)
            evens = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
            fam = SetFamily(n, rng.sample(evens, rng.randrange(1, min(14, len(evens)) + 1)))
            sub = ot.maximal_eventown_subfamily(fam, "greedy")
            chosen = set(sub.masks)
            assert chosen <= set(fam.masks)
            assert ot.is_eventown(sub)
            # maximality: every leftover member conflicts with the subfamily
            for m in fam.members:
                if m.mask in chosen:
                    continue
                extended = SetFamily(n, sub.masks + (m.mask,))
                assert not ot.is_eventown(extended)

    def test_parity_and_cap_errors(self, monkeypatch):
        with pytest.raises(ParityError):
            ot.maximal_eventown_subfamily(family_of([(1,)], 3))
        a, _ = ot.eventown_pair(8)
        monkeypatch.setattr(ot.setfamily, "EXACT_SUBFAMILY_CAP", 8)
        with pytest.raises(CapExceededError):
            ot.maximal_eventown_subfamily(a, "exact")


class TestBipartiteOddtown:
    def test_singleton_diagonal_pattern(self):
        xs = ot.singletons(4)
        assert ot.bipartite_oddtown_check(xs, xs)

    def test_x5_against_itself_fails(self):
        x5 = ot.example_x5()
        assert not ot.bipartite_oddtown_check(x5, x5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ot.bipartite_oddtown_check(ot.singletons(3), family_of([(1,)], 3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_pattern_one_past_the_ground_size(self, n):
        # Y_i choices are independent across i, so a full tuple exists iff
        # each diagonal constraint row is solvable on its own.
        subsets = list(range(1 << n))
        m = n + 1

        def completable(xs):
            return all(
                any(
                    all(
                        (y & xs[j]).bit_count() % 2 == (1 if i == j else 0)
                        for j in range(m)
                    )
                    for y in subsets
                )
                for i in range(m)
            )

        from itertools import product

        assert not any(completable(xs) for xs in product(subsets, repeat=m))


class TestOddFamilyRuleEquivalence:
    def test_op_zero_iff_oddtown_for_odd_sized_families(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randrange(2, 9)
            odds = [m for m in range(1 << n) if m.bit_count() % 2 == 1]
            fam = SetFamily(
                n, rng.sample(odds, rng.randrange(1, min(10, len(odds)) + 1))
            )
            assert (ot.op_count(fam) == 0) == ot.is_oddtown(fam)


class TestOpDensity:
    def test_even_sets_of_6(self):
        evens = SetFamily(6, [m for m in range(64) if m.bit_count() % 2 == 0])
        # for A outside {empty, full}, exactly half of the even-weight
        # subspace meets A oddly: density (2^(n-2) - 1)/(2^(n-1) - 1)
        assert ot.op_density(evens) == Fraction(15, 31)

    def test_eventown_density_zero(self):
        a, _ = ot.eventown_pair(4)
        assert ot.op_density(a) == 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            ot.op_density(family_of([(1,)], 2))


class TestFamilyFile:
    def test_round_trip(self, tmp_path):
        fam = SetFamily(5, [0, 0b11, 0b10100])
        path = tmp_path / "fam.txt"
        ot.save_family(fam, path)
        assert ot.load_family(path) == fam

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("# header comment\n\nn=4\n1 2  # a pair\n\nempty\n")
        fam = ot.load_family(path)
        assert [m.elements() for m in fam.members] == [(1, 2), ()]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(FamilyFormatError) as err:
            ot.load_family(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize(
        "text,line_no,message",
        [
            ("n=x\n1\n", 1, "bad ground size 'x'"),
            ("# n=4\n\nn=0\n", 3, "ground size must be >= 1, got 0"),
            ("# only\n\n# comments\n", None, "missing 'n=<ground_size>' header"),
            ("n= 4\n1\n", 1, "bad ground size ''"),
            ("n=4 n=4\n1\n", 1, "repeated header key 'n'"),
            ("n=4 k=3\n1\n", 1, "expected header 'n=<ground_size>'"),
            ("n=1_6\n1\n", 1, "bad ground size '1_6'"),
            ("n=-4\n1\n", 1, "bad ground size '-4'"),
            ("n=4\xa0\n1\n", 1, r"bad ground size '4\\xa0'"),
        ],
        ids=["not-a-number", "zero", "no-header-line", "space-after-equals", "repeated-key",
             "extra-key", "underscore", "minus", "no-break-space"],
    )
    def test_bad_header(self, tmp_path, text, line_no, message):
        path = tmp_path / "fam.txt"
        path.write_text(text)
        with pytest.raises(FamilyFormatError, match=message) as err:
            ot.load_family(path)
        assert err.value.line_no == line_no

    def test_repeated_member(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1 2\nempty\n2 1\n")
        with pytest.raises(FamilyFormatError, match=r"^line 4: duplicate member \{1 2\}$") as err:
            ot.load_family(path)
        assert err.value.line_no == 4

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1 2\n1 x\n")
        with pytest.raises(FamilyFormatError) as err:
            ot.load_family(path)
        assert err.value.line_no == 3

    def test_element_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n5\n")
        with pytest.raises(FamilyFormatError) as err:
            ot.load_family(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "body,expected",
        [
            ("01 +2\n", [(1, 2)]),
            ("1 1 2\n", [(1, 2)]),
            ("1\t2\n", [(1, 2)]),
            ("1 2\n01 +2 3\n+2 3\n", [(1, 2), (1, 2, 3), (2, 3)]),
            ("4\nempty\n1 3\n", [(4,), (), (1, 3)]),
        ],
        ids=["leading-zero-and-plus", "repeated-element", "tab", "after-known-tokens",
             "empty-between"],
    )
    def test_tokens_read_as_integers(self, tmp_path, body, expected):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n" + body)
        assert [m.elements() for m in ot.load_family(path).members] == expected

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1 2\n1 x\n", "bad set line '1 x'"),
            ("1 2\n2 5\n", r"element 5 outside ground set \[1, 4\]"),
            ("1 2\n0 1\n", r"element 0 outside ground set \[1, 4\]"),
            ("1 2\n1 empty\n", "bad set line '1 empty'"),
            ("1 2\n1 x\n2 5\n", "bad set line '1 x'"),
            ("1 2\n1_0\n", "bad set line '1_0'"),
            ("1 2\n\u0663\n", "bad set line '\u0663'"),
            ("1 2\n-1\n", "bad set line '-1'"),
            # only ASCII spaces and tabs separate tokens, and only line feeds lines
            ("1 2\n1\u20032\n", r"bad set line '1\\u20032'"),
            ("1 2\n3\xa04\n", r"bad set line '3\\xa04'"),
            ("1 2\n1 2\x0b3 4\n", r"bad set line '1 2\\x0b3 4'"),
            ("1 2\n1 2\x0c3 4\n", r"bad set line '1 2\\x0c3 4'"),
            ("1 2\n1 2\x853 4\n", r"bad set line '1 2\\x853 4'"),
            ("1 2\n1 2\u20283 4\n", r"bad set line '1 2\\u20283 4'"),
        ],
        ids=["bad-token", "above-range", "zero", "empty-with-element", "first-of-two-bad",
             "underscore", "arabic-indic-digit", "minus", "em-space", "no-break-space",
             "vertical-tab", "form-feed", "next-line", "line-separator"],
    )
    def test_errors_after_known_tokens(self, tmp_path, body, message):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n" + body)
        with pytest.raises(FamilyFormatError, match=message) as err:
            ot.load_family(path)
        assert err.value.line_no == 3

    def test_first_bad_line_in_file_order(self, tmp_path):
        # the repeat on line 3 comes before the element outside [1, 3] on line 4
        path = tmp_path / "fam.txt"
        path.write_text("n=3\n1 2\n1 2\n4\n")
        with pytest.raises(FamilyFormatError, match=r"^line 3: duplicate member \{1 2\}$"):
            ot.load_family(path)
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n4 3 2 1\n5 6 7 9\n")
        with pytest.raises(FamilyFormatError, match=r"^line 3: duplicate member \{1 2 3 4\}$"):
            ot.load_steiner(path)


_NUMBER = re.compile(r"\+?[0-9]+")


def reference_records(lines, what, n, empty):
    """A plain per-line reader of the records after a header on line 1.

    It gives the masks in order, or the (line number, message) of the
    first bad record: a token that is not a number makes the whole record
    bad, else the first element outside [1, n] does, else a set listed
    before.
    """
    masks = []
    for line_no, raw in enumerate(lines, start=2):
        line = raw.split("#")[0].strip(" \t")
        if not line:
            continue
        tokens = [] if line == empty else re.split("[ \t]+", line)
        if not all(_NUMBER.fullmatch(tok) for tok in tokens):
            return line_no, f"bad {what} line {line!r}"
        elements = sorted({int(tok) for tok in tokens})
        outside = [int(tok) for tok in tokens if not 1 <= int(tok) <= n]
        if outside:
            return line_no, f"element {outside[0]} outside ground set [1, {n}]"
        mask = sum(1 << (e - 1) for e in elements)
        if mask in masks:
            return line_no, "duplicate member {" + " ".join(map(str, elements)) + "}"
        masks.append(mask)
    return masks


@st.composite
def record_files(draw):
    """(n, blocks, lines): the lines after the header of a family or block file.

    Tokens are elements of [0, n + 2] spelled plainly, with "+" or with
    leading zeros, or tokens that are not numbers; lines hold tabs,
    comments, blanks and "empty", and n is small, so sets repeat.
    """
    n = draw(st.integers(1, 4))
    element = st.one_of(st.integers(1, n), st.integers(0, n + 2))
    spelled = st.builds(str.format, st.sampled_from(["{}", "+{}", "00{}"]), element)
    bad = st.sampled_from(["x", "-1", "1_0", "\u0663", "+", "1\xa02", "3\x0b4", "empty"])
    tokens = st.one_of(
        st.lists(spelled, min_size=1, max_size=4),
        st.lists(st.one_of(spelled, bad), min_size=1, max_size=4),
    )
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    record = st.builds(
        lambda toks, sep, pad, note: pad + sep.join(toks) + pad + note,
        tokens, gap, st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " # note", "#"]),
    )
    line = st.one_of(record, record, st.sampled_from(["", "empty", " empty\t# none", "# note"]))
    return n, draw(st.booleans()), draw(st.lists(line, max_size=10))


class TestRecordReaderAgainstReference:
    @given(record_files())
    @example((3, False, ["1 2", "1 2", "4"]))  # the repeat on line 3 is reported, not line 4
    @example((3, True, ["1 2", "+2 01", "x"]))
    @example((3, False, ["1 2", "4 x"]))  # a token that is not a number outranks 4
    def test_same_masks_or_same_error(self, tmp_path_factory, record_file):
        n, blocks, lines = record_file
        if blocks:
            header, what, empty, read = f"n={n} k=2 t=1", "block", None, ot.load_steiner
        else:
            header, what, empty, read = f"n={n}", "set", "empty", ot.load_family
        path = tmp_path_factory.mktemp("records") / "records.txt"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        expected = reference_records(lines, what, n, empty)
        # the blocks as read, before load_steiner checks the design
        with mock.patch.object(constructions, "SteinerSystem", lambda n, k, t, blocks: blocks):
            if isinstance(expected, tuple):
                with pytest.raises(FamilyFormatError) as err:
                    read(path)
                line_no, message = expected
                assert err.value.line_no == line_no
                assert str(err.value) == f"line {line_no}: {message}"
            else:
                assert read(path).masks == tuple(expected)
