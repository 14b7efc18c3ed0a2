"""Linear algebra core: parities, spans, kernels, complements, enumeration."""

from __future__ import annotations

import copy
import inspect
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddtown import (
    BitSubset,
    CapExceededError,
    Gf2Subspace,
    GroundSetMismatchError,
    SearchSpec,
    SetFamily,
    SteinerSystem,
    bipartite_oddtown_check,
    enumerate_subspace,
    eventown_pair,
    gf2,
    inner_parity,
    kernel_of_functional,
    link,
    nullspace,
    orthogonal_complement,
    rank,
    span,
    steiner_partition,
)
from oddtown.gf2 import _Value
from oddtown.search import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET

from oracles import mask_to_row, nullspace_enumerated, rank_dense, subspace_vectors


def bs(elements, n):
    return BitSubset.from_elements(elements, n)


class TestBitSubset:
    def test_elements_round_trip(self):
        s = bs([1, 3, 4], 6)
        assert s.elements() == (1, 3, 4)
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_mask_outside_ground_rejected(self):
        with pytest.raises(ValueError):
            BitSubset(0b1000, 3)
        with pytest.raises(ValueError):
            BitSubset(0, 0)

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            bs([5], 4)
        with pytest.raises(ValueError):
            bs([0], 4)

    def test_set_operations(self):
        a, b = bs([1, 2], 4), bs([2, 3], 4)
        assert (a & b).elements() == (2,)
        assert (a | b).elements() == (1, 2, 3)
        assert (a ^ b).elements() == (1, 3)
        assert a.difference(b).elements() == (1,)
        assert not a.issubset(b)
        assert bs([2], 4).issubset(b)
        assert bs([4], 4).isdisjoint(a)

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            bs([1], 3) & bs([1], 4)

    def test_str_lists_elements_and_empty_braces(self):
        assert str(bs([1, 3], 4)) == "{1 3}"
        assert str(BitSubset(0, 4)) == "{}"

    def test_ordering_is_by_mask(self):
        assert sorted([bs([3], 4), bs([1, 2], 4), bs([1], 4)]) == [
            bs([1], 4),
            bs([1, 2], 4),
            bs([3], 4),
        ]


SPEC_FIELDS = (
    "ground_size", "family_size", "family_class", "k", "objective", "t", "mode",
    "budget_nodes", "budget_secs", "seed", "restarts",
)
# the validated value types: (class, field names, field values)
VALUE_TYPES = [
    (BitSubset, ("mask", "ground_size"), (0b1011, 5)),
    (Gf2Subspace, ("ground_size", "rows"), (4, (0b0011, 0b0100))),
    (SetFamily, ("ground_size", "masks"), (4, (0b11, 0b100))),
    (SteinerSystem, ("n", "k", "t", "blocks"), (8, 4, 1, steiner_partition(8).blocks)),
    (
        SearchSpec,
        SPEC_FIELDS,
        (6, 9, "odd", None, "op", None, "local", 500, 2.5, 3, 2),
    ),
]


# every public call that checks ground sets, with the exact message it gives
# for operands over 3 and 4 points (its operands in the order it names them)
_A3, _B4 = BitSubset(0b101, 3), BitSubset(0b0110, 4)
_F3, _F4 = SetFamily(3, (_A3.mask,)), SetFamily(4, (_B4.mask,))
GROUND_MISMATCHES = {
    "and": (lambda: _A3 & _B4, "3 vs 4"),
    "or": (lambda: _A3 | _B4, "3 vs 4"),
    "xor": (lambda: _A3 ^ _B4, "3 vs 4"),
    "difference": (lambda: _A3.difference(_B4), "3 vs 4"),
    "issubset": (lambda: _A3.issubset(_B4), "3 vs 4"),
    "isdisjoint": (lambda: _A3.isdisjoint(_B4), "3 vs 4"),
    "inner_parity": (lambda: inner_parity(_A3, _B4), "3 vs 4"),
    "contains": (lambda: Gf2Subspace.full(4).contains(_A3), "3 vs 4"),
    "in": (lambda: _A3 in Gf2Subspace.full(4), "3 vs 4"),
    "is_subspace_of": (lambda: span([_A3]).is_subspace_of(Gf2Subspace.full(4)), "3 vs 4"),
    "span-mixed": (lambda: span([_A3, _B4]), "4 vs 3"),
    "span-ground_size": (lambda: span([_A3], ground_size=4), "4 vs 3"),
    "rank-mixed": (lambda: rank([_A3, _B4]), "4 vs 3"),
    "nullspace-mixed": (lambda: nullspace([_A3, _B4]), "4 vs 3"),
    "kernel_of_functional": (lambda: kernel_of_functional(Gf2Subspace.full(4), _A3), "3 vs 4"),
    "union": (lambda: _F3.union(_F4), "4 vs 3"),
    "link": (lambda: link(_F4, _A3), "3 vs 4"),
    "bipartite_oddtown_check": (lambda: bipartite_oddtown_check(_F3, _F4), "3 vs 4"),
}


@pytest.mark.parametrize("call,sizes", GROUND_MISMATCHES.values(), ids=GROUND_MISMATCHES)
def test_ground_mismatch_type_and_message(call, sizes):
    with pytest.raises(GroundSetMismatchError) as err:
        call()
    assert type(err.value) is GroundSetMismatchError
    assert str(err.value) == f"ground sets differ: {sizes}"


@pytest.mark.parametrize(
    "cls,names,values", VALUE_TYPES, ids=[t[0].__name__ for t in VALUE_TYPES]
)
class TestValueTypes:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls, names, values):
        a, b = cls(*values), cls(*values)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(values)
        assert tuple(getattr(a, name) for name in names) == values
        assert a != values  # a field tuple is not an instance

    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, values):
        obj = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert tuple(getattr(obj, name) for name in names) == values

    def test_repr_names_each_field(self, cls, names, values):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_copy_and_pickle_round_trip(self, cls, names, values):
        obj = cls(*values)
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def _value_classes(cls=_Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_every_value_type_is_checked_and_rebuilt_from_its_slots():
    # __reduce__ rebuilds an object as cls(*fields), so __init__ must take
    # exactly the __slots__ fields, in order
    classes = {cls for cls in _value_classes() if cls.__module__.startswith("oddtown.")}
    assert classes == {cls for cls, _, _ in VALUE_TYPES}
    for cls in classes:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert params == list(cls.__slots__), cls.__name__


class TestValueOrder:
    def test_bit_subset_orders_by_mask_then_ground_size(self):
        items = [BitSubset(2, 4), BitSubset(1, 5), BitSubset(1, 4), BitSubset(3, 4)]
        key = sorted(items, key=lambda b: (b.mask, b.ground_size))
        assert sorted(items) == key
        assert [(b.mask, b.ground_size) for b in key] == [(1, 4), (1, 5), (2, 4), (3, 4)]
        assert BitSubset(1, 4) < BitSubset(1, 5) <= BitSubset(1, 5) < BitSubset(2, 4)
        assert BitSubset(2, 4) > BitSubset(1, 5) >= BitSubset(1, 5)
        with pytest.raises(TypeError):
            BitSubset(1, 4) < 2  # noqa: B015

    def test_search_spec_positional_and_keyword_forms_agree(self):
        keyword = SearchSpec(ground_size=6, family_size=9, family_class="odd")
        assert SearchSpec(6, 9, "odd") == keyword
        defaults = (None, "op", None, "bnb", DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET, 0, 1)
        assert tuple(getattr(keyword, name) for name in SPEC_FIELDS[3:]) == defaults
        assert SearchSpec(6, 9, "odd", *defaults) == keyword
        values = (5, 6, "uniform", 3, "ckt", 1, "local", 7, 0.5, 4, 3)
        full = dict(zip(SPEC_FIELDS, values))
        assert SearchSpec(*full.values()) == SearchSpec(**full)


class TestInnerParity:
    def test_single_common_element_is_odd(self):
        assert inner_parity(bs([1, 2], 4), bs([2, 3], 4)) == 1

    def test_empty_set_is_orthogonal_to_everything(self):
        empty = BitSubset(0, 4)
        for mask in range(16):
            assert inner_parity(empty, BitSubset(mask, 4)) == 0

    def test_self_parity_is_cardinality_parity(self):
        s = bs([1, 2, 3], 4)
        assert inner_parity(s, s) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            inner_parity(bs([1], 3), bs([1], 4))

    @given(st.integers(2, 10), st.data())
    def test_matches_direct_intersection_count(self, n, data):
        u = data.draw(st.integers(0, (1 << n) - 1))
        v = data.draw(st.integers(0, (1 << n) - 1))
        a, b = BitSubset(u, n), BitSubset(v, n)
        assert inner_parity(a, b) == len(set(a.elements()) & set(b.elements())) % 2


class TestSpan:
    def test_standard_basis(self):
        assert span([bs([1], 2), bs([2], 2)]).dim == 2

    def test_duplicate_vector(self):
        assert span([bs([1, 2], 2), bs([1, 2], 2)]).dim == 1

    def test_empty_input_is_zero_subspace(self):
        w = span([], ground_size=3)
        assert w.dim == 0 and w.ground_size == 3

    def test_empty_input_needs_a_ground_size(self):
        with pytest.raises(ValueError, match="ground_size is required for an empty vector list"):
            span([])

    @pytest.mark.parametrize(
        "rows,message",
        [
            ((0b01, 0), "nonzero and inside the ground set"),
            ((0b1000,), "nonzero and inside the ground set"),  # ground size 3
            ((0b010, 0b001), "pivots must strictly increase"),
            ((0b011, 0b010), "not fully reduced"),  # pivot 1 of the second row is in the first
        ],
        ids=["zero-row", "outside", "pivot-order", "unreduced"],
    )
    def test_subspace_refuses_a_basis_not_in_reduced_form(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Gf2Subspace(3, rows)

    def test_subspace_refuses_an_empty_ground_set(self):
        with pytest.raises(ValueError, match="ground size must be >= 1, got 0"):
            Gf2Subspace(0, ())

    def test_eventown_family_span_dim_matches_dense_oracle(self):
        a, _ = eventown_pair(4)
        vectors = list(a.members)
        w = span(vectors)
        oracle = rank_dense([mask_to_row(v.mask, 4) for v in vectors])
        assert w.dim == oracle == 2

    def test_membership_closed_and_basis_contained(self):
        vectors = [bs([1, 2], 5), bs([2, 3], 5), bs([1, 3], 5)]
        w = span(vectors)
        for b in w.basis:
            assert w.contains(b)
        for u in vectors:
            for v in vectors:
                assert w.contains(u ^ v)

    @given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=8))
    def test_idempotent_rref(self, n, raw):
        masks = [m & ((1 << n) - 1) for m in raw]
        w = span([BitSubset(m, n) for m in masks], ground_size=n)
        again = span(list(w.basis), ground_size=n)
        assert w == again


class TestNullspace:
    def test_needs_a_vector(self):
        with pytest.raises(ValueError, match="nullspace needs at least one vector"):
            nullspace([])

    def test_duplicate_pair_dependency(self):
        v = bs([1, 3], 3)
        ns = nullspace([v, v])
        assert ns.dim >= 1
        assert ns.contains(0b11)

    def test_three_singletons_and_their_union(self):
        vectors = [bs([1], 3), bs([2], 3), bs([3], 3), bs([1, 2, 3], 3)]
        ns = nullspace(vectors)
        oracle = nullspace_enumerated([v.mask for v in vectors])
        assert ns.dim == 1
        assert ns.rows == (0b1111,)
        assert subspace_vectors(ns.rows) == oracle

    def test_independent_list_has_trivial_nullspace(self):
        vectors = [bs([1], 4), bs([2], 4), bs([3, 4], 4)]
        assert nullspace(vectors).dim == 0

    @given(st.integers(1, 6), st.lists(st.integers(0, 63), min_size=1, max_size=8))
    def test_rank_nullity(self, n, raw):
        masks = [m & ((1 << n) - 1) for m in raw]
        vectors = [BitSubset(m, n) for m in masks]
        assert rank(vectors) + nullspace(vectors).dim == len(vectors)

    @given(st.integers(1, 5), st.lists(st.integers(0, 31), min_size=1, max_size=6))
    def test_matches_enumeration_oracle(self, n, raw):
        masks = [m & ((1 << n) - 1) for m in raw]
        ns = nullspace([BitSubset(m, n) for m in masks])
        assert subspace_vectors(ns.rows) == nullspace_enumerated(masks)


class TestKernelOfFunctional:
    def test_hyperplane_of_the_plane(self):
        w = span([bs([1], 2), bs([2], 2)])
        ker = kernel_of_functional(w, bs([1], 2))
        assert ker.dim == 1
        assert ker.rows == (0b10,)

    def test_orthogonal_functional_gives_whole_space(self):
        w = span([bs([1, 2], 4), bs([3, 4], 4)])
        v = bs([1, 2], 4)  # even intersection with every basis vector
        assert kernel_of_functional(w, v) == w

    def test_twin_family_vector_cuts_dimension_by_one(self):
        a, b = eventown_pair(4)
        w = span(list(a.members))
        twin_only = sorted(set(b.masks) - set(a.masks))
        v = BitSubset(twin_only[0], 4)
        ker = kernel_of_functional(w, v)
        assert ker.dim == w.dim - 1 == 1
        # oracle: test parity across the whole enumerated subspace
        expected = {
            u.mask for u in enumerate_subspace(w) if (u.mask & v.mask).bit_count() % 2 == 0
        }
        assert subspace_vectors(ker.rows) == expected

    def test_kernel_dimension_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 9)
            vecs = [BitSubset(rng.randrange(1 << n), n) for _ in range(rng.randrange(1, 6))]
            w = span(vecs, ground_size=n)
            v = BitSubset(rng.randrange(1 << n), n)
            ker = kernel_of_functional(w, v)
            vanishes = all((r & v.mask).bit_count() % 2 == 0 for r in w.rows)
            assert ker.dim == (w.dim if vanishes else w.dim - 1)
            assert ker.is_subspace_of(w)


class TestOrthogonalComplement:
    def test_zero_and_full(self):
        zero = Gf2Subspace.zero(5)
        assert orthogonal_complement(zero) == Gf2Subspace.full(5)
        assert orthogonal_complement(Gf2Subspace.full(5)) == zero

    def test_two_dimensional_case(self):
        u = span([bs([1, 2, 3], 6), bs([3, 4, 5], 6)])
        perp = orthogonal_complement(u)
        assert u.dim == 2 and perp.dim == 4
        for x in perp.basis:
            for y in u.basis:
                assert inner_parity(x, y) == 0

    @given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=6))
    def test_involution_and_dimension_sum(self, n, raw):
        masks = [m & ((1 << n) - 1) for m in raw]
        u = span([BitSubset(m, n) for m in masks], ground_size=n)
        perp = orthogonal_complement(u)
        assert u.dim + perp.dim == n
        assert orthogonal_complement(perp) == u


class TestEnumerateSubspace:
    def test_zero_subspace_yields_zero_vector(self):
        out = enumerate_subspace(Gf2Subspace.zero(4))
        assert [v.mask for v in out] == [0]

    def test_dim_two_yields_four_distinct(self):
        w = span([bs([1], 3), bs([2, 3], 3)])
        out = enumerate_subspace(w)
        assert len(out) == 4
        assert len({v.mask for v in out}) == 4
        assert {v.mask for v in out} == subspace_vectors(w.rows)

    def test_eventown_span_at_n8_has_sixteen_even_vectors(self):
        a, _ = eventown_pair(8)
        w = span(list(a.members))
        out = enumerate_subspace(w)
        assert len(out) == 16
        assert all(len(v) % 2 == 0 for v in out)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 8)
        with pytest.raises(CapExceededError):
            enumerate_subspace(Gf2Subspace.full(10))


class TestSubsets:
    def test_matches_combinations_in_order(self):
        # ground sizes on both sides of the byte boundaries at bits 8 and 16
        rng = random.Random(20)
        for n in (1, 7, 8, 9, 15, 16, 17, 20):
            masks = [0, *(rng.getrandbits(n) for _ in range(6))]
            if n <= 9:
                masks.append((1 << n) - 1)  # 2^n subsets over all k
            for mask in masks:
                elements = [i for i in range(n) if mask >> i & 1]
                for k in range(len(elements) + 2):
                    expected = [sum(1 << e for e in c) for c in combinations(elements, k)]
                    assert list(gf2._subsets(mask, k)) == expected, (mask, k)


class TestEventownSelfDuality:
    def test_generated_eventown_spans_are_self_orthogonal(self):
        rng = random.Random(11)
        for n in (4, 8, 12):
            a, b = eventown_pair(n)
            for fam in (a, b):
                for _ in range(20):
                    size = rng.randrange(1, len(fam) + 1)
                    members = rng.sample(list(fam.members), size)
                    w = span(members, ground_size=n)
                    assert w.is_subspace_of(orthogonal_complement(w))
                    assert w.dim <= n // 2
