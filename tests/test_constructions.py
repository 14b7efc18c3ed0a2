"""Generators: sizes, validator outcomes and exact odd-pair counts."""

from __future__ import annotations

import hashlib
import random

import pytest

import oddtown as ot
from oddtown import FamilyFormatError, SetFamily, SteinerValidationError

from conftest import steiner_21_5_2_blocks
from oracles import op_sets, to_sets


class TestEventownPair:
    def test_n4_members_explicitly(self):
        a, b = ot.eventown_pair(4)
        assert {m.elements() for m in a.members} == {(), (1, 2), (3, 4), (1, 2, 3, 4)}
        assert {m.elements() for m in b.members} == {(), (1, 4), (2, 3), (1, 2, 3, 4)}

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_sizes_and_rules(self, n):
        a, b = ot.eventown_pair(n)
        assert len(a) == len(b) == 1 << (n // 2)
        assert ot.is_eventown(a) and ot.is_eventown(b)
        assert ot.op_count(a) == ot.op_count(b) == 0

    def test_overlap_is_whole_block_unions(self):
        a, b = ot.eventown_pair(8)
        common = set(a.masks) & set(b.masks)
        blocks = [0b1111, 0b11110000]
        expected = {0, blocks[0], blocks[1], blocks[0] | blocks[1]}
        assert common == expected

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ot.eventown_pair(6)

    def test_member_order_n8(self):
        a, b = ot.eventown_pair(8)
        assert a.masks == (
            0, 3, 12, 15, 48, 51, 60, 63, 192, 195, 204, 207, 240, 243, 252, 255
        )
        assert b.masks == (
            0, 9, 6, 15, 144, 153, 150, 159, 96, 105, 102, 111, 240, 249, 246, 255
        )


class TestEventownPlus:
    @pytest.mark.parametrize("n", [4, 8])
    def test_op_formula_every_valid_s(self, n):
        k, l = n // 2, n // 4
        for s in range(1, (1 << k) - (1 << l) + 1):
            fam = ot.eventown_plus(n, s)
            assert len(fam) == (1 << k) + s
            assert ot.op_count(fam) == s * (1 << (k - 1))

    def test_n12_spot_checks(self):
        for s in (1, 7, 56):
            fam = ot.eventown_plus(12, s)
            assert len(fam) == 64 + s
            assert ot.op_count(fam) == s * 32

    def test_every_odd_pair_involves_the_single_added_set(self):
        fam = ot.eventown_plus(8, 1)
        report = ot.op(fam, materialize_pairs=True)
        assert report.op_count == 8
        added_index = len(fam) - 1
        assert all(added_index in pair for pair in report.pairs)

    def test_seeded_selector_is_deterministic_and_valid(self):
        one = ot.eventown_plus(8, 3, seed=42)
        two = ot.eventown_plus(8, 3, seed=42)
        other = ot.eventown_plus(8, 3, seed=43)
        assert one == two
        assert ot.op_count(one) == 3 * 8 == ot.op_count(other)

    def test_s_range(self):
        with pytest.raises(ValueError):
            ot.eventown_plus(4, 0)
        with pytest.raises(ValueError):
            ot.eventown_plus(4, 3)  # |twin \ base| = 2 at n=4

    def test_rejects_n_not_divisible_by_4(self):
        with pytest.raises(ValueError, match="need n divisible by 4, got 6"):
            ot.eventown_plus(6, 1)

    def test_saved_file_bytes_n24(self, tmp_path):
        # the 4,100-member family of the wide benchmark, as its file has always read
        path = tmp_path / "plus.txt"
        family = ot.eventown_plus(24, 4, seed=3)
        ot.save_family(family, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "d20263281f17ca40e85c076176f85b517ffb51340910981a344c379e68949a2f"
        assert ot.load_family(path) == family


class TestOddtownSide:
    def test_singletons(self):
        fam = ot.singletons(3)
        assert [m.elements() for m in fam.members] == [(1,), (2,), (3,)]
        assert ot.is_oddtown(fam)
        assert ot.op_count(fam) == 0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_disjoint_triples(self, n):
        fam = ot.disjoint_k4_triples(n)
        assert len(fam) == n
        assert ot.is_oddtown(fam)
        assert ot.op_count(fam) == 0

    def test_triples_n4_are_all_triples_of_4(self):
        fam = ot.disjoint_k4_triples(4)
        assert {m.elements() for m in fam.members} == {
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
        }

    @pytest.mark.parametrize("n,s", [(4, 1), (8, 4), (12, 12), (16, 5)])
    def test_oddtown_plus_formula(self, n, s):
        fam = ot.oddtown_plus(n, s)
        assert len(fam) == n + s
        assert ot.op_count(fam) == 3 * s

    def test_oddtown_plus_pair_structure_at_s1(self):
        fam = ot.oddtown_plus(4, 1)
        report = ot.op(fam, materialize_pairs=True)
        triple = fam.members[-1]
        expected = {(e - 1, 4) for e in triple.elements()}
        assert set(report.pairs) == expected

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ot.oddtown_plus(6, 1)
        with pytest.raises(ValueError):
            ot.oddtown_plus(8, 9)


class TestNamedExamples:
    def test_x5(self):
        fam = ot.example_x5()
        assert len(fam) == 6 and fam.ground_size == 5
        assert ot.op_count(fam) == 3
        # no 5-member subfamily obeys odd rules
        for skip in range(6):
            sub = SetFamily(5, tuple(m for i, m in enumerate(fam.masks) if i != skip))
            assert not ot.is_oddtown(sub)

    def test_f1(self):
        fam = ot.example_f1()
        assert len(fam) == 6 and fam.ground_size == 5
        assert ot.op_count(fam) == 4
        assert all(len(m) == 3 for m in fam.members)

    @pytest.mark.parametrize("k", [5, 7])
    def test_f2(self, k):
        fam = ot.example_f2(k)
        assert fam.ground_size == 2 * k + 2
        assert len(fam) == 2 * k + 3
        assert all(len(m) == k for m in fam.members)
        assert ot.op_count(fam) == 5
        assert op_sets(to_sets(fam)) == 5

    def test_singletons_need_a_point(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            ot.singletons(0)

    def test_f2_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ot.example_f2(4)
        with pytest.raises(ValueError):
            ot.example_f2(3)


class TestSteinerSystems:
    def test_partition_n8(self):
        system = ot.steiner_partition(8)
        assert {b.elements() for b in system.blocks.members} == {
            (1, 2, 3, 4),
            (5, 6, 7, 8),
        }

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_partition_shadow_is_the_triple_family(self, n):
        system = ot.steiner_partition(n)
        shade = ot.shadow(system.blocks, 3)
        assert shade.canonical() == ot.disjoint_k4_triples(n).canonical()
        assert len(shade) == n  # 6/(k(k-1)) * C(n, k-2) at k=3

    def test_degenerate_full_block_is_valid(self):
        system = ot.SteinerSystem(
            5, 5, 2, SetFamily.from_sets(5, [(1, 2, 3, 4, 5)])
        )
        assert len(ot.shadow(system.blocks, 4)) == 5

    @pytest.mark.parametrize(
        "n,k,t,blocks",
        [
            (4, 2, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # t = k, a cover
            (3, 4, 1, []),  # k > n
        ],
        ids=["t-equals-k", "k-above-n"],
    )
    def test_parameters_outside_0_t_k_n_are_refused(self, n, k, t, blocks):
        with pytest.raises(ValueError, match=f"need 0 < t < k <= n, got n={n}, k={k}, t={t}"):
            ot.SteinerSystem(n, k, t, SetFamily.from_sets(n, blocks))

    def test_blocks_over_another_ground_size_are_refused(self):
        # the partition of [8] into quadruples, over a ground set of 12
        blocks = SetFamily.from_sets(12, [(1, 2, 3, 4), (5, 6, 7, 8)])
        with pytest.raises(ValueError, match="blocks over ground size 12, expected 8"):
            ot.SteinerSystem(8, 4, 1, blocks)

    def test_bad_cover_is_rejected_with_offender(self):
        blocks = SetFamily.from_sets(8, [(1, 2, 3, 4), (4, 5, 6, 7)])
        with pytest.raises(SteinerValidationError) as err:
            ot.SteinerSystem(8, 4, 1, blocks)
        assert err.value.offending == (4,)

    def test_first_bad_pair_is_reported_with_its_message(self):
        # the Fano plane with {3,5,6} moved to {3,5,7}: pairs before (3, 6) in
        # lex order are still covered once, (3, 6) by no block, (3, 7) by two
        fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 7)]
        with pytest.raises(
            SteinerValidationError, match=r"^2-set \{3, 6\} lies in 0 blocks, expected 1$"
        ) as err:
            ot.SteinerSystem(7, 3, 2, SetFamily.from_sets(7, fano))
        assert err.value.offending == (3, 6)

    def test_wrong_block_size_rejected(self):
        blocks = SetFamily.from_sets(8, [(1, 2, 3), (4, 5, 6, 7)])
        with pytest.raises(SteinerValidationError):
            ot.SteinerSystem(8, 4, 1, blocks)

    def test_difference_set_design_is_valid(self, steiner_21_5_2_file):
        system = ot.load_steiner(steiner_21_5_2_file, n=21, k=5, t=2)
        assert len(system.blocks) == 21
        shade = ot.shadow(system.blocks, 4)
        assert len(shade) == 105  # 6/(4*3) * C(21, 2)

    def test_header_mismatch(self, steiner_21_5_2_file):
        with pytest.raises(ValueError):
            ot.load_steiner(steiner_21_5_2_file, n=20)

    def test_save_load_round_trip(self, tmp_path):
        system = ot.steiner_partition(8)
        path = tmp_path / "partition.blocks"
        ot.save_steiner(system, path)
        again = ot.load_steiner(path)
        assert again.blocks == system.blocks
        assert (again.n, again.k, again.t) == (8, 4, 1)

    def test_block_tokens_read_as_integers(self, tmp_path):
        path = tmp_path / "partition.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n05 +6 7\t8\n")
        assert ot.load_steiner(path).blocks == ot.steiner_partition(8).blocks

    @pytest.mark.parametrize(
        "block,message",
        [
            ("5 6 x 8", "bad block line '5 6 x 8'"),
            ("empty", "bad block line 'empty'"),
            ("5 6 7 9", r"element 9 outside ground set \[1, 8\]"),
        ],
        ids=["bad-token", "empty", "out-of-range"],
    )
    def test_bad_block_reports_line(self, tmp_path, block, message):
        path = tmp_path / "bad.blocks"
        path.write_text(f"n=8 k=4 t=1\n1 2 3 4\n{block}\n")
        with pytest.raises(FamilyFormatError, match=message) as err:
            ot.load_steiner(path)
        assert err.value.line_no == 3

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.blocks"
        path.write_text("n=8 k=4\n1 2 3 4\n")
        with pytest.raises(FamilyFormatError):
            ot.load_steiner(path)

    @pytest.mark.parametrize(
        "text,line_no,message",
        [
            ("n=x k=4 t=1\n", 1, "bad ground size 'x'"),
            ("n=8 k=four t=1\n", 1, "bad k 'four'"),
            ("# blocks only\n1 2 3 4\n", 2, "expected header 'n=<n> k=<k> t=<t>'"),
            ("# no lines\n\n", None, "missing 'n=<n> k=<k> t=<t>' header"),
            ("# design\n\nn=0 k=4 t=1\n", 3, "ground size must be >= 1, got 0"),
            ("n=8 k=4 t=0\n1 2 3 4\n", 1, "t must be >= 1, got 0"),
        ],
        ids=["bad-n", "bad-k", "no-header-line", "no-lines", "n-zero", "t-zero"],
    )
    def test_bad_header_reports_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "bad.blocks"
        path.write_text(text)
        with pytest.raises(FamilyFormatError, match=message) as err:
            ot.load_steiner(path)
        assert err.value.line_no == line_no

    def test_repeated_block(self, tmp_path):
        path = tmp_path / "twice.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n4 3 2 1\n5 6 7 8\n")
        message = r"^line 3: duplicate member \{1 2 3 4\}$"
        with pytest.raises(FamilyFormatError, match=message) as err:
            ot.load_steiner(path)
        assert err.value.line_no == 3

    def test_header_mismatch_comes_before_the_blocks(self, tmp_path):
        path = tmp_path / "bad.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n5 6 x 8\n")
        with pytest.raises(ValueError, match="^n=9 does not match file header n=8$"):
            ot.load_steiner(path, n=9)

    def test_invalid_cover_via_file(self, tmp_path):
        path = tmp_path / "bad.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n4 5 6 7\n")
        with pytest.raises(SteinerValidationError):
            ot.load_steiner(path)


class TestSeededSelectors:
    def test_op_formulas_hold_for_any_selection(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.choice([4, 8])
            k, l = n // 2, n // 4
            s = rng.randrange(1, (1 << k) - (1 << l) + 1)
            fam = ot.eventown_plus(n, s, seed=rng.randrange(10**6))
            assert ot.op_count(fam) == s * (1 << (k - 1))
            s2 = rng.randrange(1, n + 1)
            fam2 = ot.oddtown_plus(n, s2, seed=rng.randrange(10**6))
            assert ot.op_count(fam2) == 3 * s2

    def test_blocks_helper_consistency(self):
        # the partition design's blocks and the pair-block construction agree
        for n in (4, 8):
            a, _ = ot.eventown_pair(n)
            quads = ot.steiner_partition(n).blocks
            union_of_all = 0
            for b in quads.masks:
                union_of_all |= b
            assert union_of_all == (1 << n) - 1
            assert steiner_21_5_2_blocks()[0] == (1, 2, 7, 9, 19)
