"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria with stated runtime limits assert them with time.monotonic.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import oddtown as ot
from oddtown import SearchSpec, SetFamily
from oddtown.cli import main as cli_main
from oddtown.search import minimize, verify_theorem


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def random_uniform_family(rng, n, k, m) -> SetFamily:
    pool = list(combinations(range(1, n + 1), k))
    return SetFamily.from_sets(n, rng.sample(pool, m))


def exact(spec_kwargs):
    result = minimize(SearchSpec(**spec_kwargs))
    assert result.optimal, f"search did not complete: {spec_kwargs}"
    return result


def test_criterion_1_construction_values():
    with criterion(1, "construction op values are exact"):
        start = time.monotonic()
        assert ot.op_count(ot.example_x5()) == 3
        assert ot.op_count(ot.example_f1()) == 4
        assert ot.op_count(ot.example_f2(5)) == 5
        assert ot.op_count(ot.example_f2(7)) == 5
        for n in (4, 8, 12):
            k, l = n // 2, n // 4
            for s in range(1, (1 << k) - (1 << l) + 1):
                assert ot.op_count(ot.eventown_plus(n, s)) == s * (1 << (k - 1))
        for n in (4, 8, 12, 16):
            for s in range(1, n + 1):
                assert ot.op_count(ot.oddtown_plus(n, s)) == 3 * s
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"construction checks took {elapsed:.1f}s"


def test_criterion_2_even_family_oracle():
    with criterion(2, "even-class minima match s*2^(n/2-1) and hold at n=5,6"):
        start = time.monotonic()
        r45 = exact(dict(ground_size=4, family_size=5, family_class="even", mode="exhaustive"))
        r46 = exact(dict(ground_size=4, family_size=6, family_class="even", mode="exhaustive"))
        assert r45.best_value == 2
        assert r46.best_value == 4
        elapsed_n4 = time.monotonic() - start
        assert elapsed_n4 < 1.0, f"n=4 instances took {elapsed_n4:.2f}s"

        r55 = exact(dict(ground_size=5, family_size=5, family_class="even", mode="exhaustive"))
        assert r55.best_value >= 2
        assert r55.best_value == 2  # recorded data point: the bound is tight at n=5

        t6 = time.monotonic()
        spec6 = SearchSpec(ground_size=6, family_size=9, family_class="even", mode="bnb")
        r69 = minimize(spec6)
        elapsed_n6 = time.monotonic() - t6
        assert r69.optimal
        assert r69.best_value >= 4
        assert r69.best_value == 4  # recorded data point: tight at n=6 as well
        assert elapsed_n6 < 600.0, f"n=6 instance took {elapsed_n6:.1f}s"


def test_criterion_3_odd_family_oracle():
    with criterion(3, "odd-class minima are exactly 3 at (3,4), (4,5), (5,6)"):
        start = time.monotonic()
        for n, m in ((3, 4), (4, 5), (5, 6)):
            r = exact(dict(ground_size=n, family_size=m, family_class="odd", mode="exhaustive"))
            assert r.best_value == 3, f"(n={n}, m={m}) gave {r.best_value}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"odd oracle took {elapsed:.1f}s"


def test_criterion_4_larger_odd_families_probe():
    with criterion(4, "odd-class minima at (4,6), (4,7), (5,7) compared against 3s"):
        start = time.monotonic()
        findings = []
        expected = {(4, 6): 6, (4, 7): 9, (5, 7): 6}  # frozen from exhaustive runs
        for (n, m), frozen in expected.items():
            report = verify_theorem("conj-odd", n, m - n, mode="exhaustive")
            assert report.result.optimal
            assert report.minimum == frozen
            findings.append(
                f"(n={n}, m={m}): min={report.minimum} "
                f"bound={report.claimed_bound} {report.verdict}"
            )
            # a counterexample would be a finding, not a test failure
            assert report.verdict in ("HOLDS", "TIGHT", "COUNTEREXAMPLE")
        print("criterion 4 findings: " + "; ".join(findings))
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"probe took {elapsed:.1f}s"


def test_criterion_5_uniform_triple_data_point():
    with criterion(5, "3-uniform minimum at (n=5, m=6) equals 4 with f1 optimal"):
        start = time.monotonic()
        r = exact(
            dict(ground_size=5, family_size=6, family_class="uniform", k=3, mode="exhaustive")
        )
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"instance took {elapsed:.2f}s"
        print(
            f"criterion 5 measurement: minimum={r.best_value}, "
            f"witness={[list(m.elements()) for m in r.witness.members]}"
        )
        # The stated expectation conflicts with the class itself: the six-triple
        # star family (all members contain point 1) is 3-uniform with only 3 odd
        # pairs, and 3 is also the proven floor for any six odd-sized sets over
        # [5].  The assertions below state the expectation faithfully anyway.
        assert r.best_value == 4, (
            f"exhaustive minimum over 3-uniform families (n=5, m=6) is "
            f"{r.best_value}, not 4: the six-triple star family attains "
            f"{r.best_value} odd pairs"
        )
        f1 = {m.mask for m in ot.example_f1().members}
        pool = [sum(1 << (e - 1) for e in c) for c in combinations(range(1, 6), 3)]
        optima = [
            fam
            for fam in combinations(sorted(pool), 6)
            if ot.op_count(SetFamily(5, fam)) == r.best_value
        ]
        assert any(set(fam) == f1 for fam in optima)


def test_criterion_6_link_identity():
    with criterion(6, "link double count is an exact identity"):
        assert ot.check_link_identity(
            SetFamily.from_sets(5, combinations(range(1, 6), 4)), 4
        ) == (20, 20, True)
        assert ot.check_link_identity(ot.disjoint_k4_triples(8), 3) == (8, 8, True)
        rng = random.Random(202)
        for _ in range(100):
            k = rng.choice([3, 4, 5])
            n = rng.randrange(k + 1, 11)
            m = rng.randrange(1, min(12, comb(n, k)) + 1)
            fam = random_uniform_family(rng, n, k, m)
            result = ot.check_link_identity(fam, k)
            assert result.holds, f"identity broke on {fam}"


def test_criterion_7_application_chain_first_leg():
    with criterion(7, "c_{k,k-2}*(k-2) >= sum of link op counts on 2000 random families"):
        rng = random.Random(303)
        for k in (4, 5):
            for _ in range(1000):
                n = rng.randrange(k + 1, 11)
                m = rng.randrange(2, min(12, comb(n, k)) + 1)
                fam = random_uniform_family(rng, n, k, m)
                result = ot.check_application_bound(fam, k, s=1)
                assert result.lhs >= result.mid, f"first leg broke on {fam}"


def test_criterion_8_gf2_property_suite():
    with criterion(8, "10^4 randomized linear-algebra checks, zero failures"):
        rng = random.Random(404)
        checks = 0

        for _ in range(3000):  # rank-nullity
            n = rng.randrange(1, 13)
            vecs = [
                ot.BitSubset(rng.randrange(1 << n), n)
                for _ in range(rng.randrange(1, 14))
            ]
            assert ot.rank(vecs) + ot.nullspace(vecs).dim == len(vecs)
            checks += 1

        for _ in range(3000):  # complement involution
            n = rng.randrange(1, 13)
            vecs = [
                ot.BitSubset(rng.randrange(1 << n), n) for _ in range(rng.randrange(0, 8))
            ]
            u = ot.span(vecs, ground_size=n)
            perp = ot.orthogonal_complement(u)
            assert u.dim + perp.dim == n
            assert ot.orthogonal_complement(perp) == u
            checks += 1

        for _ in range(2000):  # kernel dimension of a parity functional
            n = rng.randrange(1, 13)
            vecs = [
                ot.BitSubset(rng.randrange(1 << n), n) for _ in range(rng.randrange(1, 8))
            ]
            w = ot.span(vecs, ground_size=n)
            v = ot.BitSubset(rng.randrange(1 << n), n)
            ker = ot.kernel_of_functional(w, v)
            vanishes = all((r & v.mask).bit_count() % 2 == 0 for r in w.rows)
            assert ker.dim == (w.dim if vanishes else w.dim - 1)
            checks += 1

        pairs = {n: ot.eventown_pair(n) for n in (4, 8, 12)}
        for _ in range(2000):  # self-duality of even-rule family spans
            n = rng.choice([4, 8, 12])
            fam = pairs[n][rng.randrange(2)]
            size = rng.randrange(1, len(fam) + 1)
            members = rng.sample(list(fam.members), size)
            w = ot.span(members, ground_size=n)
            assert w.is_subspace_of(ot.orthogonal_complement(w))
            assert w.dim <= n // 2
            checks += 1

        assert checks == 10_000


def test_criterion_9_bipartite_pattern_exhausted_at_n3():
    with criterion(9, "no bipartite odd-diagonal pattern of size 4 exists over [3]"):
        start = time.monotonic()
        n = 3
        subsets = list(range(1 << n))

        def pattern_completable(xs: tuple[int, ...]) -> bool:
            # Y_i can be chosen independently: it must meet X_i oddly and
            # every other X_j evenly, so a full tuple exists iff each row
            # of the constraint system is solvable.
            for i in range(len(xs)):
                ok = False
                for y in subsets:
                    if all(
                        (y & xs[j]).bit_count() % 2 == (1 if i == j else 0)
                        for j in range(len(xs))
                    ):
                        ok = True
                        break
                if not ok:
                    return False
            return True

        # positive control at the proven maximum size n
        diag = tuple(1 << i for i in range(n))
        assert pattern_completable(diag)
        assert ot.bipartite_oddtown_check(ot.singletons(n), ot.singletons(n))

        # the factored check agrees with the definition on full tuples
        rng = random.Random(505)
        for _ in range(200):
            xs = tuple(rng.randrange(1 << n) for _ in range(2))
            ys = tuple(rng.randrange(1 << n) for _ in range(2))
            direct = all(
                (xs[i] & ys[j]).bit_count() % 2 == (1 if i == j else 0)
                for i in range(2)
                for j in range(2)
            )
            if direct:
                assert pattern_completable(xs)

        count = sum(
            1
            for xs in ((a, b, c, d) for a in subsets for b in subsets
                       for c in subsets for d in subsets)
            if pattern_completable(xs)
        )
        assert count == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"


def test_criterion_10_density_windows():
    with criterion(10, "exact odd-pair densities sit in their predicted windows"):
        evens6 = SetFamily(6, [m for m in range(1 << 6) if m.bit_count() % 2 == 0])
        evens8 = SetFamily(8, [m for m in range(1 << 8) if m.bit_count() % 2 == 0])
        d6, d8 = ot.op_density(evens6), ot.op_density(evens8)
        assert d6 == Fraction(15, 31)
        assert d8 == Fraction(63, 127)
        assert Fraction(2, 5) < d6 < Fraction(1, 2)
        assert Fraction(2, 5) < d8 < Fraction(1, 2)
        assert d6 < d8  # approaches 1/2 from below as n grows

        a, b = ot.eventown_pair(8)
        both = a.union(b)
        assert len(both) == 28
        d_ab = ot.op_density(both)
        assert d_ab == Fraction(96, comb(28, 2))  # each twin-only set meets 2^(k-1) oddly
        assert Fraction(1, 5) < d_ab < Fraction(3, 10)


def test_criterion_11_determinism_and_mode_equivalence():
    with criterion(11, "thread count and search mode never change value or witness"):
        instances = [
            dict(ground_size=4, family_size=5, family_class="even"),
            dict(ground_size=4, family_size=6, family_class="even"),
            dict(ground_size=5, family_size=5, family_class="even"),
            dict(ground_size=3, family_size=4, family_class="odd"),
            dict(ground_size=4, family_size=5, family_class="odd"),
            dict(ground_size=5, family_size=6, family_class="odd"),
            dict(ground_size=4, family_size=6, family_class="odd"),
            dict(ground_size=4, family_size=7, family_class="odd"),
            dict(ground_size=5, family_size=7, family_class="odd"),
            dict(ground_size=5, family_size=6, family_class="uniform", k=3),
        ]
        for kw in instances:
            plain = minimize(SearchSpec(mode="exhaustive", **kw))
            bnb = minimize(SearchSpec(mode="bnb", **kw))
            assert (bnb.best_value, bnb.witness) == (plain.best_value, plain.witness)

        # a thread count can be given only to the CLI, which drops it: the
        # flagship branch-and-bound instance gives one answer for each
        answers = set()
        for threads in ("1", "2", "8"):
            argv = ["search", "--class", "even", "--n", "6", "--m", "9", "--threads", threads]
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main(argv) == 0
            doc = json.loads(out.getvalue())
            answers.add((doc["best_value"], json.dumps(doc["witness"])))
        assert len(answers) == 1
