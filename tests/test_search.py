"""Exact search engine: oracle agreement, determinism, budgets, statements."""

from __future__ import annotations

import json
import os
import threading
from math import comb

import pytest

import oddtown as ot
from oddtown import CheckpointError, InfeasibleSpecError, SearchSpec
from oddtown.search import candidate_pool, local_search, minimize, verify_theorem

from oracles import all_optima_brute, min_objective_brute, op_sets, pairs_exact_t, to_sets


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


# (mode, spec kwargs) -> (best_value, nodes_explored): the tree's work, which
# any change to its pruning or expansion order moves
NODE_COUNT_PINS = [
    ("bnb", dict(ground_size=6, family_size=9, family_class="even"), (4, 43_339)),
    ("bnb", dict(ground_size=5, family_size=7, family_class="odd"), (6, 6_663)),
    ("bnb", dict(ground_size=6, family_size=8, family_class="odd"), (4, 104_393)),
    ("bnb", dict(ground_size=6, family_size=9, family_class="uniform", k=4, objective="ckt", t=2),
     (12, 4_835)),
    # the first leaf reaches the floor 0 and stops the search; in the last two,
    # later root branches would add nodes had it not stopped
    ("bnb", dict(ground_size=5, family_size=5, family_class="uniform", k=4, objective="ckt", t=2),
     (0, 11)),
    ("bnb", dict(ground_size=6, family_size=5, family_class="uniform", k=4, objective="ckt", t=2),
     (0, 51)),
    ("bnb", dict(ground_size=5, family_size=5, family_class="odd"), (0, 54)),
    ("exhaustive", dict(ground_size=5, family_size=7, family_class="odd"), (6, 23_809)),
    ("exhaustive",
     dict(ground_size=6, family_size=9, family_class="uniform", k=4, objective="ckt", t=2),
     (12, 17_866)),
]


@pytest.mark.parametrize("mode,kw,expected", NODE_COUNT_PINS)
def test_node_counts_are_pinned(mode, kw, expected):
    result = minimize(SearchSpec(mode=mode, **kw))
    assert result.optimal
    assert (result.best_value, result.nodes_explored) == expected


class TestDeterminismAndSoundness:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_thread_count_does_not_change_answer(self, threads):
        for kw, expected in EXACT_INSTANCES[:6]:
            for mode in ("exhaustive", "bnb"):
                result = minimize(SearchSpec(mode=mode, threads=threads, **kw))
                baseline = minimize(SearchSpec(mode=mode, threads=1, **kw))
                assert result.best_value == baseline.best_value == expected
                assert result.witness == baseline.witness

    def test_symmetry_reduction_is_value_sound(self):
        for kw, expected in EXACT_INSTANCES:
            on = minimize(SearchSpec(mode="bnb", symmetry=True, **kw))
            off = minimize(SearchSpec(mode="bnb", symmetry=False, **kw))
            assert on.best_value == off.best_value == expected

    def test_symmetric_bnb_matches_symmetric_exhaustive(self):
        kw = dict(ground_size=5, family_size=6, family_class="odd")
        a = minimize(SearchSpec(mode="bnb", symmetry=True, **kw))
        b = minimize(SearchSpec(mode="exhaustive", symmetry=True, **kw))
        assert (a.best_value, a.witness) == (b.best_value, b.witness)

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
            seen = {(baseline.best_value, baseline.witness.masks())}
            for mode in ("exhaustive", "bnb"):
                for threads in (1, 3):
                    r = minimize(SearchSpec(mode=mode, threads=threads, **kw))
                    seen.add((r.best_value, r.witness.masks()))
            assert len(seen) == 1, f"divergence on {kw}: {seen}"

    def test_minimum_is_monotone_in_family_size(self):
        values = []
        for m in range(2, 8):
            r = minimize(SearchSpec(ground_size=4, family_size=m, family_class="odd", mode="bnb"))
            values.append(r.best_value)
        assert values == sorted(values)

    def test_n6_even_flagship_instance(self):
        spec = SearchSpec(ground_size=6, family_size=9, family_class="even", mode="bnb")
        assert spec.resolved_symmetry()
        result = minimize(spec)
        assert result.optimal
        assert result.best_value == 4  # matches the proven bound at s=1
        assert ot.op_count(result.witness) == 4


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

    def test_single_member_families(self):
        result = minimize(SearchSpec(ground_size=1, family_size=1, family_class="even", mode="bnb"))
        assert result.best_value == 0
        assert result.witness.masks() == (0,)
        result = minimize(SearchSpec(ground_size=3, family_size=1, family_class="odd", mode="exhaustive"))
        assert result.best_value == 0
        assert result.witness.masks() == (0b001,)

    def test_whole_pool_family(self):
        # m equals the class size: exactly one family exists
        spec = SearchSpec(ground_size=3, family_size=4, family_class="odd", mode="bnb")
        result = minimize(spec)
        assert result.optimal and result.best_value == 3
        assert len(result.witness) == 4

    def test_more_threads_than_roots(self):
        spec = SearchSpec(
            ground_size=3, family_size=3, family_class="odd", mode="bnb", threads=8
        )
        result = minimize(spec)
        baseline = minimize(
            SearchSpec(ground_size=3, family_size=3, family_class="odd", mode="bnb")
        )
        assert (result.best_value, result.witness) == (baseline.best_value, baseline.witness)

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

    # The worker count is clamped to none: whatever the CPU count and `threads`,
    # the tree runs on the calling thread.  The ids keep the (CPU count, workers
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
        for threads in (1, 2, 8):
            result = minimize(SearchSpec(threads=threads, **kw))
            assert (result.best_value, result.witness, result.nodes_explored) == (
                baseline.best_value, baseline.witness, baseline.nodes_explored
            )
        assert constructed == []

    @pytest.mark.parametrize(
        "budgets",
        [dict(budget_secs=float("nan")), dict(budget_secs=0.0), dict(budget_secs=-1.0),
         dict(budget_nodes=0)],
    )
    def test_budgets_must_be_positive(self, budgets):
        with pytest.raises(InfeasibleSpecError, match="budgets"):
            SearchSpec(ground_size=4, family_size=5, family_class="even", **budgets)

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
        assert doc["spec"]["ground_size"] == 4
        assert isinstance(doc["elapsed_ms"], int)


class TestCheckpoint:
    def test_resume_after_abort_matches_direct_run(self, tmp_path):
        kw = dict(ground_size=5, family_size=6, family_class="odd", symmetry=False)
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

    def test_resume_after_abort_at_two_threads(self, tmp_path):
        kw = dict(ground_size=5, family_size=6, family_class="odd", symmetry=False)
        direct = minimize(SearchSpec(mode="exhaustive", threads=1, **kw))
        path = tmp_path / "run.ckpt"
        partial = minimize(
            SearchSpec(mode="exhaustive", budget_nodes=6000, threads=2, **kw), checkpoint=path
        )
        assert not partial.optimal
        assert json.loads(path.read_text(encoding="utf-8"))["completed_roots"] >= 1
        resumed = minimize(SearchSpec(mode="exhaustive", threads=2, **kw), checkpoint=path)
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
            dict(completed_roots=-3),
            dict(completed_roots=5),  # the instance has 4 root branches
            dict(completed_roots=True),
            dict(completed_roots="1"),
            dict(nodes=-1),
            dict(nodes="12"),
        ]
        texts = ["[]", "{}", '"x"', "\xff\xfe"]
        texts += [json.dumps({**json.loads(good), **fields}) for fields in forged]
        # self-consistent but undigested: the genuine file, and one claiming all
        # 4 root branches are done with a real family of value 5
        undigested = {k: v for k, v in json.loads(good).items() if k != "digest"}
        texts.append(json.dumps(undigested))
        texts.append(json.dumps({**undigested, "completed_roots": 4, "best_value": 5,
                                 "witness": [0, 1, 2, 3, 4]}))
        for text in texts:
            path.write_bytes(text.encode("latin-1"))
            with pytest.raises(CheckpointError, match="run.ckpt"):
                minimize(spec, checkpoint=path)
        path.write_text(good, encoding="utf-8")
        assert minimize(spec, checkpoint=path).best_value == 2

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        kw = dict(ground_size=5, family_size=6, family_class="odd", symmetry=False)
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
    assert (result.best_value, result.witness.masks(), result.nodes_explored) == expected


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

    @pytest.mark.parametrize("n,s,minimum", [(7, 2, 4), (7, 3, 5)])
    def test_odd_class_minimum_is_s_plus_2_not_3s(self, n, s, minimum):
        # recorded finding: s+2 singleton/triple pairs over a reserved 2-set
        # plus padding singletons give n+s odd sets with op = s+2, and the
        # exact minimum matches; 3s only survives where n < s+4
        padded = ot.SetFamily.from_sets(
            n,
            [(i,) for i in range(1, n - 1)]
            + [(i, n - 1, n) for i in range(1, s + 3)],
        )
        assert len(padded) == n + s
        assert op_sets([frozenset(m.elements()) for m in padded.members]) == s + 2
        report = verify_theorem("conj-odd", n, s, symmetry=True)
        assert report.result.optimal
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.minimum == minimum == s + 2

    @pytest.mark.slow
    def test_odd_class_minimum_at_n8_s2(self):
        # the README's (n=8, s=2) finding: 10 odd sets over [8] with 4 odd
        # pairs, under the conjectured 6; ~50 s and ~137M evaluations
        report = verify_theorem("conj-odd", 8, 2, symmetry=True)
        assert report.result.optimal
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.minimum == 4
        assert ot.op_count(report.result.witness) == 4

    def test_conj_even_is_tight_across_its_range_at_n6(self):
        # recorded finding: the even-class bound s*2^(n/2-1) is attained for
        # every claimed s at n=6 although no twin-block construction exists
        for s in (3, 4, 5, 6):
            report = verify_theorem("conj-even", 6, s)
            assert report.result.optimal
            assert report.verdict == "TIGHT"
            assert report.minimum == 4 * s

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_theorem("thm-even", 4, 3)
        with pytest.raises(ValueError):
            verify_theorem("thm-odd", 4, 2)
        with pytest.raises(ValueError):
            verify_theorem("conj-odd", 4, 5)
        with pytest.raises(ValueError):
            verify_theorem("prob-uniform", 5, 1, 4)
        with pytest.raises(ValueError):
            verify_theorem("nope", 4, 1)

    def test_inconclusive_under_tiny_budget(self):
        report = verify_theorem("conj-odd", 5, 2, budget_nodes=40)
        assert report.verdict == "INCONCLUSIVE"

    def test_report_json_shape(self):
        report = verify_theorem("thm-odd", 4, 1)
        doc = report.to_json_dict()
        assert doc["verdict"] == "TIGHT"
        assert doc["claimed_bound"] == 3
        assert doc["search"]["best_value"] == 3
