"""Command-line interface: outputs, exit codes, round trips, schema."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import jsonschema
import pytest

import oddtown as ot
from oddtown import cli
from oddtown import search as se
from oddtown.cli import main

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "search_result.schema.json").read_text())


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


def run_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`python argv` in a child process that imports this oddtown."""
    src = str(Path(ot.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        text=True,
        **kwargs,
    )


class TestConstruct:
    def test_x5_stats(self, capsys):
        code, doc = run(capsys, "construct", "--family", "x5")
        assert code == 0
        assert doc["op"] == 3 and doc["size"] == 6 and doc["n"] == 5

    def test_eventown_plus(self, capsys):
        code, doc = run(capsys, "construct", "--family", "eventown-plus", "--n", "8", "--s", "2")
        assert code == 0
        assert doc["size"] == 18 and doc["op"] == 16

    def test_oddtown_plus(self, capsys):
        code, doc = run(capsys, "construct", "--family", "oddtown-plus", "--n", "4", "--s", "1")
        assert code == 0
        assert doc["size"] == 5 and doc["op"] == 3

    def test_k4_triples_validator_flags(self, capsys):
        code, doc = run(capsys, "construct", "--family", "k4-triples", "--n", "8")
        assert code == 0
        assert doc["is_oddtown"] is True and doc["is_eventown"] is False

    def test_steiner_partition_reports_its_design(self, capsys):
        code, doc = run(capsys, "construct", "--family", "steiner-partition", "--n", "8")
        assert code == 0
        assert doc["size"] == 2 and doc["op"] == 0
        assert doc["steiner_valid"] is True
        assert doc["design"] == {"n": 8, "k": 4, "t": 1}

    def test_round_trip_through_analyze(self, capsys, tmp_path):
        out = tmp_path / "fam.txt"
        code, doc = run(
            capsys, "construct", "--family", "f2", "--k", "5", "--out", str(out)
        )
        assert code == 0 and out.exists()
        code2, doc2 = run(capsys, "analyze", "--in", str(out))
        assert code2 == 0
        assert doc2["op"] == doc["op"] == 5
        assert doc2["size"] == doc["size"]

    def test_missing_parameter_is_usage_error(self, capsys):
        code = main(["construct", "--family", "eventown-plus", "--n", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--s" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--family", "x5", "--n", "9"], "--n"),
            (["--family", "x5", "--seed", "3"], "--seed"),
            (["--family", "singletons", "--n", "4", "--s", "2"], "--s"),
            (["--family", "f1", "--k", "5"], "--k"),
            (["--family", "steiner-partition", "--n", "8", "--seed", "1"], "--seed"),
        ],
        ids=["x5-n", "x5-seed", "singletons-s", "f1-k", "steiner-partition-seed"],
    )
    def test_flag_the_family_ignores_is_usage_error(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "fam.txt"
        code = main(["construct", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"does not take {flag}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_bad_parameter_names_precondition(self, capsys):
        code = main(["construct", "--family", "eventown-a", "--n", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "divisible by 4" in err


class TestAnalyze:
    def test_full_report(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        ot.save_family(ot.example_x5(), path)
        code, doc = run(
            capsys, "analyze", "--in", str(path), "--pairs", "--density", "--ckt", "1"
        )
        assert code == 0
        assert doc["op"] == 3
        assert doc["pairs"] == [[0, 1], [2, 3], [4, 5]]
        assert doc["density"]["exact"] == "1/5"
        assert doc["ckt"] == {"t": 1, "count": 3}

    @pytest.mark.parametrize(
        "lines,flags",
        [
            (["1 2", "3 4", "1 2 3 4"], (True, False)),  # all even, op 0
            (["1", "2", "3"], (False, True)),  # all odd, op 0
            (["1", "2 3"], (False, False)),  # mixed parities, op 0
            (["1 2", "2 3"], (False, False)),  # op > 0
            (["1 2 3"], (False, True)),  # one member
            (["empty", "1 2"], (True, False)),  # the empty member
            ([], (True, True)),  # no members
        ],
        ids=["even", "odd", "mixed", "odd-pair", "one-member", "empty-member", "no-members"],
    )
    def test_rule_flags_match_the_validators(self, capsys, tmp_path, lines, flags):
        path = tmp_path / "fam.txt"
        path.write_text("\n".join(["n=4", *lines]) + "\n")
        family = ot.load_family(path)
        code, doc = run(capsys, "analyze", "--in", str(path))
        assert code == 0
        assert (doc["is_eventown"], doc["is_oddtown"]) == flags
        assert flags == (ot.is_eventown(family), ot.is_oddtown(family))

    def test_ckt_of_a_header_only_file_is_zero(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n")
        code, doc = run(capsys, "analyze", "--in", str(path), "--ckt", "1")
        assert code == 0
        assert doc["ckt"] == {"t": 1, "count": 0}

    def test_density_of_one_member_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1 2\n")
        code = main(["analyze", "--in", str(path), "--density"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "density needs at least 2 members, got 1" in captured.err

    def test_links_identity(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        ot.save_family(ot.disjoint_k4_triples(8), path)
        code, doc = run(capsys, "analyze", "--in", str(path), "--links", "3")
        assert code == 0
        assert doc["link_identity"] == {"k": 3, "lhs": 8, "rhs": 8, "holds": True}

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=4\n1 2\nbogus line\n")
        code = main(["analyze", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err

    def test_missing_file(self, capsys, tmp_path):
        code = main(["analyze", "--in", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_uniformity_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1 2\n1 2 3\n")
        code = main(["analyze", "--in", str(path), "--ckt", "1"])
        assert code == 2


class TestSearch:
    def test_exhaustive_small_even(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "even", "--n", "4", "--m", "5", "--mode", "exhaustive",
        )
        assert code == 0
        assert doc["best_value"] == 2 and doc["optimal"] is True
        assert doc["spec"]["budget_nodes"] is None  # no evaluation cap unless given
        jsonschema.validate(doc, SCHEMA)

    def test_odd_class_n5(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "odd", "--n", "5", "--m", "6", "--mode", "exhaustive",
        )
        assert code == 0 and doc["best_value"] == 3

    def test_uniform_class_minimum(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "uniform", "--k", "3", "--n", "5", "--m", "6",
            "--mode", "exhaustive",
        )
        assert code == 0
        assert doc["best_value"] == 3  # six triples over [5] can realise just 3 odd pairs

    def test_ckt_objective(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "uniform", "--k", "4", "--n", "5", "--m", "5",
            "--objective", "ckt", "--t", "2", "--mode", "exhaustive",
        )
        assert code == 0 and doc["best_value"] == 0
        jsonschema.validate(doc, SCHEMA)

    def test_budget_exhaustion_exit_code(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "odd", "--n", "5", "--m", "6", "--mode", "exhaustive",
            "--budget-nodes", "50",
        )
        assert code == 3
        assert doc["optimal"] is False

    def test_local_mode_completes_with_exit_zero(self, capsys):
        code, doc = run(
            capsys,
            "search", "--class", "even", "--n", "8", "--m", "17", "--mode", "local",
            "--seed", "7", "--restarts", "2",
        )
        assert code == 0
        assert doc["optimal"] is False
        assert doc["best_value"] >= 8  # proven bound for this shape
        jsonschema.validate(doc, SCHEMA)

    def test_local_mode_checkpoint_is_usage_error(self, capsys, tmp_path):
        ckpt = tmp_path / "lc.ckpt"
        code = main(["search", "--class", "even", "--n", "4", "--m", "5", "--mode", "local",
                     "--checkpoint", str(ckpt)])
        captured = capsys.readouterr()
        assert code == 2
        assert "local" in captured.err
        assert captured.out == ""
        assert not ckpt.exists()

    @pytest.mark.parametrize("m", ["2", "3"])
    def test_checkpoint_in_missing_directory_is_refused_before_any_work(
        self, capsys, tmp_path, monkeypatch, m
    ):
        # at m=2 the top node {∅} is the last node of the tree, at m=3 it is not
        def no_work(spec):
            pytest.fail("the candidate pool was built")

        monkeypatch.setattr(se, "candidate_pool", no_work)
        ckpt = tmp_path / "missing" / "x.ckpt"
        code = main(["search", "--class", "even", "--n", "4", "--m", m,
                     "--checkpoint", str(ckpt)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: checkpoint {ckpt}: directory {ckpt.parent} does not exist\n"
        assert captured.out == ""
        assert not ckpt.parent.exists()

    @pytest.mark.parametrize(
        "argv,word",
        [
            (["--class", "even", "--k", "3"], "k only"),
            (["--class", "odd", "--t", "1"], "t only"),
            (["--class", "even", "--seed", "9"], "seed and restarts only apply to mode 'local'"),
            (["--class", "even", "--restarts", "3", "--mode", "exhaustive"],
             "seed and restarts only apply to mode 'local'"),
        ],
        ids=["even-k", "odd-t", "bnb-seed", "exhaustive-restarts"],
    )
    def test_flag_the_class_ignores_is_usage_error(self, capsys, argv, word):
        code = main(["search", *argv, "--n", "4", "--m", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert word in captured.err
        assert captured.out == ""

    def test_infeasible_spec_is_usage_error(self, capsys):
        code = main(["search", "--class", "odd", "--n", "3", "--m", "9", "--mode", "exhaustive"])
        assert code == 2

    def test_corrupt_checkpoint_error_names_the_file(self, capsys, tmp_path):
        argv = ["search", "--class", "even", "--n", "4", "--m", "5"]
        bad = tmp_path / "BAD"
        assert main([*argv, "--checkpoint", str(bad)]) == 0
        capsys.readouterr()
        good = json.loads(bad.read_text(encoding="utf-8"))
        texts = ['{"instance": {"gr'] + [
            json.dumps({**good, **fields})
            for fields in (
                dict(best_value=0, witness=[0, 1, 2, 3, 4]),  # a "certified" 0; the minimum is 2
                dict(path=[-3]),
                dict(best_value="2"),
                dict(nodes="12"),
                dict(witness=[0, 1, 2, 3, 9]),
            )
        ]
        for text in texts:
            bad.write_text(text, encoding="utf-8")
            code = main([*argv, "--checkpoint", str(bad)])
            captured = capsys.readouterr()
            assert code == 2
            assert str(bad) in captured.err
            assert captured.out == ""

    def test_forged_checkpoint_progress_is_usage_error(self, capsys, tmp_path):
        # the search claimed ended (path null) with a value-5 family; the
        # minimum is 2
        argv = ["search", "--class", "even", "--n", "4", "--m", "5", "--mode", "exhaustive"]
        ckpt = tmp_path / "FORGED"
        instance = dict(ground_size=4, family_size=5, family_class="even", k=None,
                        objective="op", t=None, mode="exhaustive")
        ckpt.write_text(json.dumps(dict(instance=instance, path=None, best_value=5,
                                        witness=[0, 1, 2, 3, 4], nodes=0)), encoding="utf-8")
        code = main([*argv, "--checkpoint", str(ckpt)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(ckpt) in captured.err
        assert "digest" in captured.err  # refused for its digest, not its instance
        assert captured.out == ""

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_no_restarts_is_usage_error(self, capsys, restarts):
        code = main(["search", "--class", "even", "--n", "4", "--m", "5", "--mode", "local",
                     "--restarts", restarts])
        captured = capsys.readouterr()
        assert code == 2
        assert "restarts" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "budget",
        [["--budget-secs", "nan"], ["--budget-secs", "inf"], ["--budget-secs", "1e999"]],
        ids=["flag", "inf", "1e999"],
    )
    def test_nan_time_budget_is_usage_error(self, capsys, budget):
        assert main(["search", "--class", "even", "--n", "4", "--m", "5", *budget]) == 2
        assert "budgets must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,exit_code,value", [("bnb", 3, 95), ("local", 0, 101)], ids=["bnb", "local"]
    )
    def test_a_passed_deadline_still_reports_a_family(self, capsys, mode, exit_code, value):
        # even n=12 m=20: bnb stops at the tree's first poll, INCONCLUSIVE
        # with the hint's start family; local returns its start family
        code, doc = run(
            capsys,
            "search", "--class", "even", "--n", "12", "--m", "20", "--mode", mode,
            "--budget-secs", "1e-9",
        )
        assert code == exit_code
        assert (doc["best_value"], len(doc["witness"]), doc["optimal"]) == (value, 20, False)
        jsonschema.validate(doc, SCHEMA)

    def test_threads_flag_deterministic(self, capsys):
        outs = []
        for threads in ("1", "2", "8"):
            _, doc = run(
                capsys,
                "search", "--class", "even", "--n", "4", "--m", "6",
                "--mode", "bnb", "--threads", threads,
            )
            outs.append((doc["best_value"], json.dumps(doc["witness"])))
        assert len(set(outs)) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--class", "even", "--n", "4", "--m", "5", "--threads", "0"],
            ["verify", "--statement", "thm-even", "--n", "4", "--threads", "-1"],
        ],
        ids=["search", "verify"],
    )
    def test_thread_count_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "argument --threads: must be >= 1" in captured.err


class TestVerify:
    def test_tight_theorem(self, capsys):
        code, doc = run(capsys, "verify", "--statement", "thm-even", "--n", "4", "--s", "1")
        assert code == 0
        assert doc["verdict"] == "TIGHT"
        assert doc["minimum"] == 2 and doc["claimed_bound"] == 2
        jsonschema.validate(doc["search"], SCHEMA)

    def test_counterexample_exit_code(self, capsys):
        code, doc = run(
            capsys, "verify", "--statement", "prob-uniform", "--n", "5", "--s", "1", "--k", "3"
        )
        assert code == 4
        assert doc["verdict"] == "COUNTEREXAMPLE"

    def test_inconclusive_exit_code(self, capsys):
        code, doc = run(
            capsys,
            "verify", "--statement", "conj-odd", "--n", "5", "--s", "2",
            "--budget-nodes", "40",
        )
        assert code == 3
        assert doc["verdict"] == "INCONCLUSIVE"

    def test_k_outside_prob_uniform_is_usage_error(self, capsys):
        code = main(["verify", "--statement", "thm-even", "--n", "4", "--k", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "k only applies to prob-uniform" in captured.err
        assert captured.out == ""

    def test_out_of_range_s_is_usage_error(self, capsys):
        code = main(["verify", "--statement", "thm-even", "--n", "4", "--s", "5"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,verdict,exit_code",
        [
            (["thm-even", "--n", "3", "--s", "2"], "HOLDS", 0),
            (["thm-even", "--n", "4", "--s", "1"], "TIGHT", 0),
            (["conj-odd", "--n", "5", "--s", "2", "--budget-nodes", "40"], "INCONCLUSIVE", 3),
            (["conj-odd", "--n", "5", "--s", "2", "--budget-secs", "1e-9"], "INCONCLUSIVE", 3),
            (["prob-uniform", "--n", "5", "--k", "3"], "COUNTEREXAMPLE", 4),
        ],
        ids=["holds", "tight", "inconclusive", "inconclusive-at-first-poll", "counterexample"],
    )
    def test_exit_code_of_each_verdict(self, capsys, argv, verdict, exit_code):
        code, doc = run(capsys, "verify", "--statement", *argv)
        assert (doc["verdict"], code) == (verdict, exit_code)


class TestBracket:
    @pytest.mark.parametrize(
        "argv,lower,entry",
        [
            (["thm-even", "--n", "8", "--s", "1"], 1, None),
            (["conj-odd", "--n", "8", "--s", "5"], 7, {"family_size": 9, "minimum": 3}),
        ],
        ids=["thm-even-n8-s1", "conj-odd-n8-s5"],
    )
    def test_budgeted_run_reports_its_lower_bound(self, capsys, argv, lower, entry):
        # an unfinished run brackets the minimum in [lower_bound, best_value]:
        # even m=17 has only the deficiency floor 17 - 16; odd m=13 has the
        # averaging floor ceil(3 * 13*12 / (9*8)) from the n=8, m=9 minimum 3
        code, doc = run(capsys, "verify", "--statement", *argv, "--budget-nodes", "2000")
        search = doc["search"]
        assert search["optimal"] is False and code in (3, 4)
        assert (search["lower_bound"], search["floor_entry"]) == (lower, entry)
        assert search["lower_bound"] <= search["best_value"]
        jsonschema.validate(search, SCHEMA)


class TestSteiner:
    def test_partition_with_shadow(self, capsys, tmp_path):
        out = tmp_path / "shadow.txt"
        code, doc = run(
            capsys,
            "steiner", "--partition", "--n", "8", "--shadow", "3", "--out", str(out),
        )
        assert code == 0
        assert doc["valid"] is True
        assert doc["shadow"]["size"] == 8
        assert doc["shadow"]["formula_size"] == 8
        assert doc["shadow"]["matches_formula"] is True
        shade = ot.load_family(out)
        assert shade.canonical() == ot.disjoint_k4_triples(8).canonical()

    @pytest.mark.parametrize(
        "argv",
        [["--partition", "--n", "8"], ["--validate", "{blocks}"]],
        ids=["partition", "validate"],
    )
    def test_out_without_shadow_is_usage_error(self, capsys, tmp_path, argv):
        blocks = tmp_path / "good.blocks"
        blocks.write_text("n=8 k=4 t=1\n1 2 3 4\n5 6 7 8\n")
        out = tmp_path / "x.fam"
        argv = [arg.format(blocks=blocks) for arg in argv]
        code = main(["steiner", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --out needs --shadow\n"
        assert captured.out == ""
        assert not out.exists()

    def test_partition_needs_n(self, capsys):
        code = main(["steiner", "--partition"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --partition requires --n\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["--validate", "b.txt", "--partition"], ["--n", "8"]],
        ids=["steiner-both", "steiner-neither"],
    )
    def test_needs_exactly_one_of_validate_and_partition(self, capsys, argv):
        code = main(["steiner", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: steiner needs exactly one of --validate and --partition\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--k", "--t"])
    def test_partition_refuses_design_flags(self, capsys, flag):
        # the partition design is always k=4, t=1: --k and --t would do nothing
        code = main(["steiner", "--partition", "--n", "8", flag, "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"does not take {flag}" in captured.err
        assert captured.out == ""

    def test_validate_good_file(self, capsys, tmp_path):
        path = tmp_path / "good.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n5 6 7 8\n")
        code, doc = run(capsys, "steiner", "--validate", str(path))
        assert code == 0
        assert doc == {"valid": True, "n": 8, "k": 4, "t": 1, "blocks": 2}

    def test_validate_bad_file_exits_4_with_offender(self, capsys, tmp_path):
        path = tmp_path / "bad.blocks"
        path.write_text("n=8 k=4 t=1\n1 2 3 4\n4 5 6 7\n")
        code, doc = run(capsys, "steiner", "--validate", str(path))
        assert code == 4
        assert doc["valid"] is False
        assert doc["offending"] == [4]

    def test_element_outside_ground_set_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "wide.blocks"
        path.write_text("n=21 k=5 t=2\n1 2 3 4 5\n# a comment\n1 6 7 8 22\n")
        code = main(["steiner", "--validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: line 4: element 22 outside ground set [1, 21]\n"
        assert captured.out == ""

    def test_repeated_header_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "twice.blocks"
        path.write_text("n=4 n=8 k=4 t=1\n1 2 3 4\n5 6 7 8\n")
        code = main(["steiner", "--validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: line 1: repeated header key 'n'\n"
        assert captured.out == ""

    def test_difference_set_design(self, capsys, steiner_21_5_2_file):
        code, doc = run(
            capsys, "steiner", "--validate", str(steiner_21_5_2_file), "--shadow", "4"
        )
        assert code == 0
        assert doc["blocks"] == 21
        assert doc["shadow"]["size"] == 105
        assert doc["shadow"]["formula_size"] == 105
        assert doc["shadow"]["matches_formula"] is True


class TestThinShell:
    """search and verify hand the flags given, by name, to SearchSpec and verify_theorem."""

    @pytest.mark.parametrize(
        "argv,required",
        [
            (["search", "--class", "even", "--n", "4", "--m", "5"],
             dict(family_class="even", ground_size=4, family_size=5)),
            (["verify", "--statement", "thm-even", "--n", "4"], dict(statement="thm-even", n=4)),
        ],
        ids=["search", "verify"],
    )
    def test_no_flag_sets_a_default(self, argv, required):
        # a flag left out is not passed, so the library's own default applies
        assert cli._library_args(cli._parse(argv)) == required

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["search", "--class", "uniform", "--n", "5", "--m", "3", "--k", "3",
              "--objective", "ckt", "--t", "1", "--mode", "local", "--seed", "2",
              "--restarts", "2", "--budget-nodes", "10", "--budget-secs", "1.5",
              "--threads", "2", "--checkpoint", "ck"], se.SearchSpec),
            (["verify", "--statement", "prob-uniform", "--n", "5", "--s", "2", "--k", "3",
              "--mode", "exhaustive", "--budget-nodes", "10", "--budget-secs", "1.5",
              "--threads", "2"], se.verify_theorem),
        ],
        ids=["search", "verify"],
    )
    def test_every_library_parameter_has_a_flag(self, argv, target):
        given = cli._library_args(cli._parse(argv))
        assert set(given) == set(inspect.signature(target).parameters)


class TestParse:
    """cli._parse reads argv against the command table, by the README's grammar."""

    # every flag of search and verify reads None when it is not given; each
    # expected namespace below lists the flags given
    UNSET = {
        "search": dict.fromkeys(("threads", "budget_nodes", "budget_secs", "k", "objective",
                                 "t", "mode", "seed", "restarts", "checkpoint")),
        "verify": dict.fromkeys(("threads", "budget_nodes", "budget_secs", "s", "k", "mode")),
    }

    # the benchmark's twenty command lines (paths and seeds fixed, budgets
    # appended as the benchmark does), then --flag=value, a unique prefix, a
    # repeated flag and values that start with a single "-"
    @pytest.mark.parametrize(
        "argv,expected",
        [
        pytest.param(
            [
                "--json", "verify", "--statement", "conj-even", "--n", "6", "--s", "5",
                "--threads", "2", "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "verify", "statement": "conj-even", "n": 6, "s": 5,
                "threads": 2, "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="conj-even-n6-s5-t2",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "conj-even", "--n", "6", "--s", "6",
                "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "verify", "statement": "conj-even", "n": 6, "s": 6,
                "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="conj-even-n6-s6",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "even", "--n", "7", "--m", "9", "--budget-nodes",
                "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "even", "ground_size": 7,
                "family_size": 9, "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="even-n7-m9",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "conj-odd", "--n", "7", "--s", "2",
                "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "verify", "statement": "conj-odd", "n": 7, "s": 2,
                "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="conj-odd-n7-s2",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "prob-uniform", "--n", "7", "--k", "3", "--s",
                "2", "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "verify", "statement": "prob-uniform", "n": 7, "k": 3,
                "s": 2, "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="prob-uniform-n7-k3-s2",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "uniform", "--k", "4", "--n", "6", "--m", "9",
                "--objective", "ckt", "--t", "2", "--budget-nodes", "1000000000", "--budget-secs",
                "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "uniform", "k": 4,
                "ground_size": 6, "family_size": 9, "objective": "ckt", "t": 2, "budget_nodes":
                1000000000, "budget_secs": 600.0,
            },
            id="uniform-ckt-n6-k4-m9",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "even", "--n", "13", "--m", "16", "--budget-nodes",
                "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "even", "ground_size": 13,
                "family_size": 16, "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="even-n13-m16",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "uniform", "--k", "3", "--n", "28", "--m", "10",
                "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "uniform", "k": 3,
                "ground_size": 28, "family_size": 10, "budget_nodes": 1000000000, "budget_secs":
                600.0,
            },
            id="uniform-n28-k3-m10",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "uniform", "--k", "4", "--n", "16", "--m", "10",
                "--objective", "ckt", "--t", "2", "--budget-nodes", "1000000000", "--budget-secs",
                "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "uniform", "k": 4,
                "ground_size": 16, "family_size": 10, "objective": "ckt", "t": 2, "budget_nodes":
                1000000000, "budget_secs": 600.0,
            },
            id="uniform-ckt-n16-k4-m10",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "odd", "--n", "12", "--m", "12", "--budget-nodes",
                "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "odd", "ground_size": 12,
                "family_size": 12, "budget_nodes": 1000000000, "budget_secs": 600.0,
            },
            id="odd-n12-m12",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "even", "--n", "12", "--m", "65", "--mode", "local",
                "--seed", "1234567", "--budget-nodes", "1000000000", "--budget-secs", "600.0",
            ],
            {
                "json": True, "command": "search", "family_class": "even", "ground_size": 12,
                "family_size": 65, "mode": "local", "seed": 1234567, "budget_nodes": 1000000000,
                "budget_secs": 600.0,
            },
            id="local-even-n12-m65",
        ),
        pytest.param(
            [
                "--json", "construct", "--family", "eventown-plus", "--n", "24", "--s", "4",
                "--seed", "7654321", "--out", "work/family-out.txt",
            ],
            {
                "json": True, "command": "construct", "family": "eventown-plus", "n": 24, "s": 4,
                "k": None, "seed": 7654321, "out": Path("work/family-out.txt"),
            },
            id="construct-eventown-plus-n24-s4",
        ),
        pytest.param(
            [
                "--json", "analyze", "--in", "work/family.txt", "--density",
            ],
            {
                "json": True, "command": "analyze", "path": Path("work/family.txt"), "pairs":
                False, "ckt": None, "density": True, "links": None,
            },
            id="analyze-density-4100",
        ),
        pytest.param(
            [
                "--json", "steiner", "--validate", "work/design.txt", "--shadow", "4", "--out",
                "work/shadow-out.txt",
            ],
            {
                "json": True, "command": "steiner", "validate": Path("work/design.txt"),
                "partition": False, "n": None, "k": None, "t": None, "shadow": 4, "out":
                Path("work/shadow-out.txt"),
            },
            id="steiner-validate-21-5-2",
        ),
        pytest.param(
            [
                "--json", "analyze", "--in", "work/shadow.txt", "--ckt", "1",
            ],
            {
                "json": True, "command": "analyze", "path": Path("work/shadow.txt"), "pairs":
                False, "ckt": 1, "density": False, "links": None,
            },
            id="analyze-ckt-shadow",
        ),
        pytest.param(
            [
                "--json", "steiner", "--partition", "--n", "24",
            ],
            {
                "json": True, "command": "steiner", "validate": None, "partition": True, "n": 24,
                "k": None, "t": None, "shadow": None, "out": None,
            },
            id="steiner-partition-n24",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "thm-even", "--n", "8", "--s", "1",
                "--budget-secs", "2", "--budget-nodes", "1000000000",
            ],
            {
                "json": True, "command": "verify", "statement": "thm-even", "n": 8, "s": 1,
                "budget_secs": 2.0, "budget_nodes": 1000000000,
            },
            id="thm-even-n8-s1-2s",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "conj-odd", "--n", "8", "--s", "2",
                "--budget-secs", "2", "--budget-nodes", "1000000000",
            ],
            {
                "json": True, "command": "verify", "statement": "conj-odd", "n": 8, "s": 2,
                "budget_secs": 2.0, "budget_nodes": 1000000000,
            },
            id="conj-odd-n8-s2-2s",
        ),
        pytest.param(
            [
                "--json", "verify", "--statement", "conj-odd", "--n", "8", "--s", "3",
                "--budget-secs", "2", "--budget-nodes", "1000000000",
            ],
            {
                "json": True, "command": "verify", "statement": "conj-odd", "n": 8, "s": 3,
                "budget_secs": 2.0, "budget_nodes": 1000000000,
            },
            id="conj-odd-n8-s3-2s",
        ),
        pytest.param(
            [
                "--json", "search", "--class", "uniform", "--k", "3", "--n", "30", "--m", "12",
                "--budget-secs", "0.5", "--budget-nodes", "1000000000",
            ],
            {
                "json": True, "command": "search", "family_class": "uniform", "k": 3,
                "ground_size": 30, "family_size": 12, "budget_secs": 0.5, "budget_nodes":
                1000000000,
            },
            id="uniform-n30-k3-m12-0.5s",
        ),
        pytest.param(
            [
                "construct", "--family", "eventown-a", "--n=6",
            ],
            {
                "json": False, "command": "construct", "family": "eventown-a", "n": 6, "s": None,
                "k": None, "seed": None, "out": None,
            },
            id="n-equals",
        ),
        pytest.param(
            [
                "verify", "--stat", "thm-even", "--n", "4",
            ],
            {
                "json": False, "command": "verify", "statement": "thm-even", "n": 4,
            },
            id="stat-prefix",
        ),
        pytest.param(
            [
                "search", "--class", "odd", "--n", "5", "--m", "6", "--mode", "bnb", "--mode",
                "exhaustive",
            ],
            {
                "json": False, "command": "search", "family_class": "odd", "ground_size": 5,
                "family_size": 6, "mode": "exhaustive",
            },
            id="repeated-flag",
        ),
        pytest.param(
            [
                "construct", "--family", "oddtown-plus", "--n", "4", "--s", "-1",
            ],
            {
                "json": False, "command": "construct", "family": "oddtown-plus", "n": 4, "s": -1,
                "k": None, "seed": None, "out": None,
            },
            id="negative-value",
        ),
        pytest.param(
            [
                "construct", "--family", "eventown-plus", "--n", "8", "--s", "2", "--seed", "-3",
                "--out", "-x.fam",
            ],
            {
                "json": False, "command": "construct", "family": "eventown-plus", "n": 8, "s": 2,
                "k": None, "seed": -3, "out": Path("-x.fam"),
            },
            id="dash-values",
        ),
        ],
    )
    def test_namespace_matches_argparse(self, argv, expected):
        command = expected["command"]
        handler = getattr(cli, f"_cmd_{command}")
        assert vars(cli._parse(argv)) == {**self.UNSET.get(command, {}), **expected, "handler": handler}

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'construct'"),
            (["construct", "--family", "x5", "--bogus"], "unrecognized arguments: --bogus"),
            (["construct", "--family", "x5", "--class", "even"], "unrecognized arguments: --class even"),
            (["construct", "--family"], "argument --family: expected one argument"),
            (["construct", "--family", "f2", "--k", "--out", "f.txt"], "argument --k: expected one argument"),
            (["construct", "--family", "x5", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["search", "--class", "even", "--n", "4", "--m", "5", "--budget-secs", "x"],
             "argument --budget-secs: invalid float value: 'x'"),
            (["search", "--class", "even", "--n", "4", "--m", "5", "--threads", "x"],
             "argument --threads: invalid int value: 'x'"),
            (["construct", "--family", "nope"],
             "argument --family: invalid choice: 'nope' (choose from 'eventown-a', 'eventown-b'"),
            (["search", "--class", "even", "--n", "4"], "the following arguments are required: --m"),
            (["search", "--class", "even", "--n", "4", "--m", "5", "--budget", "5"],
             "ambiguous option: --budget could match --budget-nodes, --budget-secs"),
            (["--"], "ambiguous option: -- could match --help, --json"),
            (["construct", "--family", "x5", "-hh"], "unrecognized arguments: -hh"),
            (["construct", "--family", "x5", "-x"], "unrecognized arguments: -x"),
            (["construct", "--family", "x5", "--out", "--x"], "argument --out: expected one argument"),
        ],
        ids=[
            "unknown-command", "unknown-flag", "another-commands-flag", "no-value",
            "flag-as-value", "bad-int", "bad-float", "bad-thread-count", "bad-choice",
            "missing-required", "ambiguous-prefix", "double-dash", "h-with-more", "single-dash-flag",
            "unknown-flag-as-value",
        ],
    )
    def test_refusal_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: oddtown")
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["--help"], *([command, "--help"] for command in
                       ("construct", "analyze", "search", "verify", "steiner"))],
        ids=["top", "construct", "analyze", "search", "verify", "steiner"],
    )
    def test_help_lists_every_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("usage: oddtown")
        listed = {line.split()[0] for line in lines if line.startswith("  ")}
        if len(argv) == 1:
            expected = {"-h,", "--json", *cli._COMMANDS}
        else:
            expected = {"-h,", *(flag[0] for flag in cli._COMMANDS[argv[0]][2])}
        assert listed == expected

    def test_readme_command_lines_parse(self):
        # every `oddtown ...` line of the README's Command line block, comments stripped
        readme = (ROOT / "README.md").read_text()
        block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        argvs = [words[1:] for words in lines if words[:1] == ["oddtown"]]
        assert argvs  # the block was found
        for argv in argvs:
            try:
                cli._parse(argv)
            except SystemExit:
                pytest.fail(f"the README line `oddtown {' '.join(argv)}` is refused")


def test_schema_enums_are_the_search_names():
    spec = SCHEMA["properties"]["spec"]["properties"]
    assert spec["family_class"]["enum"] == list(se._CLASSES)
    assert spec["objective"]["enum"] == list(se._OBJECTIVES)
    assert spec["mode"]["enum"] == list(se._MODES)
    assert list(spec) == list(se.SearchSpec.__slots__)


class TestHarness:
    def test_terminal_gets_a_table(self, capsys, monkeypatch):
        import sys as _sys

        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True)
        code = main(["construct", "--family", "x5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "op" in out and "{" not in out.splitlines()[0]

    def test_terminal_table_prints_nested_values_as_json(self, capsys, monkeypatch):
        import sys as _sys

        argv = ["search", "--class", "even", "--n", "4", "--m", "5"]
        _, doc = run(capsys, *argv)
        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True)
        assert main(argv) == 0
        table = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        assert json.loads(table["witness"]) == doc["witness"]
        assert json.loads(table["spec"]) == doc["spec"]
        assert table["best_value"] == "2"

    def test_json_flag_forces_json_on_terminal(self, capsys, monkeypatch):
        import sys as _sys

        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True)
        code, doc = run(capsys, "--json", "construct", "--family", "x5")
        assert code == 0 and doc["op"] == 3

    def test_seeded_selector_via_cli(self, capsys):
        docs = []
        for seed in ("3", "3", "4"):
            _, doc = run(
                capsys,
                "construct", "--family", "eventown-plus", "--n", "8", "--s", "2",
                "--seed", seed,
            )
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["op"] == docs[2]["op"] == 16

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["construct", "--family", "x5"], 0),
            (["verify", "--statement", "conj-odd", "--n", "5", "--s", "2"], 0),
            (["verify", "--statement", "prob-uniform", "--n", "5", "--k", "3"], 4),
        ],
        ids=["construct", "verify-tight", "verify-counterexample"],
    )
    def test_closed_stdout_exits_quietly(self, argv, code):
        # the reader of stdout is gone before the command writes, as with `| head`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process(
                "-m", "oddtown.cli", "--json", *argv, stdout=write_end, stderr=subprocess.PIPE
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == code

    def test_module_entry_point(self):
        proc = run_process("-m", "oddtown.cli", "construct", "--family", "x5", capture_output=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["op"] == 3

    @pytest.mark.parametrize("command", ["construct", "analyze"])
    def test_commands_without_density_leave_out_fractions(self, tmp_path, command):
        # a density is an exact Fraction, built only where one is read
        family = tmp_path / "x5.fam"
        argv = {
            "construct": ["construct", "--family", "x5", "--out", str(family)],
            "analyze": ["analyze", "--in", str(family), "--pairs", "--links", "3"],
        }
        ot.save_family(ot.example_x5(), family)
        code = (
            "import sys; from oddtown.cli import main; "
            f"code = main({argv[command]!r}); "
            "print(code, 'fractions' in sys.modules, file=sys.stderr)"
        )
        proc = run_process("-c", code, capture_output=True)
        assert proc.stderr.split() == ["0", "False"]
        assert json.loads(proc.stdout)["op"] == 3

    def test_cold_start_leaves_out_heavy_modules(self):
        # every command is a fresh process, so all it imports is paid on every
        # run: dataclasses (with inspect, ast and dis) and fractions (with
        # decimal) took ~25 ms of a ~100 ms process, and argparse (with
        # gettext, and locale at its first parser) ~4 ms
        heavy = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale")
        for command in ("", "oddtown.cli.main(['--json', 'construct', '--family', 'x5']); "):
            code = (
                "import sys; before = set(sys.modules); import oddtown.cli; "
                + command
                + "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)"
            )
            proc = run_process("-c", code, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            loaded = proc.stderr.split()
            assert "oddtown.cli" in loaded
            assert [name for name in heavy if name in loaded] == []


class TestProcessEntry:
    """cli.run, the process entry: main, a flush, then os._exit on a normal return."""

    # prints "finalized" on stderr if the interpreter runs its exit handlers
    FINALIZED = "import atexit, runpy, sys; atexit.register(sys.stderr.write, 'finalized'); "

    def entry(self, *argv) -> subprocess.CompletedProcess:
        code = (
            self.FINALIZED
            + f"sys.argv = ['oddtown', *{list(argv)!r}]; "
            + "runpy.run_module('oddtown.cli', run_name='__main__')"
        )
        return run_process("-c", code, capture_output=True)

    def test_normal_return_skips_finalization(self):
        # finalization cost 8-11 ms of CPU per command; the entry leaves
        # after flushing, so exit handlers never run
        proc = self.entry("--json", "construct", "--family", "x5")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["op"] == 3

    def test_usage_error_still_finalizes(self):
        # a refusal and --help leave main by SystemExit, not through run()'s exit
        proc = self.entry("construct", "--family", "nope")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr
        assert proc.stderr.endswith("finalized")
        assert proc.stdout == ""
        proc = self.entry("--help")
        assert proc.returncode == 0
        assert proc.stderr == "finalized"
        assert proc.stdout.startswith("usage: oddtown")

    @pytest.mark.parametrize(
        "argv,code,key,value",
        [
            (["construct", "--family", "x5"], 0, "op", 3),
            (["verify", "--statement", "prob-uniform", "--n", "5", "--k", "3"], 4,
             "verdict", "COUNTEREXAMPLE"),
        ],
        ids=["construct", "verify-counterexample"],
    )
    def test_console_script_target(self, argv, code, key, value):
        # what an installed `oddtown` runs: sys.exit(<target>()), as the
        # wrapper generated from [project.scripts] does
        target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, name = target["oddtown"].split(":")
        script = (
            self.FINALIZED
            + f"sys.argv = ['oddtown', '--json', *{argv!r}]; "
            + f"from {module} import {name}; sys.exit({name}())"
        )
        proc = run_process("-c", script, capture_output=True)
        assert proc.returncode == code
        assert proc.stderr == ""
        assert json.loads(proc.stdout)[key] == value

    def test_value_error_keeps_its_stderr_line(self):
        proc = run_process(
            "-m", "oddtown.cli", "steiner", "--out", "x", "--partition", "--n", "8",
            capture_output=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: --out needs --shadow\n"
        assert proc.stdout == ""

    def test_budget_cut_leaves_a_checkpoint(self, tmp_path):
        # the first first-level branch of odd n=9 m=10, {1} (pool index 0),
        # ends after ~0.3-0.5 s and the whole search after ~2 s on a 2-core
        # x86-64 host: a 0.5 s budget cuts below the top node, in that branch
        # or the next, and the file records the path there
        ckpt = tmp_path / "odd9.ckpt"
        proc = run_process(
            "-m", "oddtown.cli", "--json", "search", "--class", "odd", "--n", "9",
            "--m", "10", "--budget-secs", "0.5", "--checkpoint", str(ckpt),
            capture_output=True,
        )
        assert proc.returncode == 3, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["optimal"] is False
        spec = se.SearchSpec(ground_size=9, family_size=10, family_class="odd")
        path, best = se._load_checkpoint(ckpt, spec, se._setup(spec)[3])
        assert path  # a cut below the top node
        assert (best.best_value, best.nodes) == (doc["best_value"], doc["nodes_explored"])

    def test_finished_search_resumes_from_its_checkpoint(self, tmp_path):
        ckpt = tmp_path / "odd8.ckpt"
        argv = ["-m", "oddtown.cli", "--json", "search", "--class", "odd", "--n", "8",
                "--m", "11", "--checkpoint", str(ckpt)]
        docs = []
        for _ in range(2):
            proc = run_process(*argv, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            assert ckpt.exists()
            docs.append(json.loads(proc.stdout))
        first, resumed = docs
        assert first["best_value"] == resumed["best_value"] == 5
        assert first["witness"] == resumed["witness"]
        assert first["optimal"] and resumed["optimal"]
        # the ended search is not run again
        assert first["nodes_explored"] == resumed["nodes_explored"] == 47_279

    def test_constructed_family_file_reads_back(self, tmp_path):
        out = tmp_path / "plus.fam"
        proc = run_process(
            "-m", "oddtown.cli", "--json", "construct", "--family", "eventown-plus",
            "--n", "12", "--s", "2", "--out", str(out), capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        family = ot.load_family(out)
        assert (len(family), ot.op(family).op_count) == (doc["size"], doc["op"]) == (66, 64)
