"""Command-line interface: outputs, exit codes, round trips, schema."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

import oddtown as ot
from oddtown.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "search_result.schema.json").read_text()
)


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


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

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ODDTOWN_BUDGET_NODES", "50")
        code, doc = run(
            capsys,
            "search", "--class", "odd", "--n", "5", "--m", "6", "--mode", "exhaustive",
        )
        assert code == 3 and doc["spec"]["budget_nodes"] == 50

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
                dict(completed_roots=-3),
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
        # all 4 root branches claimed done with a value-5 family; the minimum is 2
        argv = ["search", "--class", "even", "--n", "4", "--m", "5", "--mode", "exhaustive"]
        ckpt = tmp_path / "FORGED"
        instance = dict(ground_size=4, family_size=5, family_class="even", k=None,
                        objective="op", t=None, mode="exhaustive", symmetry=False)
        ckpt.write_text(json.dumps(dict(instance=instance, completed_roots=4, best_value=5,
                                        witness=[0, 1, 2, 3, 4], nodes=0)), encoding="utf-8")
        code = main([*argv, "--checkpoint", str(ckpt)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(ckpt) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_nan_time_budget_is_usage_error(self, capsys, monkeypatch, where):
        argv = ["search", "--class", "even", "--n", "4", "--m", "5"]
        if where == "flag":
            argv += ["--budget-secs", "nan"]
        else:
            monkeypatch.setenv("ODDTOWN_BUDGET_SECS", "nan")
        assert main(argv) == 2
        assert "budgets must be positive" in capsys.readouterr().err

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

    def test_out_of_range_s_is_usage_error(self, capsys):
        code = main(["verify", "--statement", "thm-even", "--n", "4", "--s", "5"])
        assert code == 2


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

    def test_difference_set_design(self, capsys, steiner_21_5_2_file):
        code, doc = run(
            capsys, "steiner", "--validate", str(steiner_21_5_2_file), "--shadow", "4"
        )
        assert code == 0
        assert doc["blocks"] == 21
        assert doc["shadow"]["size"] == 105
        assert doc["shadow"]["formula_size"] == 105
        assert doc["shadow"]["matches_formula"] is True


class TestHarness:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_terminal_gets_a_table(self, capsys, monkeypatch):
        import sys as _sys

        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True)
        code = main(["construct", "--family", "x5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "op" in out and "{" not in out.splitlines()[0]

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

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "oddtown.cli", "construct", "--family", "x5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["op"] == 3
