import json
from pathlib import Path

import pytest

from hallq.cli import main, parse_class_type

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCylinder:
    def test_haar_level3(self, capsys):
        code, doc = run_cli(
            ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", "2", "--rho", "2,1"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["value_num"] == "1"
        assert doc["result"]["value_den"] == "8"
        assert doc["result"]["checks"]["two_route_equal"] is True

    def test_q_from_file(self, capsys):
        code, doc = run_cli(
            ["cylinder", "--spec", str(SPECS / "two_thirds.spec"), "--rho", "2"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["q"] == "2"

    def test_manifest_embedded(self, capsys):
        code, doc = run_cli(
            ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", "2", "--rho", "1"],
            capsys,
        )
        man = doc["manifest"]
        assert man["command"] == "cylinder"
        assert man["version"]
        assert "rho" in man["params"]

    def test_deterministic_payload(self, capsys):
        argv = ["cylinder", "--spec", str(SPECS / "fifths.spec"), "--q", "2", "--rho", "2,2"]
        _, d1 = run_cli(argv, capsys)
        _, d2 = run_cli(argv, capsys)
        d1["manifest"].pop("timing_s")
        d2["manifest"].pop("timing_s")
        assert d1 == d2


class TestCoherence:
    def test_pass(self, capsys):
        code, doc = run_cli(
            ["coherence-check", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2", "--nmax", "4"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["checks"] == {"coherence": True, "normalization": True}
        assert doc["result"]["violations"] == []

    def test_wrong_convention_fails_loudly(self, capsys):
        code = main(
            ["coherence-check", "--spec", str(SPECS / "beta_one.spec"), "--q", "2",
             "--nmax", "4", "--convention", "expand-alpha"]
        )
        assert code == 2  # negative cylinder diagnosed as an error
        code, doc = run_cli(
            ["coherence-check", "--spec", str(SPECS / "beta_one.spec"), "--q", "2",
             "--nmax", "4", "--convention", "expand-beta"],
            capsys,
        )
        assert code == 0


class TestCharacter:
    def test_unipotent(self, capsys):
        code, doc = run_cli(
            ["character", "--kind", "unipotent", "--label", "2,1", "--class", "2,1", "--q", "2"],
            capsys,
        )
        assert code == 0 and doc["result"]["value"]["value"] == "2"

    def test_trivial_label(self, capsys):
        code, doc = run_cli(
            ["character", "--kind", "unipotent", "--label", "3", "--class", "2,1", "--q", "2"],
            capsys,
        )
        assert doc["result"]["value"]["value"] == "1"

    def test_induced(self, capsys):
        code, doc = run_cli(
            ["character", "--kind", "induced", "--label", "1,1", "--class", "1,1", "--q", "2"],
            capsys,
        )
        assert doc["result"]["value"]["value"] == "3"

    def test_glb_general(self, capsys):
        code, doc = run_cli(
            ["character", "--kind", "glb", "--spec", str(SPECS / "haar.spec"),
             "--class-type", "11:2;111:1", "--q", "2"],
            capsys,
        )
        assert doc["result"]["value"]["value"] == "1"

    def test_size_mismatch_is_usage_error(self, capsys):
        code = main(["character", "--kind", "unipotent", "--label", "2,1", "--class", "2", "--q", "2"])
        assert code == 2


class TestClassTypeParsing:
    def test_parse(self):
        phi = parse_class_type("11:2,1;111:1")
        assert phi == {(1, 1): (2, 1), (1, 1, 1): (1,)}


class TestLln:
    def test_gate_run_with_files(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "traj.csv"
        code = main(
            ["lln", "--mode", "haar", "--q", "2", "--n", "400", "--trials", "200",
             "--seed", "42", "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["gate"]["ok"] is True
        assert csv.read_text().startswith("trial,n,k,row_over_n,col_over_n")

    def test_measure_mode(self, capsys):
        code, doc = run_cli(
            ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
             "--q", "2", "--n", "8", "--trials", "3", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["counts_source"] == "brute-force-validated counts"

    def test_measure_mode_refuses_a_convention_that_does_not_fit(self, capsys):
        # lln has no --convention flag: a pure-beta point under expand-alpha is refused
        code = main(["lln", "--mode", "measure", "--spec", str(SPECS / "beta_one.spec"),
                     "--n", "6", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: negative cylinder value")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "error: seed must satisfy 0 <= seed < 2^64, got -1"),
            ("--seed", str(2**64), f"error: seed must satisfy 0 <= seed < 2^64, got {2**64}"),
            ("--trials", "0", "error: trials must be at least 1, got 0"),
        ],
    )
    def test_bad_seed_or_trials_is_usage_error(self, capsys, flag, value, message):
        argv = ["lln", "--mode", "haar", "--q", "2", "--n", "10", "--trials", "2", "--seed", "1"]
        code = main(argv + [flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"


    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--q", "6"], "error: 6 is not a prime power"),
            (["--q", "1"], "error: q must be between 2 and 256"),
            (["--n", "0"], "error: n_max must be at least 1, got 0"),
            (["--engine", "markov"], "error: haar mode runs the engines ('chain', 'matrix'), not 'markov'"),
            (["--engine", "matrix", "--n", "601"], "error: matrix engine limited to n <= 600; use the chain engine"),
        ],
    )
    def test_bad_haar_config_is_usage_error(self, capsys, extra, message):
        argv = ["lln", "--mode", "haar", "--q", "2", "--n", "10", "--trials", "2", "--seed", "3"]
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_measure_mode_rejects_the_matrix_engine(self, capsys):
        code = main(["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
                     "--engine", "matrix", "--n", "6", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: measure mode runs the engines ('markov', 'chain'), not 'matrix'\n"

    def test_measure_mode_accepts_markov_and_chain(self, capsys):
        docs = []
        for engine in ("markov", "chain"):
            code, doc = run_cli(
                ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
                 "--engine", engine, "--n", "6", "--trials", "2", "--seed", "1"],
                capsys,
            )
            assert code == 0
            docs.append(doc["result"])
        assert docs[0]["engine"] == "markov" and docs[1]["engine"] == "chain"
        assert docs[0]["row_freq_means"] == docs[1]["row_freq_means"]


class TestOtherCommands:
    def test_flag_count(self, capsys):
        code, doc = run_cli(
            ["flag-count", "--matrix", "110;010;001", "--q", "2", "--mu", "1,1,1"],
            capsys,
        )
        assert code == 0 and doc["result"]["count"] == 5

    def test_grassmann(self, capsys):
        code, doc = run_cli(["grassmann", "--n", "3", "--k", "1", "--q", "2"], capsys)
        assert code == 0
        sizes = sorted(c["size"] for c in doc["result"]["cells"])
        assert sizes == [1, 2, 4]
        assert doc["result"]["checks"]["total_equals_gaussian"] is True

    def test_ipfamily(self, capsys):
        code, doc = run_cli(["ipfamily-check", "--example", "gl", "--m", "1", "--q", "2"], capsys)
        assert code == 0
        assert doc["result"]["verdicts"]["embed_multiplicative"] is True
        assert doc["result"]["verdicts"]["flag_induction"] is True

    def test_wreath_with_empty_coefficient_group_is_usage_error(self, capsys):
        code = main(["ipfamily-check", "--example", "wreath", "--m", "1", "--coeff", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cyclic group order must be at least 1, got 0\n"

    @pytest.mark.parametrize("nmax", ["0", "-1"])
    def test_coherence_check_nmax_below_one_is_usage_error(self, capsys, nmax):
        code = main(["coherence-check", "--spec", str(SPECS / "haar.spec"), "--q", "2", "--nmax", nmax])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: n_max must be at least 1, got {nmax}\n"

    def test_kostka_foulkes(self, capsys):
        code, doc = run_cli(["kostka-foulkes", "--n", "3", "--t", "1/2"], capsys)
        assert code == 0
        assert doc["result"]["order"] == ["3", "2,1", "1,1,1"]
        # row (3): entries t^n(mu) = 1, 1/2, 1/8
        assert doc["result"]["matrix"][0] == ["1", "1/2", "1/8"]

    def test_selftest_quick(self, capsys):
        code, doc = run_cli(["selftest", "--level", "quick"], capsys)
        assert code == 0 and doc["result"]["ok"] is True

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2
