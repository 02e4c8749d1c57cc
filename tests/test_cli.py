import hashlib
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hallq import measures, sampler
from hallq.cli import build_parser, main, parse_class_type
from hallq.partitions import conjugate, covers_up
from hallq.symfun import parse_rational

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def assert_usage_error(argv, capsys) -> str:
    """Exit 2, nothing on stdout, one "error:" line on stderr; returns it."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


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

    def test_fast_route_is_refereed_by_the_q_route(self, capsys, monkeypatch):
        # haar.spec takes the fast r-route, so the other route is the Q-route
        monkeypatch.setattr(measures, "cylinder_via_q", lambda meas, rho: Fraction(0))
        code, doc = run_cli(
            ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", "2", "--rho", "2,1"],
            capsys,
        )
        assert code == 1
        assert doc["result"]["value_den"] == "8"
        assert doc["result"]["checks"]["two_route_equal"] is False

    def test_beta_point_is_a_probability(self, capsys):
        # beta_one is evaluated at its expand-both point, the measure on one-column types
        code, doc = run_cli(
            ["cylinder", "--spec", str(SPECS / "beta_one.spec"), "--q", "2", "--rho", "1,1"],
            capsys,
        )
        assert code == 0
        assert (doc["result"]["value_num"], doc["result"]["value_den"]) == ("1", "1")
        assert doc["result"]["checks"]["two_route_equal"] is True
        assert "convention" not in doc["result"] and "convention" not in doc["manifest"]["params"]

    @pytest.mark.parametrize("q,value", [("4", "13/576"), ("9", "23/6561"), ("17", "13/14739"),
                                         ("257", "173/50923779")])
    def test_prime_power_q_gives_values(self, capsys, q, value):
        code, doc = run_cli(["cylinder", "--spec", str(SPECS / "two_thirds.spec"), "--q", q, "--rho", "2,1"], capsys)
        assert code == 0 and doc["result"]["checks"]["two_route_equal"] is True
        assert doc["result"]["value_num"] + "/" + doc["result"]["value_den"] == value
        code, doc = run_cli(["coherence-check", "--spec", str(SPECS / "three_atoms.spec"), "--q", q, "--nmax", "3"],
                            capsys)
        assert code == 0 and doc["result"]["checks"] == {"coherence": True, "normalization": True}

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
        assert (doc["result"]["normalization_level"], doc["result"]["normalization_total"]) == (4, "1")
        assert "counts" not in doc["result"] and "counts" not in doc["manifest"]["params"]
        assert "convention" not in doc["manifest"]["params"]

    def test_counts_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coherence-check", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2", "--nmax", "4",
                  "--counts", "brute"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_convention_option_is_gone(self, capsys):
        for argv in (["cylinder", "--spec", str(SPECS / "beta_one.spec"), "--q", "2", "--rho", "2"],
                     ["coherence-check", "--spec", str(SPECS / "beta_one.spec"), "--q", "2", "--nmax", "4"]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--convention", "expand-beta"])
            assert err.value.code == 2
            assert capsys.readouterr().out == ""

    def test_beta_specs_pass(self, capsys):
        for name in ("beta_one.spec", "mixed.spec"):
            for q, nmax in (("2", "6"), ("3", "4")):
                code, doc = run_cli(
                    ["coherence-check", "--spec", str(SPECS / name), "--q", q, "--nmax", nmax], capsys
                )
                assert code == 0, (name, q)
                assert doc["result"]["checks"] == {"coherence": True, "normalization": True}
                assert doc["result"]["normalization_level"] == int(nmax)


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

    @pytest.mark.parametrize("text", ["11", "11:1;11:2", "11:1;110:2"])
    def test_missing_colon_or_repeated_poly(self, text):
        # a repeated polynomial once overwrote the earlier pair without a word
        with pytest.raises(ValueError, match="distinct polys"):
            parse_class_type(text)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["lln", "--mode", "haar", "--engine", "chain", "--q", "3", "--n", "150", "--trials", "5"],
            ["lln", "--mode", "haar", "--engine", "matrix", "--q", "2", "--n", "40", "--trials", "3"],
            ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2", "--n", "8",
             "--trials", "4"],
        ],
        ids=["chain", "matrix", "measure"],
    )
    def test_two_workers_match_one(self, tmp_path, argv):
        # same bytes apart from the run time and the manifest's record of the flag itself
        out, csv = tmp_path / "report.json", tmp_path / "traj.csv"
        runs = []
        for threads in ("1", "2"):
            code = main(["--threads", threads, *argv, "--seed", "7", "--out", str(out), "--csv", str(csv)])
            text = re.sub(r'"timing_s": .*', '"timing_s": masked', out.read_text())
            text = text.replace(f'"threads": {threads}', '"threads": masked')
            runs.append((code, text, csv.read_bytes()))
        assert runs[0] == runs[1]
        assert '"timing_s": masked' in runs[0][1] and '"threads": masked' in runs[0][1]

    # sha256 of the --csv file of each run, recorded while records still held
    # their snapshot tuples; reading them from the box-column path must not
    # change a byte
    GOLDEN_CSV = {
        "chain-q2": (["--mode", "haar", "--engine", "chain", "--q", "2", "--n", "300", "--trials", "8",
                      "--seed", "1201"],
                     "2228456d3ad4b257cc9c77325bcc8d1f0d748f4bc92205ca96c0c288a4425c55"),
        "chain-q3-two-workers": (["--mode", "haar", "--engine", "chain", "--q", "3", "--n", "200", "--trials",
                                  "6", "--seed", "1202"],
                                 "02f6fcae1c18c60342afd79bea1948559bfd21c051978967492f29dd0156dbe6"),
        "matrix-q2": (["--mode", "haar", "--engine", "matrix", "--q", "2", "--n", "130", "--trials", "2",
                       "--seed", "1203"],
                      "84603bcd236ddb91426d0d4abbde5f13e21ab8919b1636e35728f02890e0a8d1"),
        "matrix-q3": (["--mode", "haar", "--engine", "matrix", "--q", "3", "--n", "70", "--trials", "2",
                       "--seed", "1204"],
                      "4704b9fb4100cf59b17bcee9b34b6598b06f11f715dc92632d7a828c3923d4d4"),
        "measure-q2": (["--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2", "--n", "12",
                        "--trials", "3", "--seed", "1205"],
                       "67d95bc38055a532e7f71d1a6213eb2576b97a6de74b10a23356d2160ccd13e7"),
        # recorded while every cover value came from its own subspace-count
        # polynomial; the integer sweep and the one-pass covers must not
        # change a byte
        "measure-q2-n60": (["--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2", "--n", "60",
                            "--trials", "3", "--seed", "1301"],
                           "c3d67934493e16c61f5164ee0b72ead65daafd73c92eb7287c827743bd17b987"),
        "measure-q3-n20": (["--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--q", "3", "--n", "20",
                            "--trials", "3", "--seed", "1302"],
                           "bcb48c74b492c8d6ebcbb5580fe3eb6b62faf1ee66dd25a77777761a78cb7658"),
        "measure-q2-two-workers": (["--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--q", "2",
                                    "--n", "40", "--trials", "4", "--seed", "1303"],
                                   "1c5fea686dc6852bb3ec59ae69705640148348ea63359b6e57ab555e386f7b57"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
    def test_csv_matches_golden_digest(self, capsys, tmp_path, name):
        argv, digest = self.GOLDEN_CSV[name]
        threads = "2" if name.endswith("two-workers") else "1"
        csv = tmp_path / "traj.csv"
        main(["--threads", threads, "lln", *argv, "--csv", str(csv)])
        capsys.readouterr()
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest

    def test_haar_mode_prints_its_gate_table_on_stderr(self, capsys):
        code = main(["lln", "--mode", "haar", "--n", "10", "--trials", "3", "--seed", "9"])
        captured = capsys.readouterr()
        gate = json.loads(captured.out)["result"]["gate"]
        assert code == 1 and not gate["ok"]  # n = 10 is far from the limit
        lines = captured.err.splitlines()
        assert lines[:3] == ["Haar growth: q=2 n=10 trials=3 seed=9",
                             "  k       mean         se     target   3se  abs.02",
                             "  1    0.60000   0.000000    0.50000 False   False"]
        assert len(lines) == 3 + len(gate["rows"]) and lines[-1] == "gate: FAIL"

    def test_measure_mode_prints_its_trend_table_on_stderr(self, capsys):
        # the header names the spec file only, not where the checkout lives
        code = main(["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
                     "--n", "6", "--trials", "2", "--kmax", "3"])
        captured = capsys.readouterr()
        assert code == 0
        result = json.loads(captured.out)["result"]
        lines = captured.err.splitlines()
        assert lines[:3] == ["measure growth: two_thirds.spec q=2 n=6 trials=2",
                             "counts: closed-form counts",
                             "  k   row mean  row target   col mean  col target"]
        rows = [line.split() for line in lines[3:6]]
        assert [float(r[1]) for r in rows] == [round(x, 5) for x in result["row_freq_means"]]
        assert [r[2] for r in rows] == ["0.33333", "0.16667", "0.16667"]
        assert [r[4] for r in rows] == ["0.00000"] * 3  # no betas: column targets read 0
        assert lines[6].startswith("distance (rows, L1 over k<=3): ") and len(lines) == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["lln", "--n", "10", "--trials", "2", "--out", "{missing}"],
            ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"), "--n", "6", "--trials", "2",
             "--csv", "{missing}"],
            ["cylinder", "--spec", str(SPECS / "haar.spec"), "--rho", "1", "--out", "{missing}"],
        ],
        ids=["lln-out", "lln-csv", "cylinder-out"],
    )
    def test_unwritable_output_path_is_found_before_the_run(self, capsys, monkeypatch, tmp_path, argv):
        def no_run(*args):
            raise AssertionError("ran")
        monkeypatch.setattr(sampler, "run_lln", no_run)
        monkeypatch.setattr(measures, "cylinder_prob", no_run)
        path = str(tmp_path / "missing" / "x.json")
        flag = "--csv" if "--csv" in argv else "--out"
        err = assert_usage_error([arg.format(missing=path) for arg in argv], capsys)
        assert err == f"error: cannot write {flag} {path}: No such file or directory\n"

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_usage_error_leaves_output_files_as_they_were(self, capsys, tmp_path, flag):
        path = tmp_path / "new.json"
        assert_usage_error(["lln", "--n", "10", "--trials", "2", "--seed", "-1", flag, str(path)], capsys)
        assert list(tmp_path.iterdir()) == []
        path.write_text("an older report\n")
        assert_usage_error(["lln", "--n", "10", "--trials", "2", "--seed", "-1", flag, str(path)], capsys)
        assert path.read_text() == "an older report\n"

    def test_existing_out_file_is_replaced_by_the_report(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        out.write_text("old report, longer than the new one\n" * 1000)
        code = main(["lln", "--n", "10", "--trials", "5", "--out", str(out)])
        captured = capsys.readouterr()
        doc = json.loads(out.read_text())
        assert code == (0 if doc["result"]["gate"]["ok"] else 1) and captured.out == ""
        assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_measure_mode(self, capsys):
        code, doc = run_cli(
            ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
             "--q", "2", "--n", "8", "--trials", "3", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["counts_source"] == "closed-form counts"

    def test_measure_mode_at_q4(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, doc = run_cli(
            ["lln", "--mode", "measure", "--spec", str(SPECS / "two_thirds.spec"),
             "--q", "4", "--n", "6", "--trials", "2", "--csv", str(csv)],
            capsys,
        )
        assert code == 0
        assert doc["result"]["counts_source"] == "closed-form counts"
        cols = {}  # (trial, n) -> column lengths, read back from col_over_n
        for line in csv.read_text().splitlines()[1:]:
            trial, n, _, _, col = line.split(",")
            length = round(float(col) * int(n))
            if length:
                cols.setdefault((int(trial), int(n)), []).append(length)
        for trial in (0, 1):
            rho = ()
            for n in range(1, 7):
                sigma = conjugate(tuple(cols[trial, n]))
                assert sigma in covers_up(rho), (trial, n)
                rho = sigma

    def test_measure_mode_runs_the_beta_point(self, capsys):
        # the pure-beta measure lives on one-column types: every final type is one column of length n
        code, doc = run_cli(["lln", "--mode", "measure", "--spec", str(SPECS / "beta_one.spec"),
                             "--n", "6", "--trials", "2"], capsys)
        assert code == 0
        assert doc["result"]["col_freq_means"][0] == 1.0

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

    @pytest.mark.parametrize(
        "kmax,message",
        [
            ("3", "error: the haar gate reads 4 row frequencies, so k_max must be at least 4, got 3"),
            ("0", "error: k_max must be at least 1, got 0"),
            ("-3", "error: k_max must be at least 1, got -3"),
        ],
    )
    def test_kmax_too_small_is_usage_error(self, capsys, kmax, message):
        code = main(["lln", "--mode", "haar", "--n", "10", "--trials", "2", "--kmax", kmax])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, capsys, threads):
        code = main(["--threads", threads, "lln", "--mode", "haar", "--n", "10", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: threads must be at least 1, got {threads}\n"

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


class TestScriptsAndDocs:
    ROOT = SPECS.parent

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--q", "6", "--nmax", "2"], "6 is not a prime power"),
            (["--q", "1"], "q must be between 2 and 256"),
            (["--q", "2", "--nmax", "0"], "--nmax must be at least 1, got 0"),
            (["--q", "2", "--nmax", "-3"], "--nmax must be at least 1, got -3"),
            (["--nmax", "3"], "--nmax needs --q"),
        ],
    )
    def test_validate_fast_counts_exits_2_on_bad_input(self, argv, message):
        # exit 1 is a mismatch; bad input is one error line and exit 2, before any census
        script = self.ROOT / "scripts" / "validate_fast_counts.py"
        done = subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    def test_readme_commands_parse_and_its_scripts_exist(self):
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("hallq ")]
        assert len(commands) >= 10
        parser = build_parser()
        for argv in commands:
            assert parser.parse_args(argv[1:]).command in argv
        scripts = set(re.findall(r"scripts/[\w-]+\.py", readme))
        assert scripts and sorted(name for name in scripts if not (self.ROOT / name).is_file()) == []


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


GLB = ["character", "--kind", "glb", "--spec", str(SPECS / "two_thirds.spec")]
NEGATIVE_M = "tower level m must be >= 0, got -1"
OVERSIZED = "rational input '1e3000000' would have more than 4300 digits"


class TestExitTwoContract:
    """Bad input exits 2 with one "error:" line and no traceback, before any
    long enumeration starts."""

    SPEC_FILES = {
        "alpha_spec": '{"alphas": [{"value": "1e3000000"}], "q": "2"}',
        "q_spec": '{"alphas": [{"value": "1"}], "q": "1e3000000"}',
    }

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ipfamily-check", "--example", "gl", "--m", "-1", "--q", "2"], NEGATIVE_M),
            (["ipfamily-check", "--example", "affine", "--m", "-1", "--q", "2"], NEGATIVE_M),
            (["ipfamily-check", "--example", "wreath", "--m", "-1"], NEGATIVE_M),
            (["cylinder", "--spec", "{alpha_spec}", "--rho", "1"], f"malformed spec file: alphas value: {OVERSIZED}"),
            (["cylinder", "--spec", "{q_spec}", "--rho", "1"], f"malformed spec file: q: {OVERSIZED}"),
            (GLB + ["--q", "2", "--class-type", "1:1"], "constant polynomial in class type"),
            (GLB + ["--q", "2", "--class-type", "01:1"], "the polynomial t may not appear"),
            (GLB + ["--q", "2", "--class-type", "101:1"], "(1, 0, 1) is not irreducible over F_2"),
            (GLB + ["--q", "3", "--class-type", "12:1"], "(1, 2) is not monic"),
            # one request past each enumeration budget
            (["grassmann", "--n", "7", "--k", "3", "--q", "2"],
             "F_2^7 has sum_k [7, k]_2 subspaces; scanning 2^7 vectors for each is over the budget "
             "of 1048576 vectors scanned"),
            (["ipfamily-check", "--example", "gl", "--m", "3", "--q", "2"],
             "the 2^16 matrices of size 4 over F_2 are over the budget of 20000"),
            (["ipfamily-check", "--example", "wreath", "--m", "4"],
             "S_5 wr Z/2 has 5! * 2^5 elements, over the budget of 1000"),
            (GLB + ["--q", "251", "--class-type", "10001:1"],  # t^4 + 1 has no root mod 251
             "the 251^2 monic polynomials of degree 2 over F_251 are over the budget of 16384 sieve candidates"),
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, argv, message):
        paths = {}
        for name, text in self.SPEC_FILES.items():
            paths[name] = tmp_path / f"{name}.spec"
            paths[name].write_text(text)
        err = assert_usage_error([arg.format(**paths) for arg in argv], capsys)
        assert err == f"error: {message}\n" and "Traceback" not in err


class TestUsageErrors:
    """Inputs that once ended in a traceback, exit 1 or a wrong answer."""

    def test_unipotent_character_without_label_or_class(self, capsys):
        err = assert_usage_error(["character", "--kind", "unipotent", "--q", "2"], capsys)
        assert "--label" in err and "--class" in err

    def test_glb_character_without_spec(self, capsys):
        err = assert_usage_error(["character", "--kind", "glb", "--q", "2", "--class", "2,1"], capsys)
        assert "--spec" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["kostka-foulkes", "--n", "3", "--t", "1/0"],
            ["character", "--kind", "unipotent", "--label", "1", "--class", "1", "--q", "1/0"],
        ],
    )
    def test_zero_denominator(self, capsys, argv):
        assert assert_usage_error(argv, capsys) == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize(
        "text",
        ['{"alphas":[{"val":"1"}]}', "[1,2]", '{"alphas":[{"value":"1/0"}]}'],
    )
    def test_malformed_spec_file(self, capsys, tmp_path, text):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        err = assert_usage_error(["cylinder", "--spec", str(spec), "--q", "2", "--rho", "1"], capsys)
        assert err.startswith("error: malformed spec file: ")

    def test_spec_is_a_directory(self, capsys):
        assert_usage_error(["cylinder", "--spec", str(SPECS), "--q", "2", "--rho", "1"], capsys)

    def test_spec_without_q_and_no_flag(self, capsys, tmp_path):
        spec = tmp_path / "noq.spec"
        spec.write_text('{"alphas": [{"value": "1"}]}')
        err = assert_usage_error(["cylinder", "--spec", str(spec), "--rho", "1"], capsys)
        assert err == "error: missing q: pass --q or store it in the spec file\n"

    def test_measure_lln_without_spec(self, capsys):
        err = assert_usage_error(["lln", "--mode", "measure", "--n", "5", "--trials", "2"], capsys)
        assert err == "error: measure mode needs --spec\n"

    @pytest.mark.parametrize("matrix,shape", [("11", "1x2"), ("110;011", "2x3")])
    def test_flag_count_needs_a_square_matrix(self, capsys, matrix, shape):
        err = assert_usage_error(["flag-count", "--matrix", matrix, "--q", "2", "--mu", "1"], capsys)
        assert err == f"error: fixed flags need a square matrix, got {shape}\n"

    def test_measure_lln_takes_q_from_the_spec_file(self, capsys, tmp_path):
        doc = json.loads((SPECS / "two_thirds.spec").read_text())
        doc["q"] = "3"
        spec = tmp_path / "two_thirds_q3.spec"
        spec.write_text(json.dumps(doc))
        argv = ["lln", "--mode", "measure", "--spec", str(spec), "--n", "6", "--trials", "2"]
        code, from_file = run_cli(argv, capsys)
        assert code == 0
        code, from_flag = run_cli(argv + ["--q", "3"], capsys)
        assert code == 0
        for doc in (from_file, from_flag):
            doc["manifest"].pop("timing_s")
        assert from_file["result"]["q"] == 3 and from_file["manifest"]["params"]["q"] == 3
        assert from_file == from_flag

    def test_output_path_is_a_directory(self, capsys, tmp_path):
        argv = ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", "2", "--rho", "1", "--out", str(tmp_path)]
        assert assert_usage_error(argv, capsys) == f"error: cannot write --out {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["kostka-foulkes", "--n", "2", "--t", "1e1000000"],
            ["kostka-foulkes", "--n", "2", "--t", "1/" + "7" * 4301],
            ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", "2e-4300", "--rho", "1"],
        ],
    )
    def test_oversized_rational(self, capsys, argv):
        # refused from the text, before a 10^1000000 is built or printed
        text = argv[argv.index("--t" if "--t" in argv else "--q") + 1]
        err = assert_usage_error(argv, capsys)
        assert err == f"error: rational input {text[:40]!r} would have more than 4300 digits\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["kostka-foulkes", "--n", "3", "--t", "1e2000"],  # the entry t^3 has 6001 digits
             "error: output value of about 6000 digits is over the 4300-digit limit on printed rationals\n"),
            (["character", "--kind", "unipotent", "--label", "1,1,1", "--class", "1,1,1", "--q", "1e1500"],
             "error: output value of about 4500 digits is over the 4300-digit limit on printed rationals\n"),
            (["character", "--kind", "unipotent", "--label", "1,1,1", "--class", "1,1,1", "--q", "1e300"],
             "error: output value of about 900 digits is beyond the float range of its decimal annotation\n"),
        ],
    )
    def test_oversized_output(self, capsys, argv, message):
        # the inputs pass the 4300-digit bound; the exact outputs they lead to do not fit
        assert assert_usage_error(argv, capsys) == message

    def test_rational_at_the_digit_bound(self, capsys):
        assert parse_rational("1e4299") == 10**4299
        assert parse_rational("-" + "9" * 4300 + "/" + "7" * 4300) == -Fraction(int("9" * 4300), int("7" * 4300))

    @pytest.mark.parametrize(
        "argv",
        [
            ["cylinder", "--spec", str(SPECS / "two_thirds.spec"), "--q", "5/2", "--rho", "2,1"],
            ["coherence-check", "--spec", str(SPECS / "two_thirds.spec"), "--q", "5/2", "--nmax", "3"],
        ],
    )
    def test_measure_needs_an_integer_q(self, capsys, argv):
        # a truncated q once gave a wrong verdict; a rational q builds no measure
        assert assert_usage_error(argv, capsys) == "error: a central measure needs an integer q, got 5/2\n"

    @pytest.mark.parametrize("q", ["6", "10"])
    @pytest.mark.parametrize("command,extra", [("cylinder", ["--rho", "2,1"]), ("coherence-check", ["--nmax", "4"])])
    def test_measure_needs_a_prime_power_q(self, capsys, command, extra, q):
        # there is no field F_6, so no measure on matrices over it
        argv = [command, "--spec", str(SPECS / "two_thirds.spec"), "--q", q] + extra
        assert assert_usage_error(argv, capsys) == f"error: {q} is not a prime power\n"

    @pytest.mark.parametrize("q", ["4294967296", "1e1500"])
    def test_measure_q_is_bounded(self, capsys, q):
        # the prime-power check is decided below 2^32, never on a huge q
        argv = ["cylinder", "--spec", str(SPECS / "haar.spec"), "--q", q, "--rho", "2,1"]
        assert assert_usage_error(argv, capsys) == "error: q must be an integer with 2 <= q < 2^32\n"

    def test_glb_character_takes_a_rational_q(self, capsys):
        code, doc = run_cli(["character", "--kind", "glb", "--spec", str(SPECS / "two_thirds.spec"),
                             "--class", "2,1", "--q", "5/2"], capsys)
        assert code == 0 and doc["result"]["value"]["value"] == "10/9"

    def test_character_at_q_zero(self, capsys):
        argv = ["character", "--kind", "unipotent", "--label", "1", "--class", "1", "--q", "0"]
        assert assert_usage_error(argv, capsys) == "error: q must be nonzero\n"
