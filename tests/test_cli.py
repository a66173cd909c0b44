import csv
import inspect
import io
import json
import math
import pathlib
import re
import resource
import shlex
import subprocess
import sys

import pytest

from halfint import cli, mollifier
from halfint.arith import enumerate_nflat
from halfint.cli import cmd_moments, cmd_signchanges
from halfint.hecke import build_hecke_table
from halfint.qseries import delta_halfintegral, load_coeffs, save_coeffs

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


_ELL_CAP = ("leading exponent theta0 must give ell_0 = 2 floor(theta0^(-3/4)) <= 64, "
            "the largest ell the Taylor check certifies")


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "halfint.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


@pytest.fixture(scope="module")
def small_coeffs(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "delta_20000.hicf"
    save_coeffs(delta_halfintegral(20_000), str(path))
    return str(path)


class TestSignChangesOp:
    def test_scaling_invariance(self, table10k):
        from halfint.qseries import CoeffTable

        base = cmd_signchanges(10_000, "all_supported", table10k)
        doubled = CoeffTable([2 * v for v in table10k.alpha])
        negated = CoeffTable([-v for v in table10k.alpha])
        assert cmd_signchanges(10_000, "all_supported", doubled).S == base.S
        assert cmd_signchanges(10_000, "all_supported", negated).S == base.S

    def test_counts_consistent(self, table10k):
        rep = cmd_signchanges(10_000, "all_supported", table10k)
        assert rep.N_set == 5000
        assert 0 < rep.S <= rep.N_set
        assert rep.ratio == rep.S / rep.N_set

    def test_nflat_subset(self, table10k):
        rep = cmd_signchanges(10_000, "nflat", table10k)
        assert rep.N_set == 508  # odd square-free m <= 1250, counted by sieve
        assert rep.S <= rep.N_set


class TestCliEndToEnd:
    def test_coeffs_then_signchanges(self, tmp_path):
        out = tmp_path / "c.hicf"
        r = run_cli(["coeffs", "--limit", "2000", "--out", str(out)])
        assert r.returncode == 0, r.stderr
        assert out.exists()
        r2 = run_cli(
            ["signchanges", "--limit", "2000", "--set", "all", "--coeffs", str(out)]
        )
        assert r2.returncode == 0, r2.stderr
        header, row = r2.stdout.strip().split("\n")
        assert header.split(",")[:4] == ["X", "index_set", "S", "N_set"]
        cells = row.split(",")
        assert cells[0] == "2000" and cells[3] == "1000"

    def test_signchanges_missing_file_is_usage_error(self):
        r = run_cli(["signchanges", "--limit", "10", "--coeffs", "nope.hicf"])
        assert r.returncode == 2

    def test_bad_subcommand_usage(self):
        r = run_cli(["frobnicate"])
        assert r.returncode == 2

    def test_jutila_csv(self):
        r = run_cli(["jutila", "--qgrid", "300,600", "--eta", "0.5", "--delta", "1"])
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "Q,arcs,defect"
        assert len(lines) == 3

    def test_jsonl_format(self):
        r = run_cli(["--format", "jsonl", "jutila", "--qgrid", "300"])
        assert r.returncode == 0
        row = json.loads(r.stdout.strip())
        assert set(row) == {"Q", "arcs", "defect"}

    def test_moments_with_mollify(self, small_coeffs):
        r = run_cli(
            [
                "moments",
                "--blocks",
                "1024,2048",
                "--coeffs",
                small_coeffs,
                "--mollify",
                "x=2097152,theta0=0.08,eta2=0.2,c0=2",
            ]
        )
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "X,second,mollified_second,mollified_fourth"
        assert len(lines) == 3

    def test_shifted_grid(self, small_coeffs):
        r = run_cli(
            ["shifted", "--h", "1", "--delta", "3", "--v", "1",
             "--xgrid", "512,1024", "--coeffs", small_coeffs]
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("X,re,im,abs\n")

    def test_waldspurger_small(self):
        r = run_cli(["waldspurger", "--dmax", "300", "--tol", "1e-8"])
        assert r.returncode == 0, r.stderr
        assert "rel_std_dev" in r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "d,alpha,lvalue,ratio"
        assert len(lines) == 1 + len([d for d in range(8, 301, 8)
                                      if _nflat_member(d)])

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.csv"
        r = run_cli(["--out", str(out), "jutila", "--qgrid", "300"])
        assert r.returncode == 0
        assert out.read_text().startswith("Q,arcs,defect\n")

    # `named` is what the message must name: the flag, or the value at fault
    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (["waldspurger", "--dmax", "50", "--tol", "nan"], 2, "tolerance"),
            (["waldspurger", "--dmax", "50", "--tol", "0"], 2, "tolerance"),
            (["waldspurger", "--dmax", "50", "--tol=-1e-8"], 2, "tolerance"),
            (["waldspurger", "--dmax", "50", "--tol", "1e-16"], 3, "tolerance"),
            (["moments", "--blocks", "0,64", "--coeffs", "COEFFS"], 2, "block sizes"),
            (["moments", "--blocks", "16384.9", "--coeffs", "COEFFS"], 2, "'16384.9'"),
            (["moments", "--blocks", "64", "--coeffs", "COEFFS",
              "--mollify", "x=2097152,theta0=0.08,eta2=0.2,c0=2,kapa=1.5"], 2, "'kapa'"),
            (["shifted", "--h", "1", "--xgrid", "0", "--coeffs", "COEFFS"], 2, "X must"),
            (["shifted", "--h", "1", "--xgrid", "inf", "--coeffs", "COEFFS"], 2, "'inf'"),
            (["signchanges", "--limit", "-5", "--coeffs", "COEFFS"], 2, "limit"),
            (["moments", "--blocks", "64,abc", "--coeffs", "COEFFS"], 2, "--blocks"),
            (["signchanges", "--limit", "1e3", "--coeffs", "COEFFS"], 2, "--limit"),
            (["waldspurger", "--dmax", "50", "--tol", "tight"], 2, "--tol"),
            (["waldspurger", "--dmax", "7"], 2, "--dmax value 7 is below 8"),
            (["jutila", "--qgrid", ","], 2, "--qgrid value ',' lists no integers"),
            (["moments", "--blocks", ",", "--coeffs", "COEFFS"], 2,
             "--blocks value ',' lists no integers"),
            (["jutila", "--qgrid", "-5"], 2, "Q must be at least 1, got -5"),
            (["waldspurger", "--dmax", "8", "--tol", "1e-320"], 2,
             "tolerance must be finite and at least 2.225e-308"),
            (["waldspurger", "--dmax", "1" + "0" * 400], 3, "entries is past the budget of"),
            (["jutila", "--qgrid", "1" + "0" * 400], 2, "Q must be at most 1.798e+308"),
            (["shifted", "--h", "1", "--xgrid", "1" + "0" * 400, "--coeffs", "COEFFS"], 3,
             "need coefficients past X = 1" + "0" * 400 + ", table holds 20000"),
            (["shifted", "--h", "1", "--delta", "100000000000000000000", "--v", "1",
              "--xgrid", "512", "--coeffs", "COEFFS"], 3,
             "v (n mod Delta) reaches 99999999999999999999, past int64"),
            (["moments", "--blocks", "64", "--coeffs", "COEFFS",
              "--mollify", "x=1e300,theta0=2,eta2=2"], 3,
             "largest block edge x^theta_J = e^1382 needs an infeasible sieve"),
            (["moments", "--blocks", "64", "--coeffs", "COEFFS",
              "--mollify", "x=1e6,theta0=0.5,kappa=0.5,kappa=1.5"], 2,
             "--mollify key 'kappa' is set twice"),
            (["moments", "--blocks", "64", "--coeffs", "COEFFS",
              "--mollify", "theta0=0.08,theta0=0.5"], 2, "--mollify key 'theta0' is set twice"),
            (["signchanges", "--limit", "100", "--limit", "200", "--coeffs", "COEFFS"], 2,
             "--limit is given twice"),
            (["--format", "csv", "--format", "jsonl", "jutila", "--qgrid", "300"], 2,
             "--format is given twice"),
            (["coeffs", "--limit", "10", "--out", "no-such-dir/a.hicf",
              "--out", "no-such-dir/b.hicf"], 2, "--out is given twice"),
            (["--config", "no-such-a.cfg", "--config", "no-such-b.cfg", "jutila",
              "--qgrid", "300"], 2, "error: --config is given twice"),
        ],
        ids=["tol-nan", "tol-zero", "tol-negative", "tol-unreachable", "block-zero",
             "block-fraction", "mollify-unknown-key", "xgrid-zero", "xgrid-inf",
             "limit-negative", "block-not-integer", "limit-not-integer",
             "tol-not-a-number", "dmax-below-8", "qgrid-empty", "blocks-empty",
             "qgrid-negative", "tol-subnormal", "dmax-past-float", "qgrid-past-float",
             "xgrid-past-float", "delta-past-int64", "mollify-edge-past-float",
             "mollify-kappa-twice", "mollify-theta0-twice", "limit-twice", "format-twice",
             "coeffs-out-twice", "config-twice"],
    )
    def test_bad_numeric_arguments(self, small_coeffs, capsys, argv, code, named):
        argv = [small_coeffs if a == "COEFFS" else a for a in argv]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_shifted_phase_reads_v_mod_delta(self, small_coeffs, capsys):
        # 2^62 + 1 and 10^20 + 1 are 2 mod 3, and their phases are those of v = 2
        def stdout(v):
            assert cli.main(["shifted", "--h", "1", "--v", str(v), "--delta", "3",
                             "--xgrid", "512,1024", "--coeffs", small_coeffs]) == 0
            return capsys.readouterr().out

        # the report prints each float to its last bit
        assert stdout(2**62 + 1) == stdout(10**20 + 1) == stdout(2)

    def test_tau_table_is_refused_before_it_is_allocated(self):
        # 8e7 entries would need about 18 GB; under a 3 GB address space the
        # refusal must come before numpy asks for any of it
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        r = run_cli(["waldspurger", "--dmax", "10000000"], preexec_fn=limit, timeout=60)
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == "error: a tau table of 80000000 entries is past the budget of 4000000\n"

    def test_mollify_keys_are_the_build_params_keywords(self):
        # but l: build_params only checks it, and keeps it because perfbench/ passes it
        keys = {"theta0_override" if k == "theta0" else k for k in cli._MOLLIFY_KEYS}
        assert keys == set(inspect.signature(mollifier.build_params).parameters) - {"l"}

    # in a subprocess with a timeout, so that a build_params that never returns fails its row
    @pytest.mark.parametrize("mollify, named", [
        ("x=1,theta0=0.1", "mollifier length x must satisfy 1 < x < inf, got 1.0"),
        ("x=0.5,theta0=0.1", "mollifier length x must satisfy 1 < x < inf, got 0.5"),
        ("x=0,theta0=0.1", "mollifier length x must satisfy 1 < x < inf, got 0.0"),
        ("x=2e6, theta0 ,c0=2", "--mollify token 'theta0' is not key=value"),
        ("x=2e6,c0=abc", "--mollify key c0 value 'abc' is not a number"),
        ("theta0=0", "leading exponent theta0 must be positive and finite, got 0.0"),
        ("theta0=-0.1", "leading exponent theta0 must be positive and finite, got -0.1"),
        ("eta1=1,theta0=0.08", "--mollify key 'eta1' is not one of x, kappa, eta2, c0, theta0"),
        ("C=4,theta0=0.08", "--mollify key 'C' is not one of x, kappa, eta2, c0, theta0"),
        ("x=2e6", "--mollify value 'x=2e6' does not set the required key theta0"),
        ("l=2,theta0=0.08", "--mollify key 'l' is not one of x, kappa, eta2, c0, theta0"),
        ("theta0=1e-6", f"{_ELL_CAP}, got 1e-06"),
        ("theta0=1e-300", f"{_ELL_CAP}, got 1e-300"),
        ("theta0=5e-324", f"{_ELL_CAP}, got 5e-324"),
        ("theta0=0.08,c0=nan", "lowest block edge c0 must be finite, got nan"),
        ("theta0=0.08,c0=inf", "lowest block edge c0 must be finite, got inf"),
        ("theta0=0.08,c0=1e9", "lowest block edge c0 must lie below x^theta0 = 3.192, "
         "got 1000000000.0"),
        ("theta0=0.08,kappa=-4", "kappa must be positive and finite, got -4.0"),
        ("x=2e6,theta0=0.08,kappa=1e-300",
         "kappa must keep the prefactor (log x)^(1/(2 kappa)) = e^1.337e+300 within the float "
         "range, got 1e-300"),
        ("x=1.0001,theta0=0.08,kappa=0.005",
         "kappa must keep the prefactor (log x)^(1/(2 kappa)) = e^-921 within the float "
         "range, got 0.005"),
        ("theta0=0.08,eta2=inf", "eta2 must be positive and finite, got inf"),
        ("theta0=0.08,eta2=nan", "eta2 must be positive and finite, got nan"),
        ("theta0=0.08,eta2=0", "eta2 must be positive and finite, got 0.0"),
    ], ids=["x-one", "x-half", "x-zero", "no-equals", "c0-not-a-number", "theta0-zero",
            "theta0-negative", "eta1-unknown-key", "C-unknown-key", "theta0-missing",
            "l-unknown-key", "theta0-1e-6", "theta0-1e-300", "theta0-subnormal", "c0-nan",
            "c0-inf", "c0-above-first-edge", "kappa-negative", "prefactor-overflows",
            "prefactor-underflows", "eta2-inf", "eta2-nan", "eta2-zero"])
    def test_mollify_usage_error_names_its_input(self, small_coeffs, mollify, named):
        argv = ["moments", "--blocks", "64", "--coeffs", small_coeffs, "--mollify", mollify]
        r = run_cli(argv, timeout=60)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {named}\n")

    # each key with two valid values whose moments reports differ
    MOLLIFY_VALUES = {"x": ("2097152", "3e6"), "kappa": ("0.5", "1"), "eta2": ("0.2", "0.3"),
                      "c0": ("2", "3"), "theta0": ("0.08", "0.1")}

    def test_every_mollify_key_changes_the_report(self, small_coeffs, capsys):
        assert set(self.MOLLIFY_VALUES) == set(cli._MOLLIFY_KEYS)
        base = {"x": "2097152", "theta0": "0.08", "eta2": "0.2", "c0": "2"}

        def report(key, value):
            mollify = ",".join(f"{k}={v}" for k, v in {**base, key: value}.items())
            argv = ["moments", "--blocks", "1024,2048", "--coeffs", small_coeffs,
                    "--mollify", mollify]
            assert cli.main(argv) == 0
            return capsys.readouterr().out

        for key, (a, b) in self.MOLLIFY_VALUES.items():
            assert report(key, a) != report(key, b), key

    def test_kappa_alone_sets_the_moment_order(self, small_coeffs, capsys):
        # kappa = 1/4 passes without an l; the report is the one that l = 4 allows
        argv = ["moments", "--blocks", "1024", "--coeffs", small_coeffs,
                "--mollify", "x=2097152,theta0=0.08,eta2=0.2,c0=2,kappa=0.25"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        params = mollifier.build_params(x=2097152.0, l=4.0, kappa=0.25, eta2=0.2, c0=2.0,
                                        theta0_override=0.08)
        htab = build_hecke_table(max(200, math.ceil(params.intervals[-1][1]) + 1))
        want = io.StringIO()
        cli._emit(cmd_moments([1024], load_coeffs(small_coeffs), params, htab), "csv", want)
        assert (out, err) == (want.getvalue(), "")

    @pytest.mark.parametrize("target, fault", [
        ("missing/r.csv", "is in a directory that does not exist"), ("", "is a directory")])
    @pytest.mark.parametrize("argv, key", [
        (["selftest"], "out"), (["coeffs", "--limit", "100"], "coeffs_out")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_path_is_checked_before_the_command_runs(self, tmp_path, monkeypatch, capsys,
                                                         target, fault, argv, key, source):
        monkeypatch.setattr(cli, "_SUITES", [("ran", lambda: pytest.fail("a suite ran"), 1)])
        monkeypatch.setattr(cli, "delta_halfintegral", lambda N: pytest.fail("a table was built"))
        path = str(tmp_path / target)
        if source == "flag":
            name = "--out"
            argv = ["--out", path, *argv] if key == "out" else [*argv, "--out", path]
        else:
            name = f"config key {key!r}"
            (tmp_path / "run.cfg").write_text(f"{key} = {path}\n")
            argv = ["--config", str(tmp_path / "run.cfg"), *argv]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and ".tmp" not in err
        assert err == f"error: {name} value {path!r} {fault}\n"

    def test_help_prints_the_defaults(self, capsys):
        for argv, shown in [(["waldspurger"], ["default 2000", "default 1e-8"]),
                            (["signchanges"], ["{all,nflat}", "default all", "required"]),
                            ([], ["{csv,jsonl}", "default csv"])]:
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert all(s in out for s in shown), (argv, out)

    def test_integer_list_is_exact(self, small_coeffs, capsys):
        # 2^53 + 1 has no float64; the table check must see the value given
        assert cli.main(["moments", "--blocks", "9007199254740993", "--coeffs", small_coeffs]) == 3
        assert "need coefficients to 72057594037927944" in capsys.readouterr().err

    def test_failed_command_leaves_no_report(self, tmp_path, small_coeffs):
        # blocks to 4096 need coefficients to 32768; the table holds 20000
        out = tmp_path / "report.csv"
        rc = cli.main(["--out", str(out), "moments", "--blocks", "4096", "--coeffs", small_coeffs])
        assert rc == 3
        assert not out.exists()

    def test_csv_report_quotes_a_cell_with_a_comma(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["coeffs", "--limit", "100", "--out", "a,b.hicf"]) == 0
        out = capsys.readouterr().out
        assert list(csv.reader(io.StringIO(out))) == [["written", "N"], ["a,b.hicf", "100"]]

    def test_failed_report_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        out.write_bytes(b"old,report\r\n1,2\n")

        def failing_emit(rows, fmt, fh):
            fh.write("Q,arcs,defect\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_emit", failing_emit)
        assert cli.main(["--out", str(out), "jutila", "--qgrid", "300"]) == 2
        assert out.read_bytes() == b"old,report\r\n1,2\n"
        assert list(tmp_path.glob("*.tmp")) == []


def _nflat_member(d):
    m = d // 8
    if 8 * m != d or m % 2 == 0:
        return False
    return all(m % (p * p) for p in range(2, int(m**0.5) + 1))


# Each long option with two values to give it, and each command's required
# options to give as flags beside it.
EVERY_OPTION = [
    ("jutila", "--format", "format", "csv", "jsonl"),
    ("jutila", "--out", "out", "a.csv", "b.csv"),
    ("coeffs", "--limit", "limit", "100", "200"),
    ("coeffs", "--out", "coeffs_out", "a.hicf", "b.hicf"),
    ("coeffs", "--out", "coeffs-out", "a.hicf", "b.hicf"),
    ("signchanges", "--limit", "limit", "100", "200"),
    ("signchanges", "--set", "set", "all", "nflat"),
    ("signchanges", "--coeffs", "coeffs", "a.hicf", "b.hicf"),
    ("waldspurger", "--dmax", "dmax", "100", "200"),
    ("waldspurger", "--tol", "tol", "1e-6", "1e-9"),
    ("moments", "--blocks", "blocks", "64", "64,128"),
    ("moments", "--coeffs", "coeffs", "a.hicf", "b.hicf"),
    ("moments", "--mollify", "mollify", "x=3e6,theta0=0.1", "x=4e6,c0=2,theta0=0.1"),
    ("shifted", "--h", "h", "1", "2"),
    ("shifted", "--delta", "delta", "3", "5"),
    ("shifted", "--v", "v", "1", "2"),
    ("shifted", "--xgrid", "xgrid", "64", "64,128"),
    ("shifted", "--coeffs", "coeffs", "a.hicf", "b.hicf"),
    ("jutila", "--qgrid", "qgrid", "300", "300,600"),
    ("jutila", "--eta", "eta", "0.5", "0.4"),
    ("jutila", "--delta", "delta", "1", "2"),
]
OTHER_REQUIRED = {
    "coeffs": {"--limit": "100", "--out": "t.hicf"},
    "signchanges": {"--limit": "100", "--coeffs": "t.hicf"},
    "waldspurger": {},
    "moments": {"--blocks": "64", "--coeffs": "t.hicf"},
    "shifted": {"--h": "1", "--xgrid": "64", "--coeffs": "t.hicf"},
    "jutila": {"--qgrid": "300"},
}



class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qgrid = 300,600\neta = 0.5  # comment\ndelta = 1\n")
        r = run_cli(["--config", str(cfg), "jutila"])
        assert r.returncode == 0, r.stderr
        assert len(r.stdout.strip().split("\n")) == 3

    def test_cli_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qgrid = 300,600\n")
        r = run_cli(["--config", str(cfg), "jutila", "--qgrid", "300"])
        assert len(r.stdout.strip().split("\n")) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qgrid = 300\nfrobnicate = 1\n")
        r = run_cli(["--config", str(cfg), "jutila"])
        assert r.returncode == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qgrid 300\n")
        r = run_cli(["--config", str(cfg), "jutila"])
        assert r.returncode == 2

    @pytest.mark.parametrize("argv, text, message", [
        (["signchanges", "--limit", "100", "--coeffs", "COEFFS"], "set = bogus",
         "config key 'set' value 'bogus' is not one of all, nflat"),
        (["jutila", "--qgrid", "300"], "format = xml",
         "config key 'format' value 'xml' is not one of csv, jsonl"),
        (["jutila", "--qgrid", "300"], "command = waldspurger", "unknown config key 'command'"),
        (["jutila", "--qgrid", "300"], "config = other.cfg", "unknown config key 'config'"),
        (["jutila"], "qgrid = 30x", "config key 'qgrid' entry '30x' is not an integer"),
        (["waldspurger"], "dmax = 7",
         "config key 'dmax' value 7 is below 8, the least discriminant 8m, so nothing is checked"),
        (["jutila"], "qgrid = ,", "config key 'qgrid' value ',' lists no integers"),
        (["moments", "--coeffs", "COEFFS"], "blocks = ,",
         "config key 'blocks' value ',' lists no integers"),
        (["jutila"], "qgrid = -5", "Q must be at least 1, got -5"),
    ], ids=["set-bogus", "format-xml", "command", "config", "qgrid-not-integer",
            "dmax-below-8", "qgrid-empty", "blocks-empty", "qgrid-negative"])
    def test_bad_value_names_its_key(self, tmp_path, small_coeffs, capsys, argv, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        argv = [small_coeffs if a == "COEFFS" else a for a in argv]
        assert cli.main(["--config", str(cfg), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, text, line, key", [
        (["signchanges", "--coeffs", "COEFFS"], "limit = 100\nlimit = 200", 2, "limit"),
        (["signchanges", "--limit", "100", "--coeffs", "COEFFS"],
         "# a comment\nlimit = 100\n\nlimit = 100", 4, "limit"),
        (["coeffs", "--limit", "100"], "coeffs_out = a.hicf\ncoeffs-out = b.hicf", 2,
         "coeffs-out"),
    ], ids=["limit", "limit-same-value-under-flag", "coeffs-out-two-spellings"])
    def test_key_set_twice_names_file_line_and_key(self, tmp_path, monkeypatch, small_coeffs,
                                                   capsys, argv, text, line, key):
        monkeypatch.setattr(cli, "_dispatch", lambda cmd, opts: pytest.fail("the command ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        argv = [small_coeffs if a == "COEFFS" else a for a in argv]
        assert cli.main(["--config", str(cfg), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:{line}: config key {key!r} is set twice\n")

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path), "jutila", "--qgrid", "300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_coeffs_weight_12_writes_no_table(self, tmp_path, source):
        table = tmp_path / "t.hicf"
        argv = ["coeffs", "--limit", "100", "--out", str(table)]
        if source == "flag":
            argv += ["--weight", "12"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("weight = 12\n")
            argv = ["--config", str(cfg), *argv]
        r = run_cli(argv)
        assert r.returncode == 2 and "weight" in r.stderr
        assert not table.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_coeffs_has_no_weight_option(self, tmp_path, source):
        # 13, the weight the builder writes, is refused too: the option is gone
        table = tmp_path / "t.hicf"
        argv = ["coeffs", "--limit", "100", "--out", str(table)]
        if source == "flag":
            argv += ["--weight", "13"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("weight = 13\n")
            argv = ["--config", str(cfg), *argv]
        r = run_cli(argv)
        assert (r.returncode, r.stdout) == (2, "") and "weight" in r.stderr
        assert not table.exists()

    @pytest.mark.parametrize("cmd, flag, key, a, b", EVERY_OPTION,
                             ids=[f"{row[0]}-{row[2]}" for row in EVERY_OPTION])
    def test_every_option_from_config_and_flag_wins(self, tmp_path, monkeypatch,
                                                     cmd, flag, key, a, b):
        seen = []
        monkeypatch.setattr(cli, "_dispatch", lambda cmd, opts: seen.append(opts) or ([], 0))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{key} = {a}\n")
        others = [t for f, v in OTHER_REQUIRED[cmd].items() if f != flag for t in (f, v)]

        def resolved(config, value):
            pair = [flag, value] if value is not None else []
            program, command = (pair, []) if key in ("format", "out") else ([], pair)
            argv = ["--config", "run.cfg"] if config else []
            assert cli.main([*argv, *program, cmd, *others, *command]) == 0
            return seen.pop()

        assert resolved(True, None) == resolved(False, a)
        assert resolved(True, b) == resolved(False, b)
        assert resolved(False, a) != resolved(False, b)

    def test_every_option_has_a_row(self):
        rows = {(cmd, key.replace("-", "_")) for cmd, _, key, _, _ in EVERY_OPTION}
        table = {(cmd, key) for cmd, (_, opts) in cli._COMMANDS.items() for key in opts}
        assert rows == table | {("jutila", key) for key in cli._GLOBAL}


class TestDeterminism:
    def test_reports_repeat_byte_identical(self, small_coeffs):
        args = ["moments", "--blocks", "512,1024,2048", "--coeffs", small_coeffs]
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout

    def test_shifted_repeats_byte_identical(self, small_coeffs):
        args = ["shifted", "--h", "1", "--delta", "3", "--v", "1",
                "--xgrid", "512,1024", "--coeffs", small_coeffs]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout


def _readme_commands():
    """Argument lists of the `halfint ...` lines in the README's Command line
    block, with continuation lines joined."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("halfint ")]


class TestReadmeCommands:
    def test_required_options_name_each_flag(self):
        # each bullet, `- `cmd`: ...` or `- `selftest` takes no options.`, names
        # exactly the flags of that subcommand
        section = README.read_text().split("Required options and defaults", 1)[1]
        bullets = {}
        for item in ("\n" + section.split("\n\n", 2)[1]).split("\n- ")[1:]:
            cmd = re.match(r"`(\w+)`", item).group(1)
            bullets[cmd] = set(re.findall(r"--[a-z][a-z0-9-]*", item))
        tables = {cmd: {opt.flag or "--" + key for key, opt in opts.items()}
                  for cmd, (_, opts) in cli._COMMANDS.items()}
        assert bullets == tables

    def test_coeffs_readers_fit_the_documented_table(self, tmp_path, monkeypatch, capsys):
        # The documented `coeffs` line and every documented --coeffs reader,
        # run as written in one directory; the sign-change rows must give
        # the counts at 2e6 that acceptance criterion 1 pins.
        cmds = _readme_commands()
        block = [c for c in cmds if c[0] == "coeffs" or "--coeffs" in c]
        assert [c[0] for c in block] == ["coeffs", "signchanges", "signchanges", "moments",
                                         "shifted"]
        monkeypatch.chdir(tmp_path)
        counts = {}
        for argv in block:
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            assert rc == 0, f"{shlex.join(argv)}: exit {rc}: {err}"
            if argv[0] == "signchanges":
                row = dict(zip(*[line.split(",") for line in out.splitlines()]))
                counts[row["index_set"]] = int(row["S"])
        assert counts == {"all_supported": 501_163, "nflat": 50_734}

    def test_waldspurger_and_jutila_as_written(self, capsys, pins):
        cmds = {c[0]: c for c in _readme_commands()}
        assert cli.main(cmds["waldspurger"]) == 0
        out, err = capsys.readouterr()
        header, *rows = out.splitlines()
        assert header == "d,alpha,lvalue,ratio"
        dmax = int(cmds["waldspurger"][cmds["waldspurger"].index("--dmax") + 1])
        assert [int(r.split(",")[0]) for r in rows] == [d for d in enumerate_nflat(dmax) if d >= 8]
        assert err.startswith("# rel_std_dev = ")
        assert float(err.split("=")[1]) < 1e-3

        assert cli.main(cmds["jutila"]) == 0
        out, _ = capsys.readouterr()
        header, *rows = out.splitlines()
        assert header == "Q,arcs,defect"
        defects = {Q: float(v) for Q, _, v in (r.split(",") for r in rows)}
        assert defects.keys() == pins["jutila_defects"].keys()
        for Q, want in pins["jutila_defects"].items():
            assert defects[Q] == pytest.approx(want, rel=1e-9)

