"""Command-line interface: argument validation, file output, exit codes.

Everything here drives ``fatcomp.cli.main`` in-process so exit codes and
output files can be asserted without shelling out. The expensive
verify-all path is exercised by the acceptance suite instead.
"""

import argparse
import json
import math
import warnings
from types import SimpleNamespace

import pytest

from fatcomp import checks, cli, hopf
from fatcomp.cli import main


def run_cli(argv):
    """Invoke the CLI, normalizing SystemExit from argparse to a code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


# ----------------------------------------------------------------------
# Test Class: usage errors (exit code 2, nothing written)
# ----------------------------------------------------------------------

class TestUsageErrors:

    @pytest.mark.parametrize(
        "argv",
        [
            ["blowup"],
            ["blowup", "--kb", "4.0"],
            ["blowup", "--sweep", "0:1:5"],
            ["blowup", "--sweep", "0:1:5", "--ka", "1.0", "--kb", "4.0"],
            ["blowup", "--kc", "1.0", "--sweep", "bad"],
            ["conjugate", "--v", "1,0", "--d", "2"],
            ["conjugate", "--v", "1,0,0", "--vnorm", "0.5"],
            ["conjugate", "--d", "0"],
            ["laplacian", "--d", "2", "--rgrid", "0.5:2.5"],
            ["no-such-command"],
            # options a command does not read
            ["blowup", "--kc", "1", "--seed", "3"],
            ["blowup", "--kc", "1", "--jobs", "2"],
            ["conjugate", "--seed", "3"],
            ["laplacian", "--d", "2", "--jobs", "2"],
            ["laplacian", "--d", "2", "--sweep", "0:1:3"],
            ["verify-all", "--tol", "1e-6"],
            ["verify-all", "--verify"],
            # exclusive options
            ["conjugate", "--vnorm", "0.5", "--sweep", "0:1:3"],
            ["laplacian", "--v", "1,0,0", "--vnorm", "0.5"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, tmp_path, capsys):
        code = run_cli(argv + ["--out", str(tmp_path / "x.csv")] if argv[0] != "no-such-command" else argv)
        assert code == 2, f"{argv} gave exit code {code}"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["blowup", "--ka", "nan", "--kb", "1"],
            ["blowup", "--ka", "inf", "--kb", "1"],
            ["blowup", "--ka=-3", "--kb=-inf"],
            ["blowup", "--kc", "nan"],
            ["blowup", "--kc", "inf"],
            ["blowup", "--kc", "1", "--tol", "0"],
            ["blowup", "--kc", "1", "--tol=-1"],
            ["conjugate", "--jobs", "0"],
            ["blowup", "--ka=-1", "--kb=-1", "--verify", "--tmax=-5"],
            ["verify-all", "--jobs", "0"],
        ],
    )
    def test_non_finite_or_nonpositive_input_is_a_domain_error(self, argv, tmp_path, capsys):
        code = run_cli(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == 2, f"{argv} gave exit code {code}"
        assert "domain error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["conjugate", "--v", "0,0,nan"], "v must be finite"),
            (["conjugate", "--vnorm", "inf"], "v must be finite"),
            (["laplacian", "--d", "2", "--rgrid=0.1:nan:3"], "r_grid must be finite"),
            (["laplacian", "--d", "2", "--v", "nan,0,0"], "v must be finite"),
            (["conjugate", "--d", "0"], "d must be an integer >= 1"),
            (["laplacian", "--d", "0"], "d must be an integer >= 1"),
            (["laplacian", "--d", "0", "--rgrid", "0.1:1:3"], "d must be an integer >= 1"),
        ],
    )
    def test_non_finite_hopf_input_is_a_domain_error(self, argv, name, tmp_path, capsys):
        code = run_cli(argv + ["--out", str(tmp_path / "x.csv")])
        assert code == 2, f"{argv} gave exit code {code}"
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_range_radius_is_a_domain_error(self, tmp_path, capsys):
        code = run_cli(
            ["laplacian", "--d", "2", "--rgrid", "0.5:5.0:4", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "domain error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Test Class: the options of each subcommand
# ----------------------------------------------------------------------

OPTIONS = {
    "blowup": {"--out", "--format", "--tol", "--verify", "--ka", "--kb", "--kc", "--sweep", "--tmax"},
    "conjugate": {"--out", "--format", "--tol", "--verify", "--jobs", "--d", "--v", "--vnorm", "--sweep"},
    "laplacian": {"--out", "--format", "--tol", "--verify", "--d", "--v", "--vnorm", "--rgrid"},
    "verify-all": {"--out", "--format", "--jobs", "--seed"},
}


class TestOptions:

    def test_each_command_takes_only_the_options_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")}
            for name, sp in sub.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 30

    def test_verify_all_echoes_its_seed_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS", [c for c in checks.CHECKS if c[0] == "model-blowup-times"])
        out = tmp_path / "v.csv"
        assert run_cli(["verify-all", "--seed", "7", "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert meta == {"tool": meta["tool"], "command": "verify-all", "config": "format=csv seed=7"}


# ----------------------------------------------------------------------
# Test Class: blowup tables
# ----------------------------------------------------------------------

class TestBlowup:

    def test_single_pair_row(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", "--ka", "-3", "--kb", "4", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta["command"] == "blowup"
        assert meta["tool"].startswith("fatcomp ")
        # blowup reads no seed: none is echoed
        assert set(meta) == {"tool", "command", "config"}
        assert "seed" not in meta["config"] and "jobs" not in meta["config"]
        assert header[:5] == ["index", "model", "kappa_a", "kappa_b", "kappa_c"]
        assert len(rows) == 1
        assert float(rows[0]["tbar"]) == pytest.approx(7.865647008775999, abs=1e-9)
        assert rows[0]["finite"] == "true"
        assert float(rows[0]["tol"]) == 1e-9

    def test_infinite_time_serializes_empty(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", "--ka", "-1", "--kb", "-4", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[0]["tbar"] == "inf" and rows[0]["finite"] == "false"

    def test_verified_sweep_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        # leading-dash values need the = form or argparse eats them
        code = run_cli(
            ["blowup", "--sweep=-2:2:3", "--kb", "4", "--verify",
             "--tol", "1e-6", "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header[-3:] == ["check_tbar", "check_err", "check_ok"]
        assert [r["check_ok"] for r in rows] == ["true"] * 3
        assert "verification passed" in capsys.readouterr().out

    def test_sweep_keeps_the_kc_row(self, tmp_path):
        # beside --sweep, the kc row was dropped without an error
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", "--sweep=-1:1:3", "--kb", "2", "--kc", "4", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r["model"] for r in rows] == ["two-frequency"] * 3 + ["single-frequency"]
        assert [r["index"] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[-1]["tbar"]) == pytest.approx(math.pi / 2.0)

    def test_verify_tolerance_is_relative_to_tbar(self, tmp_path, capsys):
        # tbar ~ 22.6: the 2x2 route's time is 8.5e-14 off, 3.8e-15 relative
        # (the det N sign scan was 1.08e-9 off, 4.8e-11 relative)
        argv = ["blowup", "--ka=-1.4809188885826128", "--kb", "2.510734369691354",
                "--verify", "--out", str(tmp_path / "b.csv")]
        assert run_cli(argv) == 0
        assert "verification passed" in capsys.readouterr().out
        assert run_cli(argv + ["--tol", "1e-16"]) == 1
        assert "verification FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, route", [(["--ka=-1", "--kb", "400"], "wedge_first_zero"), (["--kc", "100"], "first_blowup")]
    )
    def test_verify_tolerance_is_relative_below_tbar_one(self, argv, route, tmp_path, capsys, monkeypatch):
        # a check off by 2 tol tbar fails on a row with tbar < 1/2, which the
        # absolute tol max(1, tbar) let pass; one off by tol tbar / 2 passes
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", *argv, "--out", str(out)]) == 0
        tbar = float(read_csv(out)[2][0]["tbar"])
        assert tbar < 0.5
        for off, code in ((2e-9, 1), (0.5e-9, 0)):
            monkeypatch.setattr(cli, route, lambda *a, off=off, **k: SimpleNamespace(time=tbar * (1.0 + off)))
            assert run_cli(["blowup", *argv, "--verify", "--out", str(out)]) == code
            assert [r["check_ok"] for r in read_csv(out)[2]] == [str(code == 0).lower()]
        assert "verification FAILED on rows [0]" in capsys.readouterr().err

    def test_large_kappa_infinite_row_verifies(self, tmp_path, capsys):
        # the 2x2 minors of the step matrix cancelled here: a false FAILED
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", "--ka=-1", "--kb=-1e5", "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[0]["finite"] == "false" and rows[0]["check_ok"] == "true"

    def test_infinite_row_beyond_the_step_cap_verifies(self, tmp_path, capsys):
        # 2.8e6 steps to t = 1e6, above 2^20: the pass begins, since H2 has a
        # strictly dominant eigenvalue, and stops certified in its first block
        out = tmp_path / "b.csv"
        assert run_cli(["blowup", "--ka=-3.9", "--kb=1.71", "--tmax", "1e6", "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[0]["finite"] == "false" and rows[0]["check_ok"] == "true"
        # to t = 7e307 the step count overflows: unverifiable, as before the pass could begin
        assert run_cli(["blowup", "--ka=-3.9", "--kb=1.71", "--tmax", "7e307", "--verify", "--out", str(out)]) == 3

    def test_out_of_reach_row_is_unverifiable(self, tmp_path, capsys):
        # tbar = 3.1e150 is beyond the wedge route: undecided, not FAILED
        out = tmp_path / "b.csv"
        argv = ["blowup", "--ka=1e-300", "--kb=-1", "--verify", "--out", str(out)]
        assert run_cli(argv) == 3
        assert "undecided on rows [0]" in capsys.readouterr().err
        _, _, rows = read_csv(out)
        assert rows[0]["check_ok"] == "unverifiable"
        assert rows[0]["check_tbar"] == "" and rows[0]["check_err"] == ""
        # beside a failed row, the exit code is 1
        argv = ["blowup", "--sweep=1e-300:1:2", "--kb=-1", "--verify", "--tol", "1e-16",
                "--out", str(out)]
        assert run_cli(argv) == 1
        _, _, rows = read_csv(out)
        assert [r["check_ok"] for r in rows] == ["unverifiable", "false"]

    @pytest.mark.parametrize("ka,kb", [("1.4325205914417532e118", "-2.82884475485708e278"),
                                       ("3.7615057244563964e-230", "4.687033938596471e280")])
    def test_non_finite_step_or_balancing_is_undecided(self, tmp_path, ka, kb):
        # a NaN step read FAILED (exit 1), and an overflowing balancing ended
        # in a LinAlgError traceback; both warned in the balancing's product
        out = tmp_path / "b.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["blowup", f"--ka={ka}", f"--kb={kb}", "--verify", "--out", str(out)]) == 3
        assert read_csv(out)[2][0]["check_ok"] == "unverifiable"

    @pytest.mark.parametrize("ka,kb,tbar,upper", [
        # upper_bound was written as nan, with exit 0: kappa_b^2 overflowed to inf
        ("-1.301921080189521e-09", "-9.869978309892461e+276", "inf", "inf"),
        # "computation failed", exit 1: "no root in the proven bracket (nan, nan]"
        ("-1.0229834445816485e+166", "2.3912383905424197e+250", "4.0632021637008433e-125", "4.0632021637008433e-125"),
    ])
    def test_overflowing_kappa_b_square_gives_a_row(self, ka, kb, tbar, upper, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["blowup", f"--ka={ka}", f"--kb={kb}", "--out", str(out)]) == 0
        row = read_csv(out)[2][0]
        assert (row["tbar"], row["upper_bound"]) == (tbar, upper)
        assert "nan" not in out.read_text()
        # the 2x2 cross-check cannot reach these scales: undecided, exit 3
        assert run_cli(["blowup", f"--ka={ka}", f"--kb={kb}", "--verify", "--out", str(out)]) == 3
        assert read_csv(out)[2][0]["check_ok"] == "unverifiable"

    def test_underflowing_frequency_is_a_failed_computation(self, tmp_path, capsys):
        # it ended in a ZeroDivisionError traceback
        argv = ["blowup", "--ka", "1.7934847258413677e-236", "--kb=-2.1545907295567397e+115",
                "--out", str(tmp_path / "b.csv")]
        assert run_cli(argv) == 1
        assert "computation failed" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["blowup", "--sweep=-3:3:7", "--kb", "5", "--kc", "2.5"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli(
            ["blowup", "--kc", "4.0", "--format", "json", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "rows"}
        assert payload["rows"][0]["tbar"] == pytest.approx(math.pi / 2.0)
        assert payload["rows"][0]["upper_bound"] is None


# ----------------------------------------------------------------------
# Test Class: conjugate tables
# ----------------------------------------------------------------------

class TestConjugate:

    def test_overflowing_momentum_is_a_domain_error(self, tmp_path, capsys):
        # "overflow encountered in matmul" came first, and -W error ended the
        # call in a RuntimeWarning traceback, exit 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["conjugate", "--d", "1", "--vnorm", "1e200", "--out", str(tmp_path / "c.csv")]) == 2
        assert "|v|^4 overflows" in capsys.readouterr().err

    def test_zero_momentum_row(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["conjugate", "--d", "1", "--verify", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert "bound_kc" not in header, "d = 1 has no single-frequency bound"
        assert float(rows[0]["t_star"]) == pytest.approx(math.pi, abs=1e-6)
        assert float(rows[0]["margin_kab"]) >= -1e-9

    def test_dimension_two_reports_both_bounds(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(
            ["conjugate", "--d", "2", "--vnorm", "0.5", "--verify", "--out", str(out)]
        ) == 0
        _, header, rows = read_csv(out)
        assert "bound_kc" in header and "margin_kc" in header
        assert float(rows[0]["bound_kc"]) == pytest.approx(math.pi / math.sqrt(1.25))
        assert float(rows[0]["v_norm"]) == 0.5

    def test_large_dimension_verifies(self, tmp_path):
        # d = 16 ended in a bare ValueError from brentq (exit 1)
        out = tmp_path / "c.csv"
        assert run_cli(["conjugate", "--d", "16", "--v", "0.3,-0.7,1.1", "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert abs(float(rows[0]["t_star"]) - math.pi / math.sqrt(1.0 + 0.09 + 0.49 + 1.21)) < 1e-12

    def test_large_momentum_verifies(self, tmp_path):
        # R_cc ~ |v|^2 = 1e8: its motion-row rounding tripped an absolute
        # 1e-8 guard and ended in a bare ValueError
        out = tmp_path / "c.csv"
        assert run_cli(["conjugate", "--d", "2", "--vnorm", "1e4", "--verify", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert "worst_margin" not in header
        t_star = math.pi / math.sqrt(1.0 + 1e8)
        assert abs(float(rows[0]["t_star"]) - t_star) <= 3e-9 * t_star

    def test_sweep_rows_are_ordered(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(
            ["conjugate", "--d", "1", "--sweep", "0:0.6:3", "--out", str(out)]
        ) == 0
        _, _, rows = read_csv(out)
        assert [r["index"] for r in rows] == ["0", "1", "2"]
        assert [float(r["v_I"]) for r in rows] == [0.0, 0.3, 0.6]
        t = [float(r["t_star"]) for r in rows]
        assert t[0] > t[1] > t[2], f"t_star should fall with momentum: {t}"


# ----------------------------------------------------------------------
# Test Class: laplacian table
# ----------------------------------------------------------------------

class TestLaplacian:

    def test_margins_and_small_radius_column(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        code = run_cli(
            ["laplacian", "--d", "2", "--rgrid", "0.001:2.0:4", "--verify",
             "--tol", "1e-6", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4
        assert float(rows[0]["r_times_laplacian"]) == pytest.approx(16.0, abs=1e-3)
        assert all(float(r["margin"]) >= -1e-6 for r in rows)
        assert float(rows[0]["t_star"]) == pytest.approx(math.pi, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_default_tol_is_relative_to_the_model(self, d, tmp_path, capsys):
        # at r = 1e-3 the values are ~1e4 and the margin, 0 in exact
        # arithmetic, rounds to ~-8e-7: below an absolute -1e-9
        out = tmp_path / "l.csv"
        assert run_cli(["laplacian", "--d", str(d), "--rgrid", "0.001:2.0:8", "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0]["model_rhs"]) > 1e4

    def test_large_dimension_verifies(self, tmp_path, capsys):
        # the c block enters in closed form: d = 512 costs what d = 2 does
        out = tmp_path / "l.csv"
        assert run_cli(["laplacian", "--d", "512", "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 20 and float(rows[0]["t_star"]) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("vnorm", ["0.4", "3"])
    def test_default_grid_lies_inside_the_conjugate_time(self, vnorm, tmp_path, capsys):
        # t* = pi/sqrt(1 + |v|^2) is below 3 for |v| above 0.31
        out = tmp_path / "l.csv"
        assert run_cli(["laplacian", "--d", "2", "--vnorm", vnorm, "--verify", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        t_star = float(rows[0]["t_star"])
        assert len(rows) == 20
        assert float(rows[0]["r"]) == pytest.approx(t_star / 30.0)
        assert float(rows[-1]["r"]) == pytest.approx(0.95 * t_star)

    @pytest.mark.parametrize("grid", [[], ["--rgrid", "0.1:2.5:12"]], ids=["default", "rgrid"])
    def test_conjugate_time_is_solved_once(self, grid, tmp_path, monkeypatch):
        # one conjugate_time call, whose result the one sublaplacian_along
        # call takes, with and without --rgrid
        calls, solve, evaluate = [], hopf.conjugate_time, hopf.sublaplacian_along

        def counted(*args):
            calls.append(solve(*args))
            return calls[-1]

        def evaluated(conj, r_grid):
            calls.append(conj)
            return evaluate(conj, r_grid)

        monkeypatch.setattr(hopf, "conjugate_time", counted)
        monkeypatch.setattr(cli, "conjugate_time", counted)
        monkeypatch.setattr(cli, "sublaplacian_along", evaluated)
        assert run_cli(["laplacian", "--d", "2", *grid, "--verify", "--out", str(tmp_path / "l.csv")]) == 0
        assert len(calls) == 2 and calls[1] is calls[0]

    def test_wrong_curvature_still_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        assert run_cli(["laplacian", "--d", "2", "--verify", "--out", str(tmp_path / "l.csv")]) == 1
        assert "margin verification FAILED" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Test Class: output locations
# ----------------------------------------------------------------------

class TestOutputPaths:

    def test_default_path_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FATCOMP_OUT_DIR", str(tmp_path))
        assert run_cli(["blowup", "--kc", "1.0"]) == 0
        assert (tmp_path / "blowup.csv").exists()

    def test_explicit_out_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "b.csv"
        assert run_cli(["blowup", "--kc", "1.0", "--out", str(out)]) == 0
        assert out.exists()


# ----------------------------------------------------------------------
# Test Class: verify-all
# ----------------------------------------------------------------------

class TestVerifyAll:

    def test_a_raising_check_is_a_failed_row(self, tmp_path, monkeypatch, capsys):
        # under the curvature fault qhf-conjugate-d1 raises; the others still report
        names = ("model-blowup-times", "qhf-conjugate-d1", "ricci-traces")
        monkeypatch.setattr(checks, "CHECKS", [c for c in checks.CHECKS if c[0] in names])
        monkeypatch.setenv("FATCOMP_FAULT", "curvature-sign")
        out = tmp_path / "v.csv"
        assert run_cli(["verify-all", "--seed", "7", "--out", str(out)]) == 1
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        assert [r.split(",")[1:3] for r in rows] == [
            ["model-blowup-times", "true"],
            ["qhf-conjugate-d1", "false"],
            ["ricci-traces", "false"],
        ]
        assert '"raised RuntimeError: no conjugate point found' in rows[1]
