"""Command-line interface: every command end to end, exit codes, config-file
merging, seeding, and reproducibility."""

import ast
import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmarket import (
    ModelParams, NonMarkovParams, __version__, acf_model, cli, delta_coefficient, lambda_coefficient, market,
)
from qbmarket.cli import main
from qbmarket.errors import NumericalError

from conftest import assert_acf_matches, reference_acf


def run(args):
    return main([str(a) for a in args])


def assert_acf_table_matches(path, prices, max_lag):
    """The ACF table `analyze` wrote for a session-labelled prices file,
    against reference_acf on its 1-minute intraday returns, within the
    stated tolerance."""
    header, rows = read_csv(path)
    returns = market.log_returns(market.load_prices(prices), 1, policy="intraday-only")
    ref = reference_acf(returns.times, returns.session_idx, returns.values, max_lag, "intraday-only")
    column = {name: rows[:, header.index(name)] for name in header}
    table = SimpleNamespace(lags=column["lag"], values=column["acf"], counts=column["count"],
                            stderr=column["stderr"], omitted_lags=ref.omitted_lags)
    assert_acf_matches(table, ref)


def read_csv(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(c) for c in line.split(",")])
    return header, np.asarray(rows)


class TestEval:
    def test_classical_line_through_origin(self, tmp_path):
        out = tmp_path / "cls.csv"
        code = run(["eval", "--formula", "classical", "--M", 10, "--gamma", 1e3, "--kT", 0.1,
                    "--hbar", 0.01, "--start", 0, "--end", 10, "--points", 11, "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "sigma_x2"]
        assert rows[0, 1] == 0.0
        assert rows[-1, 1] == pytest.approx(1e-4, rel=1e-12)

    def test_variance_reference_point(self, tmp_path):
        out = tmp_path / "var.csv"
        code = run(["eval", "--formula", "variance", "--M", 10, "--gamma", 1e3, "--kT", 0.1,
                    "--hbar", 0.01, "--sx2-0", 1e-7, "--start", 0, "--end", 10,
                    "--points", 11, "--out", out])
        assert code == 0
        _, rows = read_csv(out)
        assert rows[-1, 1] == pytest.approx(1.007175e-4, rel=1e-10)

    def test_acf_maxima_at_published_parameters(self, tmp_path):
        out = tmp_path / "acf.csv"
        code = run(["eval", "--formula", "acf", "--xi", 5.48e-4, "--eta", 5.56e-3,
                    "--omega", 8.33e-3 * math.pi, "--start", 0, "--end", 480,
                    "--points", 97, "--out", out])
        assert code == 0
        _, rows = read_csv(out)
        tau, vals = rows[:, 0], rows[:, 1]
        maxima = [tau[i] for i in range(1, len(tau) - 1) if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        assert abs(maxima[0] - 120) <= 5 and abs(maxima[1] - 240) <= 5

    def test_unknown_formula_is_usage_error(self, tmp_path):
        assert run(["eval", "--formula", "bogus", "--start", 0, "--end", 1,
                    "--out", tmp_path / "x.csv"]) == 1

    def test_invalid_range_is_usage_error(self, tmp_path, capsys):
        assert run(["eval", "--formula", "classical", "--start", 5, "--end", 1,
                    "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err == "usage error: --start must be below --end\n"

    def test_negative_range_start_names_the_flag(self, tmp_path, capsys):
        assert run(["eval", "--formula", "classical", "--start", -1, "--end", 1,
                    "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err == "usage error: --start must be nonnegative\n"

    def test_too_few_points_names_the_flag(self, tmp_path, capsys):
        assert run(["eval", "--formula", "classical", "--start", 0, "--end", 1, "--points", 1,
                    "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err == "usage error: --points must be at least 2\n"
        assert list(tmp_path.iterdir()) == []

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "v.csv"
        run(["eval", "--formula", "classical", "--start", 0, "--end", 1, "--out", out])
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert manifest["config"]["formula"] == "classical"

    def test_non_finite_parameter_is_usage_error(self, tmp_path):
        assert run(["eval", "--formula", "classical", "--kT", "nan", "--start", 0, "--end", 1,
                    "--out", tmp_path / "nan.csv"]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sx2", [-1, 0])
    def test_nonpositive_short_time_variance_is_usage_error(self, tmp_path, capsys, sx2):
        # a negative start variance used to exit 0 with negative variances in every row
        assert run(["eval", "--formula", "variance-short", "--sx2-0", sx2, "--start", 0, "--end", 1,
                    "--points", 3, "--out", tmp_path / "v.csv"]) == 1
        assert capsys.readouterr().err == "usage error: sx2_0 must be positive\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("formula", ["delta", "lambda"])
    def test_coefficient_columns_are_the_library_values(self, tmp_path, formula):
        params = ModelParams(M=2.0, gamma=0.5, kT=0.3, hbar=0.7)
        nm = NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=8.33e-3 * math.pi)
        out = tmp_path / "c.csv"
        assert run(["eval", "--formula", formula, "--M", params.M, "--gamma", params.gamma, "--kT", params.kT,
                    "--hbar", params.hbar, "--xi", nm.xi, "--eta", nm.eta, "--omega", nm.omega,
                    "--start", 0, "--end", 400, "--points", 41, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t", formula]
        grid = np.linspace(0.0, 400.0, 41)
        coefficient = delta_coefficient if formula == "delta" else lambda_coefficient
        np.testing.assert_array_equal(rows[:, 0], grid)
        np.testing.assert_array_equal(rows[:, 1], coefficient(params, nm, grid))

    def test_leftover_temp_directory_does_not_block_write(self, tmp_path):
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.tmp").mkdir()
        assert run(["eval", "--formula", "classical", "--start", 0, "--end", 1, "--out", out]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json", "out.csv.tmp"]

    @pytest.mark.parametrize("flags", [
        # the thermal term passes the largest float by t = 10
        ["--formula", "variance", "--kT", 1e308, "--sx2-0", 1, "--end", 10],
        # 2 M gamma overflows to inf, so J is inf, and nan at omega = 0
        ["--formula", "spectral-density", "--kind", "ohmic", "--M", 1e300, "--gamma", 1e10, "--end", 1],
        # hbar^2 overflows to inf
        ["--formula", "variance-short", "--hbar", 1e200, "--sx2-0", 1, "--end", 1],
    ], ids=["variance", "spectral-density", "variance-short"])
    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys, flags):
        assert run(["eval", *flags, "--start", 0, "--points", 3, "--out", tmp_path / "e.csv"]) == 3
        assert "refusing to write non-finite values in column" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_arithmetic_error_is_numerical_failure(self, tmp_path, capsys):
        # the default momentum spread hbar^2 / (4 sx2_0) overflows; the message names it
        assert run(["eval", "--formula", "variance", "--hbar", 1e200, "--sx2-0", 1, "--start", 0, "--end", 1,
                    "--points", 3, "--out", tmp_path / "e.csv"]) == 3
        assert "numerical failure: minimal-uncertainty sp2_0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, named", [
        # the default momentum spread hbar^2 / (4 sx2_0); with --p2 the run
        # does not depend on hbar (TestSimulate::test_explicit_p2_rows_do_not_depend_on_hbar)
        (["simulate", "--mode", "moments", "--x2", 1, "--t-end", 1, "--out-prefix", "m"], "minimal-uncertainty sp2_0"),
        (["simulate", "--mode", "pde", "--x2", 1, "--nx", 32, "--np", 32, "--t-end", 0.01, "--out-prefix", "p"],
         "minimal-uncertainty sp2_0"),
    ], ids=["moments", "pde"])
    def test_overflowing_hbar_squared_is_named(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--hbar", 1e200, "--points", 3]) == 3
        assert f"numerical failure: {named}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eval", "--formula", "variance-short", "--hbar", "1e200", "--sx2-0", "1", "--sp2-0", "1",
         "--start", "0", "--end", "1", "--points", "3", "--out", "e.csv"],
        ["eval", "--formula", "variance", "--kT", "1e308", "--gamma", "10", "--sx2-0", "1",
         "--start", "0", "--end", "100", "--points", "3", "--out", "e.csv"],
        ["eval", "--formula", "variance", "--hbar", "1e200", "--sx2-0", "1",
         "--start", "0", "--end", "1", "--points", "3", "--out", "e.csv"],
        ["simulate", "--mode", "moments", "--x2", "1", "--hbar", "1e200", "--t-end", "1", "--points", "3",
         "--out-prefix", "m"],
    ], ids=["variance-short", "variance-kT", "variance-hbar", "moments-hbar"])
    def test_overflow_prints_one_line(self, tmp_path, argv):
        # numpy's RuntimeWarnings would come first, each with its source line
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qbmarket.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gamma", [1e-160, 1e-300])
    def test_tiny_gamma_variance_is_the_free_limit(self, tmp_path, gamma):
        # 1/gamma^2 overflowed against a bracket that underflowed to 0 (1e-160),
        # or gamma^2 itself underflowed to 0 (1e-300)
        out = tmp_path / "v.csv"
        assert run(["eval", "--formula", "variance", "--M", 1, "--gamma", gamma, "--kT", 1, "--hbar", 1,
                    "--sx2-0", 1, "--start", 0, "--end", 1, "--points", 3, "--out", out]) == 0
        _, rows = read_csv(out)
        t = rows[:, 0]
        sp2_0 = 0.25  # minimal uncertainty: hbar^2 / (4 sx2_0)
        limit = 1.0 + t**2 * sp2_0 + 4.0 * gamma * t**3 / 3.0
        np.testing.assert_allclose(rows[:, 1], limit, rtol=1e-12, atol=0)

    def test_underflowing_cutoff_spectral_density_is_written(self, tmp_path):
        # the cutoff squared underflowed to 0, so J was 0/0 at omega = 0
        out = tmp_path / "j.csv"
        assert run(["eval", "--formula", "spectral-density", "--kind", "ohmic-lorentz", "--cutoff", 1e-320,
                    "--start", 0, "--end", 1, "--points", 3, "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows[0].tolist() == [0.0, 0.0]
        assert np.all(rows[:, 1] == 0.0)

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        def chunks():
            yield "partial\n"
            raise RuntimeError("formatting failed")

        files = {tmp_path / "a.csv": ["complete\n"], tmp_path / "x.csv": chunks()}
        with pytest.raises(RuntimeError):
            cli._publish("eval", {}, "0", files, tmp_path / "x.csv")
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_moments_kurtosis_column_decays_from_197(self, tmp_path):
        prefix = tmp_path / "mom"
        code = run(["simulate", "--mode", "moments", "--M", 20, "--gamma", 1, "--kT", 1,
                    "--hbar", 1, "--x2", 0.5, "--p2", 0.5, "--x4", 50.0,
                    "--t-end", 10, "--points", 21, "--out-prefix", prefix])
        assert code == 0
        header, rows = read_csv(tmp_path / "mom.csv")
        kcol = header.index("kurtosis_x")
        assert rows[0, kcol] == pytest.approx(197.0, rel=1e-12)
        assert np.all(np.diff(rows[:, kcol]) < 0)

    def test_sde_requires_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("QBM_SEED", raising=False)
        code = run(["simulate", "--mode", "sde", "--x2", 0.5, "--t-end", 1,
                    "--dt", 1e-3, "--out-prefix", tmp_path / "s"])
        assert code == 1

    def test_sde_seed_reproducibility(self, tmp_path):
        args = ["simulate", "--mode", "sde", "--M", 20, "--gamma", 1, "--kT", 1, "--hbar", 1,
                "--x2", 0.5, "--p2", 0.5, "--t-end", 1, "--points", 5, "--dt", 2e-3,
                "--n-paths", 2000, "--seed", 7]
        assert run(args + ["--out-prefix", tmp_path / "a"]) == 0
        assert run(args + ["--out-prefix", tmp_path / "b"]) == 0
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a == b

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBM_SEED", "7")
        args = ["simulate", "--mode", "sde", "--M", 20, "--gamma", 1, "--kT", 1, "--hbar", 1,
                "--x2", 0.5, "--p2", 0.5, "--t-end", 1, "--points", 5, "--dt", 2e-3,
                "--n-paths", 2000]
        assert run(args + ["--out-prefix", tmp_path / "env"]) == 0
        monkeypatch.delenv("QBM_SEED")
        assert run(args + ["--seed", 7, "--out-prefix", tmp_path / "flag"]) == 0
        assert (tmp_path / "env.csv").read_text() == (tmp_path / "flag.csv").read_text()

    def test_sde_bytes_are_pinned(self, tmp_path):
        # three path blocks (4096 + 4096 + 808) and five exact transitions, so
        # any change to any bit of the ensemble fails. The header carries the
        # config digest, which moves with the flag set.
        assert run(["simulate", "--mode", "sde", "--M", 20, "--gamma", 1, "--kT", 1, "--hbar", 1,
                    "--x2", 0.5, "--p2", 0.5, "--xp", 0.2, "--t-end", 0.5, "--points", 6,
                    "--n-paths", 9000, "--seed", 8, "--out-prefix", tmp_path / "sde"]) == 0
        digest = hashlib.sha256((tmp_path / "sde.csv").read_bytes()).hexdigest()
        assert digest == "304bb660ca120687e538896ff29d7c7274aaabec6ca7b6a26992ac3882d4b66f"

    def test_sde_ignores_the_time_step(self, tmp_path):
        # the sampler is exact in time: --dt is accepted, has no effect and stays out of the manifest
        common = ["simulate", "--mode", "sde", "--M", 20, "--gamma", 1, "--kT", 1, "--hbar", 1, "--x2", 0.5,
                  "--p2", 0.5, "--t-end", 1, "--points", 5, "--n-paths", 5000, "--seed", 3]
        outputs = []
        for name, extra in [("a", ["--dt", 2e-3]), ("b", ["--dt", 1e-2]), ("c", [])]:
            assert run([*common, *extra, "--out-prefix", tmp_path / "run"]) == 0
            outputs.append([(tmp_path / f"run.{ext}").read_bytes() for ext in ("csv", "manifest.json")])
        assert outputs[0] == outputs[1] == outputs[2]
        assert "dt" not in json.loads(outputs[2][1])["config"]

    def test_moments_ignore_the_time_step(self, tmp_path):
        # the moment engine is exact in time too: --dt used to change the header digest and the manifest
        common = ["simulate", "--mode", "moments", "--x2", 1, "--t-end", 1, "--points", 3]
        outputs = []
        for extra in (["--dt", 5], []):
            assert run([*common, *extra, "--out-prefix", tmp_path / "run"]) == 0
            outputs.append([(tmp_path / f"run.{ext}").read_bytes() for ext in ("csv", "manifest.json")])
        assert outputs[0] == outputs[1]

    def test_sde_refuses_the_harmonic_well(self, tmp_path, capsys):
        # the well's force was dropped: the run wrote the free particle's rows and exited 0
        assert run(["simulate", "--mode", "sde", "--x2", 1, "--p2", 1, "--t-end", 1, "--points", 3,
                    "--n-paths", 1000, "--seed", 1, "--potential", "harmonic", "--omega0", 3,
                    "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == "usage error: --potential harmonic is not modelled in sde mode\n"
        assert list(tmp_path.iterdir()) == []

    def test_sde_refuses_the_non_markov_kernel(self, tmp_path, capsys):
        assert run(["simulate", "--mode", "sde", "--kernel", "non-markov", "--xi", 1e-3, "--eta", 1, "--omega", 1,
                    "--x2", 1, "--p2", 1, "--t-end", 1, "--points", 3, "--n-paths", 1000, "--seed", 1,
                    "--out-prefix", tmp_path / "s"]) == 1
        assert "usage error: sde mode supports only the markov kernel" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", [9, 4], ids=["eighth-turns", "quarter-turns"])
    def test_moments_honour_the_harmonic_well(self, tmp_path, points):
        # the moment engine dropped the well and wrote the free particle's rows. In the well its rows
        # now match the phase-space engine's, whose remaps keep the moments through order three
        # exactly. Stated tolerance, relative to each moment's largest value: 1e-11 for the second
        # moments and 1e-4 for m40 and m04 (measured 7e-14 and 3e-6 at 9 points)
        common = ["--M", 1, "--gamma", 0.25, "--kT", 1, "--x2", 1.5, "--p2", 0.7, "--t-end", math.pi,
                  "--points", points]
        well = ["--potential", "harmonic", "--omega0", 1.5]
        assert run(["simulate", "--mode", "moments", *common, "--out-prefix", tmp_path / "free"]) == 0
        assert run(["simulate", "--mode", "moments", *common, *well, "--out-prefix", tmp_path / "m"]) == 0
        assert run(["simulate", "--mode", "pde", *common, *well, "--nx", 192, "--np", 192, "--x-width", 10,
                    "--p-width", 14, "--out-prefix", tmp_path / "p"]) == 0
        fh, frows = read_csv(tmp_path / "free.csv")
        mh, mrows = read_csv(tmp_path / "m.csv")
        ph, prows = read_csv(tmp_path / "p.csv")
        for key, tol in [("m20", 1e-11), ("m11", 1e-11), ("m02", 1e-11), ("m40", 1e-4), ("m04", 1e-4)]:
            moments, pde, free = mrows[:, mh.index(key)], prows[:, ph.index(key)], frows[:, fh.index(key)]
            scale = np.abs(moments).max()
            assert np.abs(moments - pde).max() < tol * scale, key
            assert np.abs(moments - free).max() > 0.1 * scale, key

    PDE_HAS_NO_STEP = "--dt is an sde flag: pde maps each output interval exactly, with no time step"

    @pytest.mark.parametrize("dt", [0, -1])
    @pytest.mark.parametrize("flags, named", [
        (["--mode", "sde", "--n-paths", 1000, "--seed", 1], "--dt must be positive"),
        (["--mode", "pde", "--p2", 1, "--nx", 16, "--np", 16], PDE_HAS_NO_STEP),
        (["--mode", "moments"], "--dt must be positive"),
    ], ids=["sde", "pde", "moments"])
    def test_nonpositive_step_names_the_flag(self, tmp_path, capsys, flags, named, dt):
        # pde at --dt 0 divided by zero (exit 3) and at --dt -1 said "dt must divide t_end evenly";
        # it has no time step now, so any --dt is refused. moments took any --dt without a word
        assert run(["simulate", *flags, "--x2", 1, "--t-end", 0.1, f"--dt={dt}", "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == f"usage error: {named}\n"
        assert list(tmp_path.iterdir()) == []

    def test_pde_refuses_a_time_step(self, tmp_path, capsys):
        # the phase-space engine used to take --dt as its step; its maps are exact per interval
        assert run(["simulate", "--mode", "pde", "--x2", 1, "--p2", 1, "--nx", 16, "--np", 16, "--t-end", 0.03,
                    "--dt", 0.03 / 7, "--out-prefix", tmp_path / "p"]) == 1
        assert capsys.readouterr().err == f"usage error: {self.PDE_HAS_NO_STEP}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--nx", "--np"])
    def test_small_grid_names_the_flag(self, tmp_path, capsys, flag):
        # used to say "grid must have at least 16 cells per axis"
        assert run(["simulate", "--mode", "pde", "--x2", 1, "--p2", 1, "--t-end", 0.1, flag, 8,
                    "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == f"usage error: {flag} must be at least 16\n"
        assert list(tmp_path.iterdir()) == []

    def test_small_ensemble_names_the_flag(self, tmp_path, capsys):
        assert run(["simulate", "--mode", "sde", "--x2", 1, "--t-end", 0.1, "--dt", 1e-3, "--n-paths", 100,
                    "--seed", 1, "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == "usage error: --n-paths must be at least 1000\n"
        assert list(tmp_path.iterdir()) == []

    def test_sde_indefinite_initial_covariance_is_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--mode", "sde", "--x2", 1, "--p2", 1, "--xp", 5, "--t-end", 0.1,
                    "--dt", 1e-3, "--n-paths", 9000, "--seed", 1, "--out-prefix", tmp_path / "s"]) == 1
        assert "not positive definite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode, flags", [("moments", []), ("sde", ["--n-paths", 1000, "--seed", 1]),
                                             ("pde", ["--nx", 16, "--np", 16])], ids=["moments", "sde", "pde"])
    def test_singular_initial_covariance_is_one_usage_error(self, tmp_path, capsys, mode, flags):
        # (xp/2)^2 = x2 p2: moments mode used to exit 0 from this singular
        # Gaussian, and sde and pde each refused it in their own words
        assert run(["simulate", "--mode", mode, "--x2", 1, "--p2", 1, "--xp", 2, "--t-end", 0.1, *flags,
                    "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --x2, --p2 and --xp give initial second moments that are not positive definite "
            "(need --x2 > 0 and (--xp/2)^2 < --x2 * --p2)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_pde_matches_moments_mode(self, tmp_path):
        common = ["--M", 1, "--gamma", 0.25, "--kT", 1, "--hbar", 1,
                  "--x2", 1.0, "--p2", 1.0, "--t-end", 0.5, "--points", 3]
        assert run(["simulate", "--mode", "moments", *common, "--out-prefix", tmp_path / "m"]) == 0
        assert run(["simulate", "--mode", "pde", *common, "--nx", 128, "--np", 128,
                    "--x-width", 10.0, "--p-width", 7.0, "--out-prefix", tmp_path / "p"]) == 0
        mh, mrows = read_csv(tmp_path / "m.csv")
        ph, prows = read_csv(tmp_path / "p.csv")
        m20_ode = mrows[-1, mh.index("m20")]
        m20_pde = prows[-1, ph.index("m20")]
        assert m20_pde == pytest.approx(m20_ode, rel=1e-3)
        mass = prows[:, ph.index("mass")]
        assert np.max(np.abs(mass - 1.0)) < 1e-6

    def test_unstable_pde_step_is_numerical_failure(self, tmp_path, capsys):
        # strong colored noise makes Sigma indefinite: on this 128^2 grid the
        # smoothing over the last eighth of [0, 1] would grow the highest grid
        # modes 17.7-fold
        code = run(["simulate", "--mode", "pde", "--kernel", "non-markov", "--xi", 8, "--eta", 2, "--omega", 1,
                    "--M", 1, "--gamma", 1, "--kT", 1, "--x2", 1.0, "--p2", 1.0, "--t-end", 1, "--points", 9,
                    "--nx", 128, "--np", 128, "--x-width", 16, "--p-width", 32, "--out-prefix", tmp_path / "bad"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: smoothing over [0.875, 1] grows the highest grid modes by 17.7, "
                              "above the growth bound 10"), err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--mode", "moments", "--x2", 1, "--t-end", 1, "--gamma", "nan",
                    "--out-prefix", tmp_path / "m"]) == 1
        assert "usage error: --gamma must be finite\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_tolerance_keys_are_usage_errors(self, tmp_path, capsys):
        # moments are propagated exactly: no run has an integrator tolerance to set
        common = ["simulate", "--mode", "moments", "--x2", 1, "--t-end", 1, "--points", 3,
                  "--out-prefix", tmp_path / "m"]
        assert run([*common, "--rtol", "1e-9"]) == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --rtol 1e-9\n"
        (tmp_path / "run.cfg").write_text("atol = 1e-13\n")
        assert run([*common, "--config", tmp_path / "run.cfg"]) == 1
        assert capsys.readouterr().err == "usage error: config key 'atol' is not a flag of this command\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("points", [1, 0, -3])
    @pytest.mark.parametrize("flags", [
        ["--mode", "moments"],
        ["--mode", "sde", "--dt", 0.01, "--n-paths", 1000, "--seed", 1],
        ["--mode", "pde", "--nx", 16, "--np", 16],
    ], ids=["moments", "sde", "pde"])
    def test_fewer_than_two_points_is_usage_error(self, tmp_path, capsys, flags, points):
        # sde and pde ran the whole simulation and wrote a CSV without rows at 0 points
        assert run(["simulate", *flags, "--x2", 1, "--p2", 1, "--t-end", 0.1, "--points", points,
                    "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == "usage error: --points must be at least 2\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t_end", [0, -1])
    def test_nonpositive_end_time_names_the_flag(self, tmp_path, capsys, t_end):
        assert run(["simulate", "--mode", "moments", "--x2", 1, f"--t-end={t_end}",
                    "--out-prefix", tmp_path / "s"]) == 1
        assert capsys.readouterr().err == "usage error: --t-end must be positive\n"

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--mode", "moments", "--x2", "1", "--hbar", "1e-200", "--t-end", "1", "--out-prefix", "m"],
         "minimal-uncertainty sp2_0 = hbar^2/(4 sx2_0) underflows to 0"),
        (["simulate", "--mode", "pde", "--x2", "1", "--hbar", "1e-200", "--nx", "32", "--np", "32", "--t-end", "0.01",
          "--out-prefix", "p"], "minimal-uncertainty sp2_0 = hbar^2/(4 sx2_0) underflows to 0"),
        *[(["eval", "--formula", formula, "--hbar", hbar, "--xi", "1", "--eta", "1", "--omega", "1",
            "--start", "0", "--end", "1", "--out", "e.csv"], f"non-finite values in column '{formula}'")
          for formula in ("delta", "lambda") for hbar in ("1e-160", "1e-200")],
    ], ids=["default-p2", "pde", "delta", "delta-underflow", "lambda", "lambda-underflow"])
    def test_tiny_hbar_is_named(self, tmp_path, argv, named):
        # hbar^2 underflows to 0 in the default momentum spread, and 1/hbar^2
        # overflows (or hbar^2 underflows to 0) in Delta and Lambda. Each run
        # gets its own process, so its warnings would show on stderr.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qbmarket.cli", *argv, "--points", "3"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure: ") and named in proc.stderr, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, hbar", [
        pytest.param(flags, hbar, id=engine + extreme)
        for engine, flags in {
            "moments": ["--mode", "moments", "--t-end", 1],
            "moments-non-markov": ["--mode", "moments", "--kernel", "non-markov", "--xi", 1, "--eta", 1, "--omega", 1,
                                   "--t-end", 1],
            "pde": ["--mode", "pde", "--nx", 32, "--np", 32, "--t-end", 0.01],
            "pde-non-markov": ["--mode", "pde", "--kernel", "non-markov", "--xi", 1, "--eta", 1, "--omega", 1,
                               "--nx", 32, "--np", 32, "--t-end", 0.01],
        }.items()
        for extreme, hbar in {"": 1e-160, "-underflow": 1e-200, "-overflow": 1e200}.items()
    ])
    def test_explicit_p2_rows_do_not_depend_on_hbar(self, tmp_path, flags, hbar):
        # the engines take hbar^2 Delta and hbar^2 Lambda, which do not contain
        # hbar, so with --p2 given hbar reaches only the header's config digest.
        # 1e-160 and 1e-200 made 1/hbar^2 inf and hbar^2 0, 1e200 hbar^2 inf.
        rows = {}
        for h in (1, 0.37, hbar):
            prefix = tmp_path / f"h{h}"
            assert run(["simulate", *flags, "--x2", 1, "--p2", 1, "--hbar", h, "--points", 3,
                        "--out-prefix", prefix]) == 0
            header, *rows[h] = Path(f"{prefix}.csv").read_text().splitlines()
            assert header.startswith("# qbmarket")
        assert all(r == rows[1] for r in rows.values())

    @pytest.mark.parametrize("flags", [
        ["--mode", "moments"],
        ["--mode", "moments", "--kernel", "non-markov", "--xi", 1, "--eta", 1, "--omega", 1],
        ["--mode", "pde", "--nx", 32, "--np", 32],
        ["--mode", "pde", "--kernel", "non-markov", "--xi", 1, "--eta", 1, "--omega", 1, "--nx", 32, "--np", 32],
        ["--mode", "sde", "--dt", 1e-3, "--n-paths", 1000, "--seed", 1],
    ], ids=["moments", "moments-non-markov", "pde", "pde-non-markov", "sde"])
    def test_overflowing_diffusion_is_named(self, tmp_path, capsys, flags):
        # 2 M gamma kT overflows to inf
        assert run(["simulate", *flags, "--M", 10, "--kT", 1e308, "--x2", 1, "--p2", 1, "--t-end", 0.01,
                    "--points", 3, "--out-prefix", tmp_path / "s"]) == 3
        assert "numerical failure: diffusion coefficient D is inf at t = 0\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pde_mass_leak_is_numerical_failure(self, tmp_path):
        code = run(["simulate", "--mode", "pde", "--gamma", 0.01, "--kT", 0, "--x2", 1, "--p2", 1,
                    "--x-width", 8, "--p-width", 8, "--nx", 32, "--np", 32, "--t-end", 10,
                    "--points", 3, "--out-prefix", tmp_path / "leak"])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_pde_compression_on_a_coarse_grid_keeps_mass_and_moments(self, tmp_path):
        # each interval compresses p by e^0.1 and the density is two cells wide in p: sampling
        # the compressed spline point by point leaked 1.07e-3 of the mass by t = 0.4 (exit 3).
        # Stated tolerance: the second moments within 1e-6 of moments mode, the mass within 1e-9;
        # measured 1.5e-9 and 2.1e-11
        common = ["--gamma", 1, "--x2", 1, "--p2", 1, "--t-end", 0.5, "--points", 11]
        assert run(["simulate", "--mode", "pde", *common, "--nx", 32, "--np", 32, "--x-width", 10,
                    "--p-width", 8, "--out-prefix", tmp_path / "p"]) == 0
        assert run(["simulate", "--mode", "moments", *common, "--out-prefix", tmp_path / "m"]) == 0
        ph, prows = read_csv(tmp_path / "p.csv")
        mh, mrows = read_csv(tmp_path / "m.csv")
        mass = prows[:, ph.index("mass")]
        assert np.max(np.abs(mass - mass[0])) < 1e-9
        for key in ("m20", "m11", "m02"):
            np.testing.assert_allclose(prows[:, ph.index(key)], mrows[:, mh.index(key)], rtol=1e-6, atol=1e-9)

    def test_stiff_damping_returns(self, tmp_path):
        # DOP853 never returned on this generator (entries of order 1e200);
        # the run gets its own process and a deadline
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qbmarket.cli", "simulate", "--mode", "moments", "--x2", "1",
                               "--p2", "1", "--gamma", "1e200", "--t-end", "1", "--points", "3", "--out-prefix", "m"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(tmp_path / "m.csv")
        assert np.all(rows[:, header.index("m00")] == 1.0)
        np.testing.assert_allclose(rows[:, header.index("m20")], 1.0, rtol=1e-15)
        np.testing.assert_allclose(rows[:, header.index("m02")], 1.0, rtol=1e-15)

    def test_stiff_damping_with_time_dependent_kernel_returns(self, tmp_path):
        # explicit DOP853 did not return on this run within the deadline
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qbmarket.cli", "simulate", "--mode", "moments", "--kernel",
                               "non-markov", "--xi", "1e-3", "--eta", "1", "--omega", "1", "--x2", "1", "--p2", "1",
                               "--gamma", "1e5", "--t-end", "1", "--points", "3", "--out-prefix", "m"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(tmp_path / "m.csv")
        assert np.all(rows[:, header.index("m00")] == 1.0)
        assert np.all(rows[1:, header.index("m02")] > 1.0)

    def test_overflowing_momentum_scale_is_named(self, tmp_path, capsys):
        # M kT overflows although D = 2 M gamma kT = 2e100 is finite
        assert run(["simulate", "--mode", "moments", "--M", 1e200, "--kT", 1e200, "--gamma", 1e-300, "--x2", 1,
                    "--p2", 1, "--t-end", 1, "--points", 3, "--out-prefix", tmp_path / "m"]) == 3
        assert capsys.readouterr().err == "numerical failure: momentum scale M kT overflows at M = 1e+200, kT = 1e+200\n"
        assert list(tmp_path.iterdir()) == []

    def test_pde_time_column_is_the_requested_grid(self, tmp_path):
        # 7 intervals of 0.03/7: 3 * (0.03/7) is an ulp off linspace's 0.03 * 3/7
        assert run(["simulate", "--mode", "pde", "--x2", 1, "--p2", 1, "--nx", 16, "--np", 16, "--t-end", 0.03,
                    "--points", 8, "--out-prefix", tmp_path / "p"]) == 0
        header, rows = read_csv(tmp_path / "p.csv")
        np.testing.assert_array_equal(rows[:, header.index("t")], np.linspace(0.0, 0.03, 8))

    def test_pde_eps_neg_column_is_each_rows_own(self, tmp_path):
        # it used to repeat the run's largest value in every row
        from qbmarket.dynamics import KernelSchedule, PhaseSpaceGrid, evolve_wigner_pde

        assert run(["simulate", "--mode", "pde", "--M", 1, "--gamma", 0.25, "--kT", 1, "--x2", 1, "--p2", 1,
                    "--nx", 32, "--np", 32, "--t-end", 0.5, "--points", 5, "--out-prefix", tmp_path / "p"]) == 0
        header, rows = read_csv(tmp_path / "p.csv")
        eps_neg = rows[:, header.index("eps_neg")]
        evo = evolve_wigner_pde(PhaseSpaceGrid.gaussian(1.0, 1.0, n_x=32, n_p=32),
                                KernelSchedule.markov(ModelParams(M=1, gamma=0.25, kT=1, hbar=1)),
                                np.linspace(0.0, 0.5, 5))
        np.testing.assert_array_equal(eps_neg, evo.negative_fractions)
        assert eps_neg[0] == 0.0 < eps_neg.max()  # the initial Gaussian has no negative cell


    @pytest.mark.parametrize("flags", [
        ["--kernel", "non-markov", "--xi", 50, "--eta", 0.01, "--omega", 1, "--kT", 0.001, "--t-end", 100],
    ], ids=["negative-variance"])
    def test_invalid_moment_state_is_numerical_failure(self, tmp_path, capsys, flags):
        # the dynamics, not the input, produced moments no density can have
        assert run(["simulate", "--mode", "moments", "--M", 1, "--gamma", 1, "--hbar", 1, "--x2", 1, *flags,
                    "--out-prefix", tmp_path / "m"]) == 3
        assert "moment integration invalid at t =" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# edge values of a float column: signed zeros, subnormals and the ends of the
# finite range, then those of the writer's kernel: 1 <= |x| < 1e15, a tie
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3,
    1.0, -1.0, math.nextafter(1.0, 0.0), 1e15, -1e15, math.nextafter(1e15, 0.0), 1e14, math.nextafter(1e14, 0.0),
    1 + 2**-17,
]
# edge values of an int64 column, some past float's 53-bit mantissa
EDGE_INTS = [0, 1, 2**53 + 1, 2**62 + 3, 2**63 - 1]


@st.composite
def csv_tables(draw):
    """Tables of one row fewer, as many or one more than a writer block, or
    of two full blocks and part of a third: stamp, float, int64 and `stderr`
    (NaN allowed) columns, in any order and number, with edge values at
    drawn rows. A float column's magnitudes span the whole float range, the
    writer kernel's range 1 to 1e15, or a price's random walk."""
    block = cli._CSV_BLOCK
    n = draw(st.sampled_from([block - 1, block, block + 1, 2 * block + draw(st.integers(1, block - 1))]))
    names = draw(st.lists(st.sampled_from(["timestamp", "acf", "lag", "count", "stderr", "close"]), min_size=1,
                          max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = st.integers(0, n - 1)
    columns = {}
    for name in names:
        if name == "timestamp":
            lo, hi = market.STAMP_MINUTES
            if draw(st.booleans()):
                col = market.SYNTH_START_MINUTE + np.cumsum(rng.integers(1, 500, n))
            else:
                col = rng.integers(lo, hi + 1, n)
            col[draw(rows)], col[draw(rows)] = lo, hi
            col = col.view("datetime64[m]")
        elif name in ("lag", "count"):
            col = rng.integers(1, 2**63 - 1, n, endpoint=True) >> rng.integers(0, 63, n)
            for i, value in draw(st.lists(st.tuples(rows, st.sampled_from(EDGE_INTS)), max_size=5)):
                col[i] = value
        else:
            spread = draw(st.sampled_from(["float", "kernel", "walk"]))
            if spread == "float":
                col = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 308, n)
            elif spread == "kernel":
                col = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 15.0, n)
            else:
                col = 10.0 ** rng.uniform(0.0, 4.0) * np.exp(np.cumsum(1e-3 * rng.standard_normal(n)))
            edges = EDGE_FLOATS + [math.nan] * (name == "stderr")
            for i, value in draw(st.lists(st.tuples(rows, st.sampled_from(edges)), max_size=8)):
                col[i] = value
        columns[name] = col
    return columns


def reference_csv(digest, columns):
    """A CSV's text written cell by cell: NumPy's minute stamps and `%.17g`."""
    cells = [np.datetime_as_string(col, unit="m").tolist() if col.dtype.kind == "M"
             else ["%.17g" % v for v in col.tolist()] for col in columns.values()]
    lines = [f"# qbmarket {__version__}; input sha256={digest}", ",".join(columns), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


class TestWriters:
    def test_json_writer_refuses_non_finite(self):
        with pytest.raises(NumericalError, match="r.json: .*non-finite"):
            cli._json_text("r.json", {"amplitude": math.nan})

    def test_csv_writer_writes_minutes_as_stamps_block_by_block(self):
        times = market.SYNTH_START_MINUTE + 7 * np.arange(cli._CSV_BLOCK + 1)
        text = "".join(cli._csv_chunks("p.csv", "0", {"timestamp": times.view("datetime64[m]"), "close": times}))
        rows = [line.split(",") for line in text.splitlines()[2:]]
        stamps = np.datetime_as_string(times.astype("datetime64[m]"), unit="m")
        assert [stamp for stamp, _ in rows] == stamps.tolist()
        assert [float(close) for _, close in rows] == times.tolist()

    @given(columns=csv_tables())
    @settings(max_examples=40, deadline=None)
    def test_csv_writer_bytes_equal_a_cell_by_cell_reference(self, columns):
        assert "".join(cli._csv_chunks("t.csv", "ab12", columns)) == reference_csv("ab12", columns)

    def test_kernel_writes_every_close_of_the_benchmark_synth(self, tmp_path, monkeypatch):
        # the market_colored benchmark's synth: 1e5 bars at the paper's S&P
        # triple; every close of its full blocks is in the kernel's range
        from qbmarket import _g17

        written, real = [], _g17.g17

        def g17(values):
            cells, done = real(values)
            written.append((len(values), int(done.sum())))
            return cells, done

        monkeypatch.setattr(_g17, "g17", g17)
        assert run(["synth", "--kind", "colored", "--n", 100_000, "--xi", 5.48e-4, "--eta", 5.56e-3, "--omega", 0.02617,
                    "--seed", 7, "--out", tmp_path / "prices.csv"]) == 0
        assert written == [(cli._CSV_BLOCK, cli._CSV_BLOCK)] * (100_000 // cli._CSV_BLOCK)

    def test_csv_writer_refuses_non_finite_outside_stderr(self):
        lags = np.arange(3)
        with pytest.raises(NumericalError, match="'acf'"):
            cli._csv_chunks("a.csv", "0", {"lag": lags, "acf": np.array([1.0, math.inf, 0.5])})
        # a lag with a single pair has no standard error
        text = "".join(cli._csv_chunks("a.csv", "0", {"lag": lags, "stderr": np.array([0.1, 0.2, math.nan])}))
        assert text.splitlines()[-1] == "2,nan"

    def test_analyze_writes_no_table_when_one_is_not_finite(self, tmp_path, monkeypatch):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 2000, "--seed", 1, "--out", prices]) == 0
        real = cli.empirical_kurtosis

        def nan_kurtosis(*args, **kwargs):
            kurt = real(*args, **kwargs)
            return SimpleNamespace(taus=kurt.taus, kappa=np.full(len(kurt.taus), math.nan), counts=kurt.counts)

        # the kurtosis table is the last one written
        monkeypatch.setattr(cli, "empirical_kurtosis", nan_kurtosis)
        assert run(["analyze", "--input", prices, "--taus", "5:20:5", "--out-prefix", tmp_path / "run"]) == 3
        assert list(tmp_path.glob("run*")) == []


class TestSynthAndAnalyze:
    def test_analyze_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a BLAS reduction (np.dot, vdot, @) sums in an order set by its
        # thread count, which would tie the statistics files to the core count
        assert run(["synth", "--kind", "gbm", "--n", 50_000, "--seed", 7, "--out", tmp_path / "p.csv"]) == 0
        tables = ("scaling", "histogram", "acf", "kurtosis")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "qbmarket.cli", "analyze", "--input", "p.csv", "--taus",
                            "5:100:5", "--max-lag", "480", "--out-prefix", f"t{threads}"],
                           cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
            outputs.append([(tmp_path / f"t{threads}.{name}.csv").read_bytes() for name in tables])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_volatility_is_usage_error(self, tmp_path, capsys, value):
        assert run(["synth", "--kind", "gbm", "--n", 50, f"--sigma={value}", "--seed", 1,
                    "--out", tmp_path / "p.csv"]) == 1
        assert "--sigma must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, named", [
        (["--kind", "colored", "--dt", 0], "--dt must be positive"),
        (["--kind", "colored", "--dt", -1], "--dt must be positive"),
        (["--kind", "gbm", "--dt", 0], "--dt must be positive"),
        (["--kind", "colored", "--s0", -5], "--s0 must be positive"),
        (["--kind", "gbm", "--s0", -5], "--s0 must be positive"),
    ], ids=["colored-dt-0", "colored-dt-negative", "gbm-dt-0", "colored-s0", "gbm-s0"])
    def test_nonpositive_spacing_or_price_is_named(self, tmp_path, capsys, flags, named):
        # a zero spacing divided by zero (exit 3), a negative one or price hit a math domain error
        assert run(["synth", *flags, "--n", 4000, "--xi", 5e-4, "--eta", 5e-3, "--omega", 0.02, "--seed", 1,
                    "--out", tmp_path / "s.csv"]) == 1
        assert capsys.readouterr().err == f"usage error: {named}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, bar, price", [
        (["--n", 2, "--dt", 4207590149], 1, "0"),
        (["--n", 3, "--dt", 1000, "--sigma", 1e3], 1, "0"),
        (["--n", 3, "--dt", 1000000, "--mu", 1], 1, "inf"),
    ], ids=["drift-underflow", "volatility-underflow", "overflow"])
    def test_price_out_of_range_is_numerical_failure(self, tmp_path, capsys, flags, bar, price):
        # an underflowing price was reported as a data error (exit 2), "prices must be positive"
        assert run(["synth", "--kind", "gbm", *flags, "--seed", 1, "--out", tmp_path / "s.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: synthetic price of bar {bar} is {price}, outside the positive "
                              "finite range"), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [1, 0])
    def test_too_few_bars_names_the_flag(self, tmp_path, capsys, n):
        assert run(["synth", "--kind", "gbm", "--n", n, "--seed", 1, "--out", tmp_path / "s.csv"]) == 1
        assert capsys.readouterr().err == "usage error: --n must be at least 2\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["gbm", "colored"])
    def test_last_bar_after_year_9999_is_refused(self, tmp_path, capsys, kind):
        # used to exit 0 with stamps like 10023-08-05T22:50, which analyze
        # then refused with "cannot parse timestamp"
        assert run(["synth", "--kind", kind, "--n", 2000, "--dt", 3_000_000, "--xi", 5e-4, "--eta", 1e-6,
                    "--omega", 0.02, "--seed", 1, "--out", tmp_path / "s.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --n and --dt put the last bar after 9999-12-31T23:59")
        assert list(tmp_path.iterdir()) == []

    def test_last_bar_at_year_9999_is_read_back(self, tmp_path, capsys):
        limit = int(np.datetime64("9999-12-31T23:59").astype(np.int64)) - market.SYNTH_START_MINUTE
        prices = tmp_path / "s.csv"
        flags = ["synth", "--kind", "gbm", "--n", 2, "--mu", 0, "--sigma", 1e-9, "--seed", 1, "--out", prices]
        assert run(flags + ["--dt", limit + 1]) == 1
        assert f"need (--n - 1) * --dt <= {limit}" in capsys.readouterr().err
        assert run(flags + ["--dt", limit]) == 0
        assert prices.read_text().splitlines()[-1].startswith("9999-12-31T23:59,")
        series = market.load_prices(prices)
        assert series.times[-1] - series.times[0] == limit

    @pytest.mark.parametrize("eta, need", [(5e-3, "2000"), (1e-320, "inf")], ids=["short", "eta-subnormal"])
    def test_short_colored_series_names_the_flags(self, tmp_path, capsys, eta, need):
        # used to say "n must cover ten decay times: need n >= 2000", and at a
        # subnormal --eta to exit 3 with "cannot convert float infinity to integer"
        assert run(["synth", "--kind", "colored", "--n", 100, "--xi", 5e-4, "--eta", eta, "--omega", 0.02,
                    "--seed", 1, "--out", tmp_path / "c.csv"]) == 1
        assert capsys.readouterr().err == (
            f"usage error: --n must cover ten decay times, 10 / (--eta * --dt): need --n >= {need}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("eta, dt, product", [(0.9, 1, "0.9"), (0.3, 2, "0.6")], ids=["eta", "eta-dt"])
    def test_unstable_colored_filter_names_the_flags(self, tmp_path, capsys, eta, dt, product):
        # used to say "filter instability: eta*dt = 0.9 > 0.5"
        assert run(["synth", "--kind", "colored", "--n", 4000, "--xi", 5e-4, "--eta", eta, "--dt", dt,
                    "--omega", 0.02, "--seed", 1, "--out", tmp_path / "c.csv"]) == 1
        assert capsys.readouterr().err == (
            f"usage error: --eta times --dt must be at most 0.5 for a stable filter: got {product}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_gbm_zero_vol_is_monotone_exponential(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["synth", "--kind", "gbm", "--n", 50, "--mu", 1e-4, "--sigma", 0.0,
                    "--seed", 1, "--out", out]) == 0
        from qbmarket import load_prices

        series = load_prices(out)
        assert np.all(np.diff(np.log(series.close)) > 0)

    def test_colored_zero_intensity_gives_white_noise_returns(self, tmp_path):
        out = tmp_path / "white.csv"
        assert run(["synth", "--kind", "colored", "--n", 20000, "--xi", 0.0, "--eta", 5e-3,
                    "--omega", 0.02, "--base-noise", 1e-3, "--seed", 5, "--out", out]) == 0
        from qbmarket import empirical_acf, load_prices, log_returns

        series = load_prices(out)
        acf = empirical_acf(log_returns(series, 1), 30)
        band = 4.0 / math.sqrt(len(series)) * acf.values[0]
        assert np.all(np.abs(acf.values[1:]) < band)

    @pytest.mark.parametrize("seed, digest", [
        (3, "b69a46ec9a48bcce7cd81f5eb125d4e924715908b91d0c41e4199a96d2865438"),
        (11, "5723f1d972862cd1180184afb382458938151d78f700b945ecbdae27d37758cb"),
        (42, "ef43d8c67586a0671c4e30b080f11426c1e99440a38f874f74564f9f64f26ba6"),
    ])
    def test_colored_bytes_are_pinned(self, tmp_path, seed, digest):
        # 70000 bars: the AR(1) filter runs full blocks of market._AR_BLOCK
        # samples and a partial one; the digests are those of scipy's lfilter
        assert 69_999 % market._AR_BLOCK and 69_999 > market._AR_BLOCK
        out = tmp_path / "c.csv"
        assert run(["synth", "--kind", "colored", "--n", 70000, "--xi", 5e-4, "--eta", 5e-3, "--omega", 0.02,
                    "--seed", seed, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_gbm_bytes_are_pinned(self, tmp_path):
        # taken from a writer that formed the whole stamp column at once
        out = tmp_path / "g.csv"
        assert run(["synth", "--kind", "gbm", "--n", 70000, "--mu", 1e-5, "--sigma", 0.01, "--seed", 3,
                    "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "10c61fe1d8d158b40746aa5e1e59eb431a76f6642e03a31632f91606fe269cf3"
        )

    @pytest.mark.parametrize("kind", ["gbm", "colored"])
    def test_synth_memory_is_a_few_columns(self, tmp_path, kind):
        # a few generated columns of 8 bytes a bar and one text block: about
        # 33 bytes a bar; the whole stamp column as text alone would be 64
        n = 200_000
        args = ["synth", "--kind", kind, "--seed", 4, "--out", tmp_path / "p.csv"]
        if kind == "colored":
            args += ["--xi", 5e-4, "--eta", 5e-3, "--omega", 0.02]
        assert run(args + ["--n", 2000]) == 0  # the layers imported before tracing
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert run(args + ["--n", n]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * n

    def test_analyze_memory_is_the_series_and_one_stage(self, tmp_path):
        # about 1e5 bars in 390-minute sessions at -05:00 labelled by date, 2%
        # of them missing, as perfbench's market_sessions input. The series
        # and the returns are 24 bytes a bar each, and analyze holds one of
        # them with one stage's pairs at a time: about 67 bytes a bar, where
        # holding both beside the kurtosis pairs, with 1 MiB read blocks, took 106
        rng = np.random.default_rng(8)
        minute = np.flatnonzero(rng.random(256 * 390) >= 0.02)
        times = market.SYNTH_START_MINUTE + (minute // 390) * 1440 + minute % 390
        close = (100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal(len(times))))).tolist()
        stamps = np.datetime_as_string(times.astype("datetime64[m]"), unit="m").tolist()
        rows = [f"{t}:00-05:00,{c:.12g},{t[:10]}\n" for t, c in zip(stamps, close)]
        for name, n in (("small.csv", 2000), ("sessions.csv", len(rows))):
            (tmp_path / name).write_text("timestamp,close,session\n" + "".join(rows[:n]))
        args = ["analyze", "--policy", "intraday-only", "--taus", "5:100:5", "--max-lag", 480,
                "--out-prefix", tmp_path / "stats", "--input"]
        assert run(args + [tmp_path / "small.csv"]) == 0  # the layers imported before tracing
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert run(args + [tmp_path / "sessions.csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 80 * len(times)

    def test_unstable_colored_filter_is_usage_error(self, tmp_path):
        code = run(["synth", "--kind", "colored", "--n", 10000, "--xi", 1e-4, "--eta", 0.9,
                    "--omega", 0.0, "--seed", 1, "--out", tmp_path / "x.csv"])
        assert code == 1

    def test_synth_seed_bit_reproducible(self, tmp_path):
        args = ["synth", "--kind", "gbm", "--n", 500, "--mu", 1e-5, "--sigma", 0.01, "--seed", 9]
        run(args + ["--out", tmp_path / "a.csv"])
        run(args + ["--out", tmp_path / "b.csv"])
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_synth_requires_a_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QBM_SEED", raising=False)
        assert run(["synth", "--kind", "gbm", "--n", 500, "--out", tmp_path / "p.csv"]) == 1
        assert capsys.readouterr().err == "usage error: synth requires --seed (or QBM_SEED)\n"
        assert list(tmp_path.iterdir()) == []

    def test_too_few_horizons_on_the_bar_grid_is_data_error(self, tmp_path, capsys):
        # only 5 and 10 of the horizons 1 to 12 are multiples of the 5-minute bars
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 500, "--dt", 5, "--seed", 1, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--taus", "1:12:1", "--out-prefix", tmp_path / "run"]) == 2
        assert "data error: fewer than 3 usable horizons" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_analyze_pipeline_on_gbm(self, tmp_path):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 100000, "--mu", 1e-5, "--sigma", 0.01,
                    "--seed", 2, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--taus", "5:100:5", "--max-lag", 60,
                    "--out-prefix", tmp_path / "run"]) == 0
        header, rows = read_csv(tmp_path / "run.scaling.csv")
        from qbmarket import fit_power_law

        fit = fit_power_law(rows[:, header.index("tau")], rows[:, header.index("sigma")])
        assert abs(fit.exponent - 0.5) < 0.05
        for suffix in (".scaling.csv", ".histogram.csv", ".acf.csv", ".kurtosis.csv", ".manifest.json"):
            assert (tmp_path / ("run" + suffix)).exists()

    def test_offset_sessions_bytes_are_pinned(self, tmp_path):
        # three sessions at -05:00 with seconds and missing bars; the digests
        # are those of the per-line stamp parser, so any change to how such
        # stamps are read shows in every statistics file (the ACF's within
        # its tolerance of the reference)
        rng = np.random.default_rng(12)
        lines = ["timestamp,close,session"]
        log_price = math.log(100.0)
        for day in ("2021-03-01", "2021-03-02", "2021-03-03"):
            walk = log_price + np.cumsum(1e-3 * rng.standard_normal(390))
            for minute in np.flatnonzero(rng.random(390) >= 0.03):
                hh, mm = divmod(570 + int(minute), 60)
                lines.append(f"{day}T{hh:02d}:{mm:02d}:00-05:00,{math.exp(walk[minute]):.12g},{day}")
            log_price = walk[-1]
        prices = tmp_path / "sessions.csv"
        prices.write_text("\n".join(lines) + "\n")
        assert run(["analyze", "--input", prices, "--policy", "intraday-only", "--taus", "1:5:1",
                    "--max-lag", 30, "--out-prefix", tmp_path / "s"]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / f"s.{name}.csv").read_bytes()).hexdigest()
            for name in ("scaling", "histogram", "kurtosis")
        }
        assert digests == {
            "scaling": "fca34cdf7cd51f0e949f4c4eb346b60ea926c8ebc41dd9d994c4d5a38c71a7dd",
            "histogram": "499cae97b4b7a4ba8ec307f262b093d74cf8ad119f62ff7b2720551d82246a7b",
            "kurtosis": "56b209e4e857bbd1932c02bad73b01208aca1645851fc8f342c41a1c768b30c2",
        }
        assert_acf_table_matches(tmp_path / "s.acf.csv", prices, 30)

    def test_twenty_sessions_bytes_are_pinned(self, tmp_path, read_blocks):
        # twenty sessions at -05:00 without seconds, so the column reader
        # runs, with about 2% of bars missing; lags past the 390-minute
        # session are omitted under intraday-only
        rng = np.random.default_rng(19)
        lines = ["timestamp,close,session"]
        log_price = math.log(100.0)
        for day in np.busday_offset("2021-03-01", np.arange(20)).astype(str):
            walk = log_price + np.cumsum(1e-3 * rng.standard_normal(390))
            for minute in np.flatnonzero(rng.random(390) >= 0.02):
                hh, mm = divmod(570 + int(minute), 60)
                lines.append(f"{day}T{hh:02d}:{mm:02d}-05:00,{math.exp(walk[minute]):.12g},{day}")
            log_price = walk[-1]
        prices = tmp_path / "sessions.csv"
        prices.write_text("\n".join(lines) + "\n")
        assert run(["analyze", "--input", prices, "--policy", "intraday-only", "--taus", "5:100:5",
                    "--max-lag", 480, "--out-prefix", tmp_path / "s"]) == 0
        assert read_blocks and all(read_blocks)
        digests = {
            name: hashlib.sha256((tmp_path / f"s.{name}.csv").read_bytes()).hexdigest()
            for name in ("scaling", "histogram", "kurtosis")
        }
        assert digests == {
            "scaling": "bf8f765bc5854fac32555d705a9b759486302432065df24abba979939a079df3",
            "histogram": "5b9fbd39912e4aab348edbcc22a90202fea7f91674a8405398cdee4c3a5522a6",
            "kurtosis": "5aed22a3150e54d13f3b5c3bfbbb87fb2d5fa9466cfa59eeec8e0b8cc289d053",
        }
        assert_acf_table_matches(tmp_path / "s.acf.csv", prices, 480)
        header, rows = read_csv(tmp_path / "s.acf.csv")
        assert rows[-1, header.index("lag")] < 390

    def test_analyze_colored_input_acf_matches_model(self, tmp_path):
        nm_flags = ["--xi", 5.48e-4, "--eta", 5.56e-3, "--omega", 8.33e-3 * math.pi]
        prices = tmp_path / "colored.csv"
        assert run(["synth", "--kind", "colored", "--n", 300000, "--dt", 5, *nm_flags,
                    "--base-noise", 1e-3, "--seed", 4, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--taus", "5:100:5", "--max-lag", 130,
                    "--out-prefix", tmp_path / "col"]) == 0
        header, rows = read_csv(tmp_path / "col.acf.csv")
        from qbmarket import NonMarkovParams, acf_model

        nm = NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=8.33e-3 * math.pi)
        lag_c, val_c, se_c = header.index("lag"), header.index("acf"), header.index("stderr")
        for lag in (30, 60, 120):
            row = rows[rows[:, lag_c] == lag][0]
            target = float(acf_model(nm, float(lag)))
            assert abs(row[val_c] - target) <= 3.0 * row[se_c], lag

    def test_failed_analyze_leaves_no_partial_output(self, tmp_path):
        prices = tmp_path / "short.csv"
        assert run(["synth", "--kind", "gbm", "--n", 60, "--seed", 1, "--out", prices]) == 0
        # the scaling statistics succeed at these horizons; the histogram needs 100 returns
        assert run(["analyze", "--input", prices, "--taus", "5:20:5", "--out-prefix", tmp_path / "run"]) == 2
        assert list(tmp_path.glob("run*")) == []

    def test_negative_max_lag_is_usage_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 500, "--seed", 1, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--max-lag", -1, "--out-prefix", tmp_path / "run"]) == 1
        assert "--max-lag must be nonnegative" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_max_lag_beyond_the_data_is_data_error(self, tmp_path, capsys):
        # the data decide it, as they decide whether a --taus horizon has increments
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 200, "--seed", 1, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--taus", "1:3:1", "--max-lag", 480,
                    "--out-prefix", tmp_path / "run"]) == 2
        assert capsys.readouterr().err == "data error: max_lag must be below the sample span (198 min)\n"
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("flag, value, named", [
        ("--max-lag", -5, "--max-lag must be nonnegative"),
        ("--bins", 0, "--bins must be positive"),
        ("--return-tau", 0, "--return-tau must be positive"),
    ], ids=["max-lag", "bins", "return-tau"])
    def test_bad_flag_is_named_before_the_file_is_read(self, tmp_path, monkeypatch, capsys, flag, value, named):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 500, "--seed", 1, "--out", prices]) == 0

        def unread(path):
            raise AssertionError(f"{path} was read before the flags were checked")

        monkeypatch.setattr(cli, "load_prices", unread)
        assert run(["analyze", "--input", prices, flag, value, "--out-prefix", tmp_path / "run"]) == 1
        assert capsys.readouterr().err == f"usage error: {named}\n"

    @pytest.mark.parametrize("taus", ["0:100:5", "-5:100:5"])
    def test_non_positive_tau_start_is_usage_error(self, tmp_path, capsys, taus):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 500, "--seed", 1, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, f"--taus={taus}", "--out-prefix", tmp_path / "run"]) == 1
        assert "tau range must start above 0" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_analyze_empty_file_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["analyze", "--input", empty, "--out-prefix", tmp_path / "z"]) == 2

    def test_analyze_missing_file_is_data_error(self, tmp_path):
        assert run(["analyze", "--input", tmp_path / "nope.csv", "--out-prefix", tmp_path / "z"]) == 2

    def test_analyze_directory_input_is_data_error(self, tmp_path, capsys):
        assert run(["analyze", "--input", tmp_path, "--out-prefix", tmp_path / "z"]) == 2
        assert f"data error: cannot read input {tmp_path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_non_utf8_input_is_data_error(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, which used to exit 1 as a usage error
        prices = tmp_path / "prices.csv"
        prices.write_bytes(b"timestamp,close\n2021-01-04T09:30,100\n2021-01-04T09:31,10\xff1\n")
        assert run(["analyze", "--input", prices, "--out-prefix", tmp_path / "run"]) == 2
        assert f"data error: {prices}: not UTF-8 text" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["prices.csv"]

    def test_unwritable_table_leaves_no_output_of_the_run(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        assert run(["synth", "--kind", "gbm", "--n", 2000, "--seed", 1, "--out", prices]) == 0
        out = tmp_path / "o"
        # the third of the four tables cannot be renamed over its target
        (out / "run.acf.csv").mkdir(parents=True)
        assert run(["analyze", "--input", prices, "--taus", "5:20:5", "--out-prefix", out / "run"]) == 1
        err = capsys.readouterr().err
        assert f"usage error: cannot write {out / 'run.acf.csv'}: " in err
        assert ".tmp" not in err
        assert [p.name for p in out.iterdir()] == ["run.acf.csv"]
        assert list((out / "run.acf.csv").iterdir()) == []

    def test_unwritable_manifest_leaves_no_prices(self, tmp_path, capsys):
        (tmp_path / "p.csv.manifest.json").mkdir()
        assert run(["synth", "--kind", "gbm", "--n", 50, "--seed", 1, "--out", tmp_path / "p.csv"]) == 1
        assert f"cannot write {tmp_path / 'p.csv.manifest.json'}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv.manifest.json"]


class TestFitCommand:
    def make_acf_csv(self, tmp_path, noise_seed=None):
        import numpy as np

        from qbmarket import NonMarkovParams, acf_model

        nm = NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=8.33e-3 * math.pi)
        lags = np.arange(0, 481, 5)
        vals = np.asarray(acf_model(nm, lags.astype(float)))
        if noise_seed is not None:
            rng = np.random.default_rng(noise_seed)
            vals = vals + 0.05 * nm.xi**2 * rng.standard_normal(len(lags))
        path = tmp_path / "acf.csv"
        lines = ["lag,acf"] + [f"{l},{v:.17g}" for l, v in zip(lags, vals)]
        path.write_text("\n".join(lines) + "\n")
        return path, nm

    def test_fit_acf_noiseless_recovery(self, tmp_path):
        path, nm = self.make_acf_csv(tmp_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--kind", "acf", "--input", path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["converged"]
        assert report["xi"] == pytest.approx(nm.xi, rel=1e-6)
        assert report["eta"] == pytest.approx(nm.eta, rel=1e-6)
        assert report["omega"] == pytest.approx(nm.omega, rel=1e-6)
        assert report["input_sha256"]

    def test_fit_acf_noisy_within_five_percent(self, tmp_path):
        path, nm = self.make_acf_csv(tmp_path, noise_seed=1)
        out = tmp_path / "fit.json"
        assert run(["fit", "--kind", "acf", "--input", path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert abs(report["eta"] - nm.eta) / nm.eta < 0.05

    def test_white_noise_decay_on_its_bound_is_named(self, tmp_path):
        # white-noise returns: the fit's decay rate is set by its lower bound, a
        # memory that never decays, and the report said nothing of it
        prices, run_prefix, out = tmp_path / "g.csv", tmp_path / "run", tmp_path / "fit.json"
        assert run(["synth", "--kind", "gbm", "--n", 100_000, "--sigma", 0.001, "--seed", 2, "--out", prices]) == 0
        assert run(["analyze", "--input", prices, "--max-lag", 480, "--out-prefix", run_prefix]) == 0
        assert run(["fit", "--kind", "acf", "--input", f"{run_prefix}.acf.csv", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert (report["eta"], report["converged"]) == (1e-12, True)
        assert report["diagnostic"] == "eta = 1e-12 is on its lower bound"

    def test_flat_zero_input_unconverged_exit_zero(self, tmp_path):
        path = tmp_path / "flat.csv"
        lines = ["lag,acf"] + [f"{l},0.0" for l in range(0, 300, 5)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--kind", "acf", "--input", path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert "degenerate" in report["diagnostic"]

    def test_fit_kurtosis(self, tmp_path):
        taus = np.linspace(5, 400, 40)
        kappa = 197.0 * np.exp(-0.01 * taus)
        path = tmp_path / "k.csv"
        path.write_text("tau,kurtosis\n" + "\n".join(f"{t},{k:.17g}" for t, k in zip(taus, kappa)) + "\n")
        out = tmp_path / "kfit.json"
        assert run(["fit", "--kind", "kurtosis", "--input", path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["rate"] == pytest.approx(0.01, rel=1e-9)
        assert report["amplitude"] == pytest.approx(197.0, rel=1e-9)

    @pytest.mark.parametrize("base", [0, -1])
    def test_non_positive_base_minutes_is_usage_error(self, tmp_path, capsys, base):
        path, _ = self.make_acf_csv(tmp_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--kind", "acf", "--input", path, f"--base-minutes={base}", "--out", out]) == 1
        assert "--base-minutes must be positive" in capsys.readouterr().err
        assert list(tmp_path.glob("fit.json*")) == []

    @pytest.mark.parametrize("kind,text", [
        ("acf", "lag,acf\n0,1\n5,0.5\n10,nan\n15,0.1\n"),
        ("kurtosis", "tau,kurtosis\n" + "".join(f"{t},{math.exp(-0.1 * t) if t != 30 else math.inf}\n"
                                                 for t in range(5, 60, 5))),
    ], ids=["acf-nan", "kurtosis-inf"])
    def test_non_finite_estimator_cell_is_data_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "est.csv"
        path.write_text(text)
        assert run(["fit", "--kind", kind, "--input", path, "--out", tmp_path / "o.json"]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv"]

    def test_nan_stderr_is_read(self, tmp_path):
        path, nm = self.make_acf_csv(tmp_path)
        lines = path.read_text().splitlines()
        # analyze writes NaN as the standard error of a lag with a single pair
        lines = [lines[0] + ",stderr"] + [row + (",nan" if i == 0 else ",1e-9") for i, row in enumerate(lines[1:])]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--kind", "acf", "--input", path, "--out", out]) == 0
        assert json.loads(out.read_text())["xi"] == pytest.approx(nm.xi, rel=1e-6)

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        assert run(["fit", "--kind", "acf", "--input", tmp_path, "--out", tmp_path / "o.json"]) == 2
        assert f"data error: cannot read input {tmp_path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit, row, named", [
        (lambda rows: rows[:2] + ["5,0.4"] + rows[2:], 3, "lag 5 does not exceed the lag 5"),
        (lambda rows: rows[:3] + ["-5,0.1"] + rows[3:], 4, "lag -5 is negative"),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 4, "lag 10 does not exceed the lag 15"),
    ], ids=["duplicated", "negative", "decreasing"])
    def test_malformed_lags_are_data_errors(self, tmp_path, capsys, edit, row, named):
        # a duplicated lag used to be fitted twice and a negative one dropped, both with exit 0
        path, _ = self.make_acf_csv(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")
        assert run(["fit", "--kind", "acf", "--input", path, "--out", tmp_path / "o.json"]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: row {row}: {named}" in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["acf.csv"]

    def test_malformed_estimator_csv_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lag,acf\n0,zero\n")
        assert run(["fit", "--kind", "acf", "--input", path, "--out", tmp_path / "o.json"]) == 2

    @pytest.mark.parametrize("text, named", [
        ("# qbmarket\nlag,acf\n", "no data rows"),
        ("lag,value\n0,1\n5,0.5\n", "missing column(s) ['acf']"),
        ("lag,acf,count\n0,1,10\n5,0.5\n", "row 2 has 2 fields, expected 3"),
    ], ids=["no-rows", "missing-column", "short-row"])
    def test_malformed_estimator_table_is_data_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "est.csv"
        path.write_text(text)
        assert run(["fit", "--kind", "acf", "--input", path, "--out", tmp_path / "o.json"]) == 2
        assert f"data error: {path}: {named}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]

    @pytest.mark.parametrize("kind, text, repeated", [
        ("acf", "lag,acf,acf\n0,1,1\n5,0.5,0.5\n10,0.25,0.25\n", "['acf']"),
        ("kurtosis", "tau,kurtosis,tau\n5,1,5\n10,0.5,10\n15,0.25,15\n", "['tau']"),
    ], ids=["acf", "kurtosis"])
    def test_repeated_column_is_data_error(self, tmp_path, capsys, kind, text, repeated):
        # each row's cells went twice into one column: fit_acf died with an
        # IndexError traceback, and the kurtosis fit's length check made it a usage error
        path = tmp_path / "est.csv"
        path.write_text(text)
        assert run(["fit", "--kind", kind, "--input", path, "--out", tmp_path / "o.json"]) == 2
        captured = capsys.readouterr()
        assert f"data error: {path}: repeated column(s) {repeated}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]

    @pytest.mark.parametrize("kind, text", [
        ("acf", b"lag,acf\n0,1\n5,0.\xff5\n10,0.25\n"),
        ("kurtosis", b"tau,kurtosis\n5,1\n10,0.\xff5\n15,0.25\n"),
    ], ids=["acf", "kurtosis"])
    def test_non_utf8_estimator_csv_is_data_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "est.csv"
        path.write_bytes(text)
        assert run(["fit", "--kind", kind, "--input", path, "--out", tmp_path / "o.json"]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]

    @pytest.mark.parametrize("header, row", [("lag,acf", "5.5,0.5"), ("lag,acf,count", "5,0.5,99.5"),
                                             ("lag,acf", "1e30,0.5")], ids=["lag", "count", "lag-beyond-int64"])
    def test_non_integer_lag_or_count_is_data_error(self, tmp_path, capsys, header, row):
        # astype(np.int64) truncated 5.5 to 5, or cast 1e30 to -2**63, and the fit converged on it
        path, _ = self.make_acf_csv(tmp_path)
        lines = path.read_text().splitlines()
        if header.endswith("count"):
            lines = [header] + [f"{line},100" for line in lines[1:]]
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        assert run(["fit", "--kind", "acf", "--input", path, "--out", tmp_path / "o.json"]) == 2
        column = header.split(",")[-1] if header.endswith("count") else "lag"
        assert f"data error: {path}: row 2: {column} is not a 64-bit integer" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["acf.csv"]

    @pytest.mark.parametrize("count", ["-7", "0"])
    def test_count_below_one_is_data_error(self, tmp_path, capsys, count):
        # np.maximum(counts, 1) made them 1, and the count-weighted fit converged
        path, _ = self.make_acf_csv(tmp_path)
        lines = path.read_text().splitlines()
        lines = ["lag,acf,count"] + [f"{line},100" for line in lines[1:]]
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{count}"
        lines[5] = lines[5].rsplit(",", 1)[0] + ",0"
        path.write_text("\n".join(lines) + "\n")
        assert run(["fit", "--kind", "acf", "--weights", "count-weighted", "--input", path,
                    "--out", tmp_path / "o.json"]) == 2
        assert f"data error: {path}: row 3: count is below 1 ({count!r})" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["acf.csv"]


class TestConfigFile:
    def test_config_file_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("formula = classical\nM = 10\ngamma = 1000\nkT = 0.1\nhbar = 0.01\n"
                       "start = 0\nend = 10\npoints = 11\n")
        out1 = tmp_path / "c1.csv"
        assert run(["eval", "--config", cfg, "--out", out1]) == 0
        _, rows = read_csv(out1)
        assert rows[-1, 1] == pytest.approx(1e-4, rel=1e-12)
        # flag overrides the file value
        out2 = tmp_path / "c2.csv"
        assert run(["eval", "--config", cfg, "--kT", 0.2, "--out", out2]) == 0
        _, rows2 = read_csv(out2)
        assert rows2[-1, 1] == pytest.approx(2e-4, rel=1e-12)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("formula = classical\nbananas = 7\n")
        assert run(["eval", "--config", cfg, "--start", 0, "--end", 1,
                    "--out", tmp_path / "x.csv"]) == 1

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for value in ("nan", "-inf"):  # -inf is a value, not an option
            cfg.write_text(f"kind = gbm\nsigma = {value}\n")
            assert run(["synth", "--config", cfg, "--n", 50, "--seed", 1, "--out", tmp_path / "p.csv"]) == 1
            assert "--sigma must be finite" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run(["eval", "--config", missing, "--formula", "classical", "--start", 0, "--end", 1,
                    "--out", tmp_path / "x.csv"]) == 1
        assert f"usage error: cannot read config {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_records_resolved_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("formula = classical\nstart = 0\nend = 10\n")
        out = tmp_path / "c.csv"
        assert run(["eval", "--config", cfg, "--gamma", 2.0, "--out", out]) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["config"]["gamma"] == 2.0
        assert manifest["config"]["end"] == 10.0


def _write_inputs(directory: Path) -> None:
    """prices.csv for analyze, acf.csv and kurt.csv for fit."""
    assert run(["synth", "--kind", "gbm", "--n", 600, "--seed", 1, "--out", directory / "prices.csv"]) == 0
    lags = np.arange(0, 481, 5)
    acf = acf_model(NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=0.026), lags.astype(float))
    (directory / "acf.csv").write_text(
        "lag,acf,count\n" + "\n".join(f"{l},{v:.17g},{1000 - l}" for l, v in zip(lags, acf)) + "\n"
    )
    taus = np.arange(5, 205, 5)
    (directory / "kurt.csv").write_text(
        "tau,kurtosis\n" + "\n".join(f"{t},{197.0 * math.exp(-0.01 * t):.17g}" for t in taus) + "\n"
    )


# one run of each command that sets every option but --config (the output path
# last); --xp and --spx-0 are negative, which the file must read as values
FULL_RUNS = {
    "eval": ["--formula", "variance", "--M", "10", "--gamma", "1e3", "--kT", "0.1", "--hbar", "0.01",
             "--sx2-0", "1e-7", "--sp2-0", "300", "--spx-0", "-0.000001", "--xi", "5e-4", "--eta", "5e-3",
             "--omega", "0.02", "--kind", "composite", "--cutoff", "2", "--start", "0", "--end", "10",
             "--points", "11", "--out", "e.csv"],
    "simulate": ["--mode", "moments", "--M", "2", "--gamma", "0.5", "--kT", "0.7", "--hbar", "0.9",
                 "--kernel", "non-markov", "--xi", "0.3", "--eta", "0.5", "--omega", "0.7", "--x2", "1",
                 "--p2", "1.5", "--xp", "-0.25", "--x4", "3.5", "--t-end", "1", "--points", "3", "--n-paths", "2000", "--dt", "0.01", "--seed", "4", "--nx", "16", "--np", "16",
                 "--x-width", "9", "--p-width", "9", "--potential", "harmonic", "--omega0", "1.5",
                 "--out-prefix", "m"],
    "analyze": ["--input", "prices.csv", "--taus", "1:6:1", "--max-lag", "20", "--return-tau", "2",
                "--policy", "contiguous", "--bins", "15", "--out-prefix", "stats"],
    "fit": ["--kind", "acf", "--input", "acf.csv", "--base-minutes", "5", "--weights", "count-weighted",
            "--out", "f.json"],
    "synth": ["--kind", "colored", "--n", "1200", "--dt", "2", "--seed", "3", "--mu", "1e-5", "--sigma", "0.02",
              "--s0", "50", "--xi", "5e-4", "--eta", "5e-3", "--omega", "0.02", "--base-noise", "2e-3",
              "--out", "s.csv"],
}


class TestConfigParsing:
    """A config value goes through the parser its flag goes through."""

    @pytest.mark.parametrize("command", sorted(FULL_RUNS))
    def test_every_option_from_the_file_reads_as_its_flag(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        pairs = list(zip(FULL_RUNS[command][::2], FULL_RUNS[command][1::2]))
        _, flags = cli.build_parser()
        assert [flag for flag, _ in pairs] == [f for f in flags[command].values() if f != "--config"]
        manifest = Path(f"{pairs[-1][1]}.manifest.json")

        def recorded(argv):
            assert run([command, *argv]) == 0
            return json.loads(manifest.read_text())["config"]

        expected = recorded(FULL_RUNS[command])
        assert expected.pop("config") is None
        for i, (flag, value) in enumerate(pairs):
            # keys are case-insensitive and read - and _ alike
            key = flag[2:] if i % 2 else flag[2:].upper().replace("-", "_")
            Path("run.cfg").write_text(f"{key} = {value}\n")
            rest = [token for other in pairs if other[0] != flag for token in other]
            config = recorded([*rest, "--config", "run.cfg"])
            assert config.pop("config") == "run.cfg"
            assert config == expected, flag

    @pytest.mark.parametrize("key, argv", [
        ("formula", ["eval", "--start", 0, "--end", 1, "--points", 3, "--out", "e.csv"]),
        ("kind", ["eval", "--formula", "classical", "--start", 0, "--end", 1, "--points", 3, "--out", "e.csv"]),
        ("mode", ["simulate", "--x2", 1, "--p2", 1, "--nx", 16, "--np", 16, "--t-end", 0.01, "--points", 3,
                  "--out-prefix", "m"]),
        ("kernel", ["simulate", "--mode", "moments", "--x2", 1, "--t-end", 1, "--points", 3, "--out-prefix", "m"]),
        ("potential", ["simulate", "--mode", "pde", "--x2", 1, "--p2", 1, "--nx", 16, "--np", 16, "--t-end", 0.01,
                       "--points", 3, "--out-prefix", "m"]),
        ("policy", ["analyze", "--input", "prices.csv", "--taus", "1:6:1", "--max-lag", 20, "--out-prefix", "s"]),
        ("kind", ["fit", "--input", "kurt.csv", "--out", "f.json"]),
        ("weights", ["fit", "--kind", "acf", "--input", "acf.csv", "--out", "f.json"]),
        ("kind", ["synth", "--n", 1200, "--xi", 5e-4, "--eta", 5e-3, "--omega", 0.02, "--seed", 1, "--out", "s.csv"]),
    ], ids=["eval-formula", "eval-kind", "simulate-mode", "simulate-kernel", "simulate-potential",
            "analyze-policy", "fit-kind", "fit-weights", "synth-kind"])
    def test_bogus_choice_from_the_file_is_usage_error(self, tmp_path, monkeypatch, capsys, key, argv):
        monkeypatch.chdir(tmp_path)
        _write_inputs(tmp_path)
        Path("run.cfg").write_text(f"{key} = bogus\n")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run([*argv, "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument --{key}: invalid choice: 'bogus'"), err
        assert sorted(tmp_path.iterdir()) == before

    def test_negative_exponent_value_reads_as_a_number(self, tmp_path):
        # argparse's own pattern took "-1e-6" for an option
        common = ["eval", "--formula", "variance", "--sx2-0", 1, "--start", 0, "--end", 1, "--points", 3]
        assert run([*common, "--spx-0", "-1e-6", "--out", tmp_path / "a.csv"]) == 0
        assert run([*common, "--spx-0=-1e-6", "--out", tmp_path / "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert json.loads((tmp_path / "a.csv.manifest.json").read_text())["config"]["spx_0"] == -1e-6

    @pytest.mark.parametrize("first, second, key", [
        ("gamma = 1", "gamma = 2", "gamma"),
        ("n-paths = 1000", "N_PATHS = 2000", "n_paths"),
    ])
    def test_repeated_key_is_usage_error(self, tmp_path, capsys, first, second, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a run\n{first}\n\n{second}\n")
        assert run(["simulate", "--config", cfg, "--mode", "moments", "--x2", 1, "--t-end", 1, "--points", 3,
                    "--out-prefix", tmp_path / "m"]) == 1
        assert f"usage error: config {cfg}: key {key!r} repeated on lines 2 and 4" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestConfigDigest:
    # a config's digest, reproduced the way it was first defined
    @staticmethod
    def reference(config):
        payload = {k: v for k, v in config.items() if k not in ("config", "input", "out", "out_prefix")}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    VALUES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()

    @given(st.dictionaries(
        st.sampled_from(["config", "input", "out", "out_prefix", "seed", "x2", "Ω", "label"]) | st.text(),
        st.recursive(VALUES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                                         max_size=3)),
        max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_digest_is_hashlibs(self, config):
        assert cli._sha256_config(config) == self.reference(config)

    def test_digest_without_the_builtin_hash_is_hashlibs(self, monkeypatch):
        config = {"mode": "pde", "x2": 1.0, "nx": 32, "seed": None, "label": "ü", "out_prefix": "p"}
        digest = cli._sha256_config(config)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert cli._sha256_config(config) == digest == self.reference(config)

    # both headers carry the config digest
    @pytest.mark.parametrize("argv, digest", [
        (["simulate", "--mode", "pde", "--x2", 1, "--p2", 1, "--nx", 32, "--np", 32, "--t-end", 0.05, "--points", 3,
          "--out-prefix", "p"], "a036e61390aa47719e888b93d312dac04f548430b2d54abeee2ad791be5d3c13"),
        (["eval", "--formula", "variance", "--M", 10, "--gamma", 1e3, "--kT", 0.1, "--hbar", 0.01, "--sx2-0", 1e-7,
          "--start", 0, "--end", 1, "--points", 5, "--out", "p.csv"],
         "9de866a605abd5fcfe0ee4b4950c143ba405d68243cba5dcd2c1aa0e1db7cf38"),
    ], ids=["pde", "eval"])
    def test_csv_bytes_are_pinned(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == digest


class TestImports:
    # The steps run in order in one fresh interpreter; after each, the script
    # records which of the watched modules sys.modules holds: the scipy
    # submodules no command may load, or numpy and the package's layers, which
    # a command loads only when it calls them. A step is a `qbm` argument list,
    # the name of a module to import (the probe's control, which must be seen),
    # or {"read": "module.name"}, a read of a name the module does not have.
    SCIPY_ON_DEMAND = ("scipy.signal", "scipy.optimize", "scipy.integrate", "scipy.ndimage")
    LAYERS = ("numpy", "qbmarket.model", "qbmarket.market", "qbmarket.calibrate", "qbmarket.dynamics.moments",
              "qbmarket.dynamics.montecarlo", "qbmarket.dynamics.phasespace", "qbmarket._g17",
              "qbmarket._decimals")
    SCRIPT = """
import importlib, json, sys

loaded = {}
def note(step):
    loaded[step] = [m for m in sys.argv[2:] if m in sys.modules]

import qbmarket
note("import qbmarket")
from qbmarket.cli import main
from qbmarket.errors import NumericalError
try:
    main(["--version"])
except SystemExit:
    pass
note("--version")
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        importlib.import_module(step)
        note("import " + step)
        continue
    if isinstance(step, dict):  # {"read": "module.name"}: a name the module must not have
        module, _, name = step["read"].rpartition(".")
        assert not hasattr(importlib.import_module(module), name)
        note("read " + step["read"])
        continue
    try:
        code = main(step)
    except SystemExit as exc:  # --help
        code = exc.code
    note(" ".join(step[:3]) + " -> exit %d" % code)
print(json.dumps(loaded))
"""

    def probe(self, tmp_path, steps, watched, code=0):
        """Run the steps; what each loaded of ``watched``, keyed by step, after
        checking that every command exited with ``code``."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(steps), *watched],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        ran = ["import qbmarket", "--version"]
        ran += ["import " + s if isinstance(s, str) else "read " + s["read"] if isinstance(s, dict)
                else " ".join(s[:3]) + f" -> exit {code}" for s in steps]
        assert list(loaded) == ran, proc.stderr
        return loaded

    def assert_only_control_loads_scipy(self, loaded):
        # the last step imports scipy.ndimage, so the probe is seen to work
        assert "scipy.ndimage" in loaded.pop("import scipy.ndimage")
        assert loaded == {step: [] for step in loaded}

    def test_numpy_only_commands_load_no_scipy_submodule(self, tmp_path):
        taus = np.arange(5, 205, 5)
        (tmp_path / "k.csv").write_text(
            "tau,kurtosis\n" + "\n".join(f"{t},{197.0 * math.exp(-0.01 * t):.17g}" for t in taus) + "\n"
        )
        lags = np.arange(0, 481, 5)
        acf = acf_model(NonMarkovParams(xi=5.48e-4, eta=5.56e-3, omega=0.026), lags.astype(float))
        (tmp_path / "a.csv").write_text("lag,acf\n" + "\n".join(f"{l},{v:.17g}" for l, v in zip(lags, acf)) + "\n")
        steps = [
            ["eval", "--formula", "variance", "--M", "10", "--gamma", "1e3", "--kT", "0.1", "--hbar", "0.01",
             "--sx2-0", "1e-7", "--start", "0", "--end", "1", "--points", "5", "--out", "v.csv"],
            ["synth", "--kind", "gbm", "--n", "600", "--seed", "1", "--out", "p.csv"],
            ["analyze", "--input", "p.csv", "--taus", "1:3:1", "--max-lag", "5", "--out-prefix", "run"],
            ["fit", "--kind", "kurtosis", "--input", "k.csv", "--out", "k.json"],
            ["simulate", "--mode", "sde", "--x2", "1", "--t-end", "0.1", "--points", "3", "--n-paths", "1000",
             "--dt", "0.01", "--seed", "1", "--out-prefix", "sde"],
            ["synth", "--kind", "colored", "--n", "4000", "--xi", "5e-4", "--eta", "5e-3", "--omega", "0.02",
             "--seed", "1", "--out", "c.csv"],
            ["fit", "--kind", "acf", "--input", "a.csv", "--out", "a.json"],
            ["simulate", "--mode", "pde", "--x2", "1", "--p2", "1", "--nx", "16", "--np", "16", "--t-end", "0.01",
             "--points", "3", "--out-prefix", "pde"],
            "scipy.ndimage",
        ]
        self.assert_only_control_loads_scipy(self.probe(tmp_path, steps, self.SCIPY_ON_DEMAND))

    def test_moments_load_no_scipy_submodule(self, tmp_path):
        # every kernel is propagated exactly by numpy; step names are their
        # first three tokens, so the flags are ordered to differ
        common = ["--x2", "1", "--t-end", "1", "--points", "3", "--out-prefix", "m"]
        steps = [
            ["simulate", "--mode", "moments", *common],
            ["simulate", "--kernel", "non-markov", "--mode", "moments", "--xi", "0", "--eta", "1", "--omega", "1",
             *common],
            ["simulate", "--xi", "0.1", "--mode", "moments", "--kernel", "non-markov", "--eta", "1", "--omega", "1",
             *common],
            ["simulate", "--mode", "pde", "--p2", "1", "--nx", "16", "--np", "16", "--x2", "1", "--t-end", "0.01",
             "--points", "3", "--out-prefix", "p"],
            "scipy.ndimage",
        ]
        watched = (*self.SCIPY_ON_DEMAND, "scipy.linalg")
        self.assert_only_control_loads_scipy(self.probe(tmp_path, steps, watched))

    def test_statistics_and_acf_fit_load_no_numpy_ma(self, tmp_path):
        # np.percentile and np.median import numpy.ma; analyze's quartiles and
        # the fit's periodogram median come from np.partition instead
        steps = [
            ["synth", "--kind", "colored", "--n", "4000", "--xi", "5e-4", "--eta", "5e-3", "--omega", "0.02",
             "--seed", "1", "--out", "c.csv"],
            ["analyze", "--input", "c.csv", "--taus", "5:100:5", "--max-lag", "120", "--out-prefix", "run"],
            ["fit", "--kind", "acf", "--input", "run.acf.csv", "--out", "a.json"],
            "numpy.ma",
        ]
        loaded = self.probe(tmp_path, steps, ["numpy.ma"])
        assert loaded.pop("import numpy.ma") == ["numpy.ma"]
        assert loaded == {step: [] for step in loaded}

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        ([], 1),
        (["eval", "--formula", "nope"], 1),
        (["simulate", "--mode", "moments", "--x2", "1", "--t-end", "0", "--out-prefix", "m"], 1),
        (["eval", "--formula", "classical", "--start", "2", "--end", "1", "--out", "e.csv"], 1),
        (["analyze", "--input", "p.csv", "--bins", "0", "--out-prefix", "run"], 1),
    ], ids=["help", "no-command", "usage-error", "simulate-t-end", "eval-range", "analyze-bins"])
    def test_startup_loads_no_numpy_and_no_layer(self, tmp_path, argv, code):
        # the probe's own `import qbmarket` and `--version` steps are checked too;
        # the last three are usage errors the command finds, not argparse;
        # none of them hashes, so none loads OpenSSL (`_hashlib`)
        loaded = self.probe(tmp_path, [argv], (*self.LAYERS, "_hashlib"), code)
        assert loaded == {step: [] for step in loaded}

    def test_unknown_name_loads_nothing(self, tmp_path):
        # cli's __getattr__ bound every layer in turn before it raised
        steps = [{"read": f"{module}.no_such_name"} for module in ("qbmarket.cli", "qbmarket", "qbmarket.dynamics")]
        loaded = self.probe(tmp_path, steps, self.LAYERS)
        assert loaded == {step: [] for step in loaded}

    SIM = ["--x2", "1", "--p2", "1", "--t-end", "0.01", "--points", "3"]

    @pytest.mark.parametrize("argv, layers", [
        (["eval", "--formula", "classical", "--start", "0", "--end", "1", "--out", "e.csv"], ["model"]),
        (["simulate", "--mode", "moments", *SIM, "--out-prefix", "m"], ["model", "dynamics.moments"]),
        (["simulate", "--mode", "sde", *SIM, "--n-paths", "1000", "--seed", "1", "--out-prefix", "s"],
         ["model", "dynamics.moments", "dynamics.montecarlo"]),
        (["simulate", "--mode", "pde", *SIM, "--nx", "16", "--np", "16", "--out-prefix", "p"],
         ["model", "dynamics.moments", "dynamics.phasespace"]),
        (["synth", "--kind", "gbm", "--n", "600", "--seed", "1", "--out", "g.csv"], ["model", "market"]),
        # a table with a full block is the only one the CSV writer's kernel writes
        (["synth", "--n", "4096", "--kind", "gbm", "--seed", "1", "--out", "b.csv"], ["model", "market", "_g17"]),
        # the price reader's kernel reads each block's closes
        (["analyze", "--input", "prices.csv", "--taus", "1:3:1", "--max-lag", "5", "--out-prefix", "run"],
         ["model", "market", "_decimals"]),
        (["fit", "--kind", "kurtosis", "--input", "k.csv", "--out", "k.json"], ["model", "market", "calibrate"]),
    ], ids=["eval", "moments", "sde", "pde", "synth", "synth-full-block", "analyze", "fit"])
    def test_each_command_loads_only_its_layers(self, tmp_path, argv, layers):
        assert run(["synth", "--kind", "gbm", "--n", 600, "--seed", 1, "--out", tmp_path / "prices.csv"]) == 0
        (tmp_path / "k.csv").write_text("tau,kurtosis\n" + "".join(f"{t},{197 * math.exp(-0.01 * t)!r}\n"
                                                                    for t in range(5, 205, 5)))
        loaded = self.probe(tmp_path, [argv], self.LAYERS)
        assert loaded.pop(" ".join(argv[:3]) + " -> exit 0") == ["numpy", *(f"qbmarket.{m}" for m in layers)]
        assert loaded == {"import qbmarket": [], "--version": []}

    def test_config_digests_load_no_openssl(self, tmp_path):
        # eval and simulate digest only their config, which CPython's own
        # SHA-256 does; analyze digests its input with OpenSSL's (`_hashlib`),
        # so the probe is seen to work
        assert run(["synth", "--kind", "gbm", "--n", 600, "--seed", 1, "--out", tmp_path / "prices.csv"]) == 0
        steps = [
            ["eval", "--formula", "classical", "--start", "0", "--end", "1", "--out", "e.csv"],
            ["simulate", "--mode", "moments", *self.SIM, "--out-prefix", "m"],
            ["simulate", "--mode", "pde", *self.SIM, "--nx", "32", "--np", "32", "--out-prefix", "p"],
            ["analyze", "--input", "prices.csv", "--taus", "1:3:1", "--max-lag", "5", "--out-prefix", "run"],
        ]
        loaded = self.probe(tmp_path, steps, ["_hashlib"])
        assert loaded.pop("analyze --input prices.csv -> exit 0") == ["_hashlib"]
        assert loaded == {step: [] for step in loaded}

    def test_startup_loads_no_thread_pool(self, tmp_path):
        # the sde ensemble ran its blocks on a thread pool; its blocks now run one after another
        step = ["simulate", "--mode", "sde", "--x2", "1", "--t-end", "0.1", "--points", "3", "--n-paths", "1000",
                "--seed", "1", "--out-prefix", "sde"]
        assert self.probe(tmp_path, [step], ["concurrent.futures"]) == {
            "import qbmarket": [],
            "--version": [],
            " ".join(step[:3]) + " -> exit 0": [],
        }

    def test_pde_loads_no_scipy_submodule(self, tmp_path):
        # the spline prefilter is a numpy matrix product and the p diffusion a
        # numpy transform, for the free particle and in the harmonic well
        common = ["--x2", "1", "--p2", "1", "--nx", "32", "--np", "24", "--t-end", "0.05", "--points", "3"]
        steps = [
            ["simulate", "--mode", "pde", *common, "--out-prefix", "free"],
            ["simulate", "--potential", "harmonic", "--mode", "pde", "--omega0", "1.5", *common,
             "--out-prefix", "well"],
            "scipy.ndimage",
        ]
        watched = (*self.SCIPY_ON_DEMAND, "scipy.linalg", "scipy.fft", "scipy.sparse")
        self.assert_only_control_loads_scipy(self.probe(tmp_path, steps, watched))

    def test_no_module_imports_scipy(self):
        package = Path(cli.__file__).parent
        modules = sorted(package.rglob("*.py"))
        assert len(modules) >= 9
        found = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.relative_to(package)}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
        assert found == []

    def test_lazy_tables_name_real_modules_and_objects(self):
        # the layers are imported by name, so the scipy walk above sees their own
        # imports but not which modules the tables name: check those here
        package = Path(cli.__file__).parent
        calls = {}  # each import_module call, and whether it is inside _lazy
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            in_lazy = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_lazy"
                       for n in ast.walk(f)}
            calls.update({f"{path.relative_to(package)}:{node.lineno}": id(node) in in_lazy for node in ast.walk(tree)
                          if "import_module" in (getattr(node, "attr", None), getattr(node, "id", None))})
        assert list(calls.values()) == [True], calls
        for module in (importlib.import_module(m) for m in ("qbmarket", "qbmarket.dynamics", "qbmarket.cli")):
            for home in module._HOMES:
                assert home.startswith("."), (module.__name__, home)
                relative = importlib.util.resolve_name(home, module.__package__).split(".")[1:]
                assert package.joinpath(*relative).with_suffix(".py").is_file(), (module.__name__, home)
        cli._bind(*cli._HOMES)
        moved = [(home, name) for home, names in cli._HOMES.items() for name in names
                 if vars(cli)[name] is not getattr(importlib.import_module(home, "qbmarket"), name)]
        assert moved == []


class TestHelp:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("eval", "simulate", "analyze", "fit", "synth"):
            assert cmd in text

    def test_subcommand_help_lists_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "1/minute" in text or "minutes" in text
