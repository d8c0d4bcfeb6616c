import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wedgeflow
from wedgeflow import cli, diagnostics, elliptic, gas, pattern, shocks, unsteady
from wedgeflow.cli import ConfigError, dispatch, parse_config
from wedgeflow.unsteady import UnsteadyConfig

CASE12 = "gamma = 1.4\nM_I = 2.94\ntau_deg = 10\nepsilon = 0.01\n"
UNPERT = "gamma = 1.0\nM_I_y = -2.0\nepsilon = 0.04\nlattice_n = 32\n"
# every exception class the package defines, the WedgeError base included
MODULES = (gas, shocks, pattern, unsteady, elliptic, diagnostics, cli)
PACKAGE_ERRORS = sorted(
    {
        obj
        for mod in MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
    },
    key=lambda c: c.__name__,
)


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config(text="")
        assert cfg.gamma == 1.4
        assert cfg.M_I is None
        # commands needing a problem definition reject the bare defaults
        with pytest.raises(ConfigError):
            cfg.problem()

    def test_case12_keys(self):
        cfg = parse_config(text=CASE12)
        assert cfg.gamma == 1.4
        assert cfg.M_I == 2.94
        assert cfg.tau == pytest.approx(math.radians(10.0))
        p = cfg.problem()
        assert p.M_I == 2.94

    def test_comments_and_whitespace(self):
        cfg = parse_config(text="# comment\n  gamma = 1.4   # trailing\n\nM_I_y = -2\n")
        assert cfg.M_I_y == -2.0

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(text="M_I_y = -2\nepsilon = -0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text="gamme = 1.4\n")

    @pytest.mark.parametrize("key", ["tol_inner", "omega_relax"])
    def test_split_iteration_knobs_are_unknown_keys(self, key):
        with pytest.raises(ConfigError, match=f"unknown key: {key}"):
            parse_config(text=f"M_I_y = -2\n{key} = 0.5\n")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(text="gamma = fast\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(path="/nonexistent/wedge.cfg")

    def test_missing_tau(self):
        with pytest.raises(ConfigError, match="tau_deg"):
            parse_config(text="M_I = 2.0\n")

    @pytest.mark.parametrize(
        "line", ["grid_n = 0", "grid_n = 3", "sample_nx = 1", "snapshot_every = -1"]
    )
    def test_integer_knob_ranges(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(text=CASE12 + line + "\n")

    def test_eps_list(self):
        cfg = parse_config(text="M_I_y = -2\neps_list = 0.04, 0.01\nlattice_list = 24 32\n")
        assert cfg.eps_list == (0.04, 0.01)
        assert cfg.lattice_list == (24, 32)


class TestDispatch:
    def _cfg_file(self, tmp_path, text):
        f = tmp_path / "wedge.cfg"
        f.write_text(text)
        return str(f)

    def test_command_required(self):
        with pytest.raises(SystemExit) as exc:
            dispatch([])
        assert exc.value.code == 2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        code = dispatch(
            ["pattern", "--config", self._cfg_file(tmp_path, "epsilon = -0.1\n"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_polar_case12(self, tmp_path, capsys):
        code = dispatch(
            ["polar", "--config", self._cfg_file(tmp_path, CASE12 + "polar_n = 101\n"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        outtxt = capsys.readouterr().out
        assert "weak" in outtxt and "tau*" in outtxt
        lines = (tmp_path / "polar.csv").read_text().splitlines()
        assert lines[0] == "beta,vx_d,vy_d,rho_d,c_d,L_d"
        assert len(lines) == 102

    def test_polar_requires_wedge_pair(self, tmp_path, capsys):
        code = dispatch(
            ["polar", "--config", self._cfg_file(tmp_path, "M_I_y = -2\n"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "M_I" in capsys.readouterr().err

    def test_simulate_requires_wedge_pair(self, tmp_path, capsys):
        code = dispatch(
            ["simulate", "--config", self._cfg_file(tmp_path, "M_I_y = -2\n"),
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_pattern_gamma_5(self, tmp_path, capsys):
        # gamma = 5 is above 4.22, where g(1e-250) overflows
        code = dispatch(
            ["pattern", "--config", self._cfg_file(tmp_path, CASE12 + "gamma = 5\n"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "separation" in capsys.readouterr().out

    def test_pattern_command(self, tmp_path, capsys):
        code = dispatch(
            ["pattern", "--config", self._cfg_file(tmp_path, CASE12), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "pattern.csv").exists()
        assert "separation" in capsys.readouterr().out

    def test_pattern_unperturbed_prints_no_inf(self, tmp_path, capsys):
        # an M_I_y pattern without eta_L_star has its tip at -infinity and
        # no tip-frame Mach numbers
        cfgtext = "gamma = 1.4\nM_I_y = -2\nepsilon = 0.04\n"
        code = dispatch(
            ["pattern", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "separation" in out
        assert "inf" not in out

    def test_elliptic_above_critical_exit_1(self, tmp_path, capsys):
        # the potential-flow critical angle at M_I = 2.94 is about 56.1 degrees
        cfgtext = "gamma = 1.4\nM_I = 2.94\ntau_deg = 60\nepsilon = 0.01\nlattice_n = 16\n"
        code = dispatch(
            ["elliptic", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "NoAttachedShock" in capsys.readouterr().err

    def test_verify_unperturbed_all_pass(self, tmp_path, capsys):
        code = dispatch(
            ["verify", "--config", self._cfg_file(tmp_path, UNPERT + "quad_n = 96\n"),
             "--out", str(tmp_path), "--strict"]
        )
        assert code == 0
        outtxt = capsys.readouterr().out
        assert "FAIL" not in outtxt
        assert (tmp_path / "verify_report.csv").exists()

    def test_verify_slow_contraction_case_all_pass(self, tmp_path, capsys):
        # the slow corner of the split iteration: plain relaxation at weight
        # 0.5 drifted here until max_outer and exited 1
        cfgtext = "gamma = 1.4\nM_I = 2.2\ntau_deg = 5\nepsilon = 0.04\nlattice_n = 48\n"
        code = dispatch(
            ["verify", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path),
             "--strict"]
        )
        assert code == 0
        out = capsys.readouterr().out
        checks = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert checks and all(ln.startswith("PASS") for ln in checks)
        with open(tmp_path / "verify_report.csv", newline="") as fh:
            verdicts = [row["verdict"] for row in csv.DictReader(fh)]
        assert len(verdicts) == len(checks) and set(verdicts) == {"PASS"}

    def test_elliptic_unperturbed(self, tmp_path, capsys):
        code = dispatch(
            ["elliptic", "--config", self._cfg_file(tmp_path, UNPERT), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "solution_nodes.csv").exists()
        assert (tmp_path / "residual_history.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfgfile = self._cfg_file(tmp_path, UNPERT + "quad_n = 64\nseed = 7\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert dispatch(["elliptic", "--config", cfgfile, "--out", str(d)]) == 0
        for name in ("solution_nodes.csv", "solution_shock.csv", "residual_history.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_simulate_deterministic_outputs(self, tmp_path):
        cfgfile = self._cfg_file(tmp_path, CASE12 + "grid_n = 60\nsample_nx = 60\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert dispatch(["simulate", "--config", cfgfile, "--out", str(d)]) == 0
        for name in ("field_final.raw", "field_final.csv", "probes.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def _record_pool_sizes(self, monkeypatch):
        """The max_workers of every pool the sweep starts, in order."""
        sizes = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return sizes

    def test_sweep_single_worker(self, tmp_path, capsys, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        cfgtext = UNPERT + "eps_list = 0.04, 0.02\nlattice_list = 24\nquad_n = 64\n"
        code = dispatch(
            ["sweep", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        )
        assert code == 0
        assert sizes == [1]
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "slope" in capsys.readouterr().out

    def test_sweep_takes_no_more_workers_than_jobs(self, tmp_path, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        cfgtext = UNPERT + "eps_list = 0.04\nlattice_list = 16\n"
        assert dispatch(
            ["sweep", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        ) == 0
        assert sizes == [1]

    def test_usable_cpus_counts_the_affinity_set(self, monkeypatch):
        # a process restricted to some CPUs (taskset -c 0,3,5) runs that many
        # workers; without an affinity call, every CPU counts
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert cli._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._usable_cpus() == 7

    def test_sweep_two_workers_match_one(self, tmp_path, monkeypatch):
        # the pool takes the larger lattice first; the files and the summary
        # rows (eps_list x lattice_list order) do not depend on the workers
        sizes = self._record_pool_sizes(monkeypatch)
        cfgfile = self._cfg_file(
            tmp_path, UNPERT + "eps_list = 0.04, 0.02\nlattice_list = 16, 24\nquad_n = 64\n"
        )
        outs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda n=cpus: n)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert dispatch(["sweep", "--config", cfgfile, "--out", str(outs[cpus])]) == 0
        assert sizes == [1, 2]
        names = sorted(p.name for p in outs[1].iterdir())
        assert len(names) == 4 * 3 + 1
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        with open(outs[2] / "sweep_summary.csv", newline="") as fh:
            keys = [(row["epsilon"], row["lattice"]) for row in csv.DictReader(fh)]
        assert keys == [("0.04", "16"), ("0.04", "24"), ("0.02", "16"), ("0.02", "24")]

    def test_sweep_worker_death_exit_1(self, tmp_path, monkeypatch, capfd):
        # one worker takes the jobs largest lattice first: both lattice-24
        # jobs return before the first lattice-16 job kills it, and the two
        # lattice-16 jobs are lost with the pool
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(cli, "_sweep_job", _sweep_job_dying_on_lattice_16)
        cfgfile = self._cfg_file(tmp_path, UNPERT + "eps_list = 0.04, 0.02\nlattice_list = 16, 24\n")
        assert dispatch(["sweep", "--config", cfgfile, "--out", str(tmp_path)]) == 1
        out, err = capfd.readouterr()
        assert err == (
            "solver failure (WorkerLost): a sweep worker died; jobs in flight: "
            "(eps=0.04, lattice=16), (eps=0.02, lattice=16)\n"
        )
        assert out == ""
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_polar_above_critical_angle(self, tmp_path, capsys):
        cfgtext = "gamma = 1.4\nM_I = 1.5\ntau_deg = 20\npolar_n = 11\n"
        code = dispatch(
            ["polar", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("tau=20.0000deg above critical tau*=")
        assert out.endswith("deg: no attached shock\n")
        assert (tmp_path / "polar_summary.txt").read_text() == out
        assert len((tmp_path / "polar.csv").read_text().splitlines()) == 12

    @pytest.mark.parametrize("strict, code", [(True, 3), (False, 0)])
    def test_verify_fail_exit_3_only_under_strict(self, strict, code, tmp_path, monkeypatch, capsys):
        density_extrema = diagnostics.density_extrema

        def one_fail(sol):
            first, *rest = density_extrema(sol)
            return [dataclasses.replace(first, passed=False), *rest]

        monkeypatch.setattr(diagnostics, "density_extrema", one_fail)
        argv = ["verify", "--config", self._cfg_file(tmp_path, UNPERT), "--out", str(tmp_path)]
        assert dispatch(argv + ["--strict"] * strict) == code
        out = capsys.readouterr().out
        fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1
        with open(tmp_path / "verify_report.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["verdict"] == "FAIL"]
        assert len(rows) == 1 and fails[0].startswith(f"FAIL {rows[0]['name']}: ")


def _sweep_job_dying_on_lattice_16(args):
    """A sweep job that ends its worker process on lattice 16, as the kernel's
    out-of-memory killer would, and returns a made-up row on any other."""
    _, eps, lattice, _ = args
    if lattice == 16:
        os._exit(1)
    return (eps, lattice, True, 0.0, 0.0, 0.0, 1.0)


class TestErrorContract:
    def test_every_package_error_derives_from_wedge_error(self):
        assert len(PACKAGE_ERRORS) == 16
        for exc_type in PACKAGE_ERRORS:
            assert issubclass(exc_type, wedgeflow.WedgeError)

    @pytest.mark.parametrize("exc_type", PACKAGE_ERRORS, ids=lambda c: c.__name__)
    def test_dispatch_exit_code_and_one_line(self, exc_type, tmp_path, monkeypatch, capsys):
        def stub(cfg, out, strict):
            raise exc_type("first line\n  second line")

        monkeypatch.setitem(cli.COMMANDS, "pattern", stub)
        code = dispatch(["pattern", "--out", str(tmp_path)])
        assert code == (2 if exc_type is ConfigError else 1)
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "first line second line" in err

    def test_coarse_simulate_exit_1(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "grid_n = 40\nt_final = 0.05\n")
        code = dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ShockFitError" in err

    @pytest.mark.filterwarnings("error")
    def test_empty_sampling_window_exit_2_before_the_march(self, tmp_path, monkeypatch, capsys):
        # the xi window stays 1.5 cells at t_final / 2 inside the box; a box
        # 0.3 high with h = 0.135 leaves it no row, so the defect has no point.
        # The config alone fixes that, so no step runs
        def refuse(*args, **kwargs):
            raise AssertionError("the march ran")

        monkeypatch.setattr(unsteady, "step", refuse)
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "grid_n = 40\nbox_y_max = 0.3\nt_final = 0.2\n")
        assert dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: grid_n = 40, ")
        assert "box_y_max = 0.3" in err[0] and "t_final = 0.2" in err[0]
        assert "share no valid point in the xi window" in err[0]

    def test_march_without_end_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        # about 4.5e7 steps (some 2 h): c_I t_final is about 1e6 box widths
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran past its step-count check")

        monkeypatch.setattr(unsteady, "run", refuse)
        f = tmp_path / "wedge.cfg"
        f.write_text("gamma = 1.4\nM_I = 10\ntau_deg = 10\nc_I = 1e6\ngrid_n = 8\nt_final = 1\n")
        start = time.perf_counter()
        assert dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        for key in ("grid_n = 8", "cfl = 0.45", "t_final = 1.0", "M_I = 10.0", "c_I = 1000000.0"):
            assert key in err[0]
        assert f"more than {cli.MAX_MARCH_STEPS}" in err[0]

    def test_min_march_steps_bounds_the_desk_march(self):
        # 813 at grid_n 400 against the 917 steps the march takes
        cfg = parse_config(text=CASE12 + "grid_n = 400\n")
        ucfg = UnsteadyConfig(problem=cfg.problem(), grid_n=400)
        assert unsteady.min_march_steps(ucfg) == 813

    def test_coarse_simulate_leaves_all_files(self, tmp_path):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "grid_n = 40\nt_final = 0.05\n")
        assert dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)]) == 1
        for name in ("field_final.csv", "field_final.raw", "probes.csv"):
            assert (tmp_path / name).exists(), name
        assert (tmp_path / "probes.csv").read_text().startswith("region,x,y,")

    @pytest.mark.parametrize(
        "command, lines, key",
        [
            # the knobs of the former split iteration are unknown keys
            ("elliptic", "tol_inner = 0", "tol_inner"),
            ("elliptic", "omega_relax = 0.5", "unknown key: omega_relax"),
            ("elliptic", "max_outer = 0", "max_outer"),
            ("verify", "quad_n = 1", "quad_n"),
            ("elliptic", "lattice_n = 2", "lattice_n"),
            ("sweep", "lattice_list = 48, 2", "lattice_list"),
            ("simulate", "grid_n = 40\nbox_y_max = 0.01", "box_y_max"),
            ("simulate", "box_x_max = -1", "box_x_max"),
            ("elliptic", "epsilon = 0", "epsilon"),
            ("verify", "epsilon = 0", "epsilon"),
            ("sweep", "eps_list = 0.04 0", "eps_list"),
            ("sweep", "eps_list = 0.5", "eps_list"),
            # a sweep needs at least one eps and one lattice, none repeated
            ("sweep", "eps_list =", "eps_list"),
            ("sweep", "lattice_list =", "lattice_list"),
            ("sweep", "eps_list = 0.04, 0.04", "eps_list"),
            ("sweep", "lattice_list = 48, 48", "lattice_list"),
            ("polar", "polar_n = 0", "polar_n"),
            ("polar", "polar_n = 1", "polar_n"),
            # tau_deg is the one angle key; any other *_deg key and a bare tau are unknown
            ("simulate", "grid_n_deg = 400", "grid_n_deg"),
            ("elliptic", "lattice_n_deg = 3000", "lattice_n_deg"),
            ("simulate", "cfl_deg = 20", "cfl_deg"),
            ("pattern", "tau = 0.17", "unknown key: tau"),
            # the upstream state comes from M_I_y or from the wedge pair, not both
            ("pattern", "M_I_y = -2.0", "M_I_y and the wedge pair (M_I, tau_deg)"),
            # eta_L_star must be positive; its upper end eta_R* is computed (exit 1)
            ("pattern", "eta_L_star = 0", "eta_L_star = 0.0 must be positive"),
            ("pattern", "eta_L_star = -0.1", "eta_L_star = -0.1 must be positive"),
            # about 38 GB per field array: refused before any grid-sized allocation
            ("simulate", "grid_n = 100000", "grid_n = 100000"),
            # terabytes of lattice arrays (elliptic.lattice_bytes): refused before the solve
            ("elliptic", "lattice_n = 100000", "lattice_n"),
            ("sweep", "lattice_list = 48, 100000", "lattice_list"),
            # every float value must be finite: an infinite t_final never ends
            # the march, a NaN box height has no row count, and a NaN or infinite
            # upstream state reaches the shock solves
            ("simulate", "t_final = inf", "t_final = inf is not finite"),
            ("pattern", "box_y_max = nan", "box_y_max = nan is not finite"),
            ("pattern", "box_y_max = inf", "box_y_max = inf is not finite"),
            ("pattern", "M_I = nan", "M_I = nan is not finite"),
            ("pattern", "M_I = inf", "M_I = inf is not finite"),
            ("pattern", "c_I = inf", "c_I = inf is not finite"),
            ("pattern", "rho_I = inf", "rho_I = inf is not finite"),
            ("pattern", "tau_deg = nan", "tau_deg = nan is not finite"),
            # the wedge pair and the wall-normal Mach number have open ranges
            ("pattern", "tau_deg = 0", "tau_deg = 0.0 out of range (0, 90)"),
            ("pattern", "tau_deg = 90", "tau_deg = 90.0 out of range (0, 90)"),
            ("pattern", "M_I = 1", "M_I = 1.0 must exceed 1"),
            ("pattern", "M_I_y = 0", "M_I_y = 0.0 must be negative"),
            # CASE12 is four lines long
            ("pattern", "gamma 1.4", "line 5: expected 'key = value', got 'gamma 1.4'"),
        ],
    )
    def test_config_range_exit_2(self, command, lines, key, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + lines + "\n")
        code = dispatch([command, "--config", str(f), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err

    @pytest.mark.parametrize(
        "command, line, key",
        [
            # about 63 TB of samples (unsteady.sample_bytes)
            ("simulate", "sample_nx = 1000000", "sample_nx = 1000000"),
            # about 360 TB of polar samples (shocks.polar_bytes)
            ("polar", "polar_n = 1000000000000", "polar_n = 1000000000000"),
        ],
    )
    def test_memory_preflight_exit_2_before_any_work(
        self, command, line, key, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran past its memory preflight")

        monkeypatch.setattr(unsteady, "run", refuse)
        monkeypatch.setattr(cli, "shock_polar", refuse)
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + line + "\n")
        assert dispatch([command, "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err and "physical memory" in err

    def test_memory_preflight_sums_the_march_and_its_samplings(self, tmp_path, monkeypatch, capsys):
        # run holds its first sampling while it marches on: each part fits
        # the patched memory alone, their sum does not
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran past its memory preflight")

        text = CASE12 + "grid_n = 60\nsample_nx = 2000\n"
        cfg = parse_config(text=text)
        ucfg = UnsteadyConfig(problem=cfg.problem(), grid_n=60, sample_nx=2000)
        march, sample = unsteady.march_bytes(ucfg), unsteady.sample_bytes(ucfg)
        have = max(march, sample) + min(march, sample) // 2
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(unsteady, "run", refuse)
        f = tmp_path / "wedge.cfg"
        f.write_text(text)
        assert dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "grid_n = 60, sample_nx = 2000" in err[0] and "physical memory" in err[0]

    @pytest.mark.parametrize("command", ["pattern", "simulate"])
    def test_eta_L_star_with_the_wedge_pair_exit_2_before_any_work(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # the wedge pair fixes the L shock as its tip shock; eta_L_star would
        # pick another member and so another wedge
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran past its config check")

        monkeypatch.setattr(cli, "build", refuse)
        monkeypatch.setattr(unsteady, "run", refuse)
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "eta_L_star = 0.1\n")
        assert dispatch([command, "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: eta_L_star and the wedge pair (M_I, tau_deg) both given; eta_L_star goes with M_I_y"
        ]

    @pytest.mark.parametrize(
        "command, text",
        [
            # the R shock's jump^2 overflows in the family root
            ("pattern", "gamma = 1.4\nM_I_y = -1e200\n"),
            ("pattern", "gamma = 1.4\nM_I = 1e200\ntau_deg = 10\n"),
            # the steady polar's normal shock overflows before any sample
            ("polar", "gamma = 1.4\nM_I = 1e200\ntau_deg = 10\npolar_n = 3\n"),
        ],
    )
    def test_shock_overflow_exit_1(self, command, text, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(text)
        assert dispatch([command, "--config", str(f), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "ShockSolveError" in err[0] and "overflows" in err[0]

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_wall_normal_mach_exit_2(self, value, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(UNPERT + f"M_I_y = {value}\n")
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: M_I_y = {value} is not finite"]

    @pytest.mark.parametrize(
        "command, lines, name",
        [
            # above the critical angle of M_I = 2.94 at gamma = 10
            ("pattern", "gamma = 10", "NoAttachedShock"),
            # below the 4.19 degree critical angle: the pattern builds, though
            # its corner chord cuts the upstream sonic disc, and Newton diverges
            ("elliptic", "M_I = 1.2\ntau_deg = 3", "InnerSolveError"),
            # the first Newton step from the chord shock reaches vacuum at
            # two shock nodes
            ("elliptic", "M_I = 2.5\ntau_deg = 39\nlattice_n = 8", "InnerSolveError"),
            # the weak tip shock's tilt is below rounding level: no wedge tip
            ("pattern", "M_I = 1e4", "GeometryError"),
        ],
    )
    def test_solver_failure_exit_1(self, command, lines, name, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + lines + "\n")
        code = dispatch([command, "--config", str(f), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert name in err

    @pytest.mark.parametrize(
        "lines",
        [
            "M_I = 1e4",
            "gamma = 1.0\nM_I = 10\ntau_deg = 10",
            "gamma = 1.0\nM_I = 10\ntau_deg = 40",
            # 6.5e-197 rad from the normal shock
            "gamma = 1.0\nM_I = 30\ntau_deg = 10",
        ],
    )
    def test_polar_at_the_normal_shock_limit_exit_0(self, lines, tmp_path, capsys):
        # the strong steady root lies within 1e-15 rad of the normal shock;
        # its bracket ends at the normal shock, which does not turn the flow
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + lines + "\n")
        assert dispatch(["polar", "--config", str(f), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "strong M_d=0.0000 (subsonic)" in out
        assert (tmp_path / "polar_summary.txt").read_text() == out

    def test_pattern_at_gamma_1_needs_only_the_weak_root(self, tmp_path, capsys):
        # at gamma 1 and M_I 10 the strong steady root lies within 1e-15 rad of
        # the normal shock, out of reach of its bracket; the pattern never asks
        # for it
        f = tmp_path / "wedge.cfg"
        f.write_text("gamma = 1.0\nM_I = 10\ntau_deg = 10\nepsilon = 0.01\n")
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 0
        assert "M_L=" in capsys.readouterr().out

    def test_l_corner_above_r_shock_exit_1(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(UNPERT + "eta_L_star = 5\n")
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "GeometryError" in err

    def test_isothermal_r_shock_underflow_exit_1(self, tmp_path, capsys):
        # at gamma 1 and M_I_y -40 the R shock's L_dn, about 40 e^-800, underflows
        f = tmp_path / "wedge.cfg"
        f.write_text("gamma = 1\nM_I_y = -40\nepsilon = 0.01\n")
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "ShockSolveError" in err

    @pytest.mark.parametrize("miy", ["-7", "-8", "-10"])
    def test_fast_isothermal_r_shock_height_exit_0(self, miy, tmp_path, capsys):
        # at gamma 1 the R shock all but stops a flow this fast: its height
        # c_d L_dn is 1.6e-10 at -7 and 1.9e-21 at -10 of c_I
        f = tmp_path / "wedge.cfg"
        f.write_text(f"gamma = 1\nM_I_y = {miy}\nepsilon = 0.01\n")
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        assert float(out.split("eta_R*=")[1].split()[0]) > 0.0
        with open(tmp_path / "pattern.csv", newline="") as fh:
            row = next(r for r in csv.reader(fh) if r[0] == "shock_R")
        _, ldn, c_ratio = shocks._ratios(1.0, shocks._family_ratio(1.0, -float(miy)))
        assert float(row[2]) == pytest.approx(c_ratio * ldn, rel=1e-13)

    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, out, strict):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "pattern", exhausted)
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12)
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["solver failure (MemoryError): out of memory"]

    def test_grid_n_zero_exit_2(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "grid_n = 0\n")
        code = dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "grid_n" in err

    def test_config_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["pattern", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: config file {tmp_path}: ")
        assert not out.exists()

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_bytes(CASE12.encode() + "# caf\u00e9\n".encode("latin-1"))
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: config file {f}: not UTF-8")

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12)
        assert dispatch(["pattern", "--config", str(f), "--out", str(f)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: --out {f}: ")

    def test_unwritable_output_file_exit_1(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12)
        (tmp_path / "pattern.csv").mkdir()
        assert dispatch(["pattern", "--config", str(f), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("output error (IsADirectoryError): ")
        assert str(tmp_path / "pattern.csv") in err[0]


def test_write_field_csv_matches_cell_loop(tmp_path):
    # more fluid cells than one 4096-cell block of the writer
    g = unsteady.Grid(x0=-0.5, spacing=0.01, nx=150, ny=40, tau=math.radians(10))
    rng = np.random.default_rng(3)
    state = unsteady.SimState(t=0.5, rho=rng.random((40, 150)), vx=rng.random((40, 150)),
                              vy=rng.standard_normal((40, 150)))
    cli.write_field_csv(g, state, tmp_path / "field.csv")
    x, y = g.centers()
    solid = g.solid_mask()
    with open(tmp_path / "loop.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", "rho", "vx", "vy"])
        for j in range(g.ny):
            for i in range(g.nx):
                if not solid[j, i]:
                    w.writerow([i, j, x[i], y[j], state.rho[j, i], state.vx[j, i], state.vy[j, i]])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_write_solution_csv_matches_node_loop(tmp_path):
    # the sigma and zeta columns pin the row-major node order (sigma fastest):
    # a zeta-major writer would swap them on every off-diagonal row
    pat = pattern.build(parse_config(text=CASE12).problem())
    sol = elliptic.iterate(pat, elliptic.EllipticConfig(lattice_n=16, max_outer=3))
    names = ("nodes", "shock", "history")
    cli.write_solution_csv(sol, *(tmp_path / f"{n}.csv" for n in names))
    m, f = sol.mapping, sol.fields()
    with open(tmp_path / "loop_nodes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "zeta", "xi", "eta", "psi", "rho", "vx", "vy", "L2"])
        nodes = m.lattice.nodes
        for j in range(nodes.size):
            for i in range(nodes.size):
                w.writerow([nodes[i], nodes[j], m.xi[j, i], m.eta[j, i], sol.psi[j, i],
                            f["rho"][j, i], f["vx"][j, i], f["vy"][j, i], f["L2"][j, i]])
    with open(tmp_path / "loop_shock.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "s", "normal_angle"])
        for i in range(nodes.size):
            # the downstream shock normal, -grad zeta
            w.writerow([m.xi[-1, i], m.eta[-1, i], math.atan2(-m.zet_y[-1, i], -m.zet_x[-1, i])])
    with open(tmp_path / "loop_history.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        keys = ["iter", "r_interior", "r_arcL", "r_arcR", "r_wall", "r_shock", "r_shock_update", "combined"]
        w.writerow(keys)
        for rec in sol.residual_history:
            w.writerow([rec[k] for k in keys])
    for n in names:
        assert (tmp_path / f"{n}.csv").read_bytes() == (tmp_path / f"loop_{n}.csv").read_bytes(), n


def test_node_writer_matches_write_rows(tmp_path):
    # the node file, written without csv.writer, against _write_rows on the
    # same lattice-16 solution
    pat = pattern.build(parse_config(text=CASE12).problem())
    sol = elliptic.iterate(pat, elliptic.EllipticConfig(lattice_n=16))
    cli.write_solution_csv(sol, *(tmp_path / f"{n}.csv" for n in ("nodes", "shock", "history")))
    m, f = sol.mapping, sol.fields()
    nodes = (m.lattice.S, m.lattice.Z, m.xi, m.eta, sol.psi, f["rho"], f["vx"], f["vy"], f["L2"])
    cli._write_rows(
        tmp_path / "oracle.csv",
        ["sigma", "zeta", "xi", "eta", "psi", "rho", "vx", "vy", "L2"],
        zip(*(a.ravel().tolist() for a in nodes)),
    )
    assert (tmp_path / "nodes.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.slow
class TestSimulateCommand:
    def test_simulate_small(self, tmp_path, capsys):
        cfgtext = CASE12 + "grid_n = 80\nt_final = 0.6\nsample_nx = 120\nsnapshot_every = 200\n"
        f = tmp_path / "wedge.cfg"
        f.write_text(cfgtext)
        code = dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tip angle" in out
        assert (tmp_path / "field_final.csv").exists()
        raw = (tmp_path / "field_final.raw").read_bytes()
        header, rest = raw.split(b"\n", 1)
        parts = header.split()
        assert parts[0] == b"WEDGE1"
        nx, ny = int(parts[1]), int(parts[2])
        assert len(rest) == 3 * nx * ny * 8
        arr = np.frombuffer(rest, dtype="<f8", count=nx * ny).reshape(ny, nx)
        assert arr.min() > 0.5  # densities


def test_simulate_snapshots(tmp_path, capsys):
    """Snapshots share field_final.csv's format, and writing them leaves
    every other output as it is."""
    outs = {}
    for every in (0, 50):
        outs[every] = tmp_path / f"every{every}"
        outs[every].mkdir()
        f = outs[every] / "wedge.cfg"
        f.write_text(CASE12 + f"grid_n = 60\nsample_nx = 60\nsnapshot_every = {every}\n")
        assert dispatch(["simulate", "--config", str(f), "--out", str(outs[every])]) == 0
    steps = int(capsys.readouterr().out.split("steps=")[-1].split()[0])
    snaps = sorted(outs[50].glob("snapshot_*.csv"))
    assert [p.name for p in snaps] == [f"snapshot_{k:04d}.csv" for k in range(1, steps // 50 + 1)]
    assert len(snaps) >= 2
    assert not list(outs[0].glob("snapshot_*"))
    final = (outs[50] / "field_final.csv").read_text().splitlines()
    for snap in snaps:
        lines = snap.read_text().splitlines()
        assert lines[0] == final[0] and len(lines) == len(final)
        # the same cells in the same order
        assert [ln.split(",", 4)[:4] for ln in lines] == [ln.split(",", 4)[:4] for ln in final]
    assert snaps[0].read_bytes() != (outs[50] / "field_final.csv").read_bytes()
    for name in ("field_final.csv", "field_final.raw", "probes.csv"):
        assert (outs[0] / name).read_bytes() == (outs[50] / name).read_bytes(), name


def test_light_commands_load_no_scipy(tmp_path):
    """polar, pattern and simulate import neither elliptic nor diagnostics,
    and so no scipy module."""
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text(CASE12 + "grid_n = 60\nsample_nx = 60\n")
    script = (
        "import sys\n"
        "import wedgeflow.cli as cli\n"
        "print('scipy: import', [m for m in sys.modules if m.startswith('scipy')])\n"
        "for cmd in ('polar', 'pattern', 'simulate'):\n"
        f"    code = cli.dispatch([cmd, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "    print('scipy:', cmd, code, [m for m in sys.modules if m.startswith('scipy')])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wedgeflow.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    lines = [ln for ln in run.stdout.splitlines() if ln.startswith("scipy:")]
    assert lines == [
        "scipy: import []",
        "scipy: polar 0 []",
        "scipy: pattern 0 []",
        "scipy: simulate 0 []",
    ]


# tiny problems and sizes: a run on in-range values takes milliseconds
IN_RANGE = {
    "M_I": st.floats(1.01, 8.0),
    "tau_deg": st.floats(0.5, 45.0),
    "M_I_y": st.floats(-6.0, -1.01),
    "eta_L_star": st.floats(0.05, 2.0),
    "gamma": st.floats(1.0, 3.0),
    "epsilon": st.floats(0.001, 0.25),
    "grid_n": st.integers(4, 24),
    "t_final": st.floats(0.001, 0.2),
    "cfl": st.floats(0.05, 0.9),
    "lattice_n": st.integers(8, 12),
    "max_outer": st.integers(1, 20),
    "polar_n": st.integers(2, 64),
}
OUT_OF_RANGE = {
    "M_I": st.floats(-3.0, 1.0),
    "tau_deg": st.floats(-10.0, 0.0) | st.floats(90.0, 400.0),
    "M_I_y": st.floats(0.0, 3.0),
    "eta_L_star": st.floats(-2.0, 0.0),
    "gamma": st.floats(-2.0, 0.99) | st.floats(10.01, 1e3),
    "epsilon": st.floats(-1.0, 0.0) | st.floats(0.26, 5.0),
    "grid_n": st.integers(-5, 3),
    "t_final": st.floats(-1.0, 0.0),
    "cfl": st.floats(-1.0, 0.0) | st.floats(1.0, 5.0),
    "lattice_n": st.integers(-3, 7),
    "max_outer": st.integers(-3, 0),
    "polar_n": st.integers(-3, 1),
}
NOT_A_VALUE = st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e", "2..5", "0x10", "1,5", "8.5", "None"])
PROBLEM_KEYS = ("M_I", "tau_deg", "M_I_y", "eta_L_star")
FUZZ_CONFIG = st.fixed_dictionaries(
    {
        # a wedge pair, or a family member with or without its L corner height
        "problem": st.fixed_dictionaries({k: IN_RANGE[k] for k in ("M_I", "tau_deg")})
        | st.fixed_dictionaries({"M_I_y": IN_RANGE["M_I_y"]}, optional={"eta_L_star": IN_RANGE["eta_L_star"]}),
        "numerics": st.fixed_dictionaries(
            {}, optional={k: v for k, v in IN_RANGE.items() if k not in PROBLEM_KEYS}
        ),
        # at most two values spoiled: out of range, not finite or malformed
        "spoiled": st.lists(
            st.sampled_from(sorted(IN_RANGE)).flatmap(
                lambda k: st.tuples(st.just(k), OUT_OF_RANGE[k].map(str) | NOT_A_VALUE)
            ),
            max_size=2,
        ),
    }
)


@settings(max_examples=50)
@given(command=st.sampled_from(["polar", "pattern", "simulate", "elliptic", "verify"]), config=FUZZ_CONFIG)
def test_dispatch_fuzz_exits_with_a_code_and_one_line(command, config):
    # sweep is left out: it forks a process pool
    values = {"lattice_n": 8, "grid_n": 8, "t_final": 0.05, "polar_n": 8}
    values.update(config["problem"], **config["numerics"])
    values.update(config["spoiled"])
    text = "".join(f"{key} = {val}\n" for key, val in values.items())
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = Path(tmp) / "wedge.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch([command, "--config", str(cfg), "--out", tmp])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert [str(w.message) for w in caught] == []
