import csv
import math

import numpy as np
import pytest

import wedgeflow
from wedgeflow import cli, diagnostics, elliptic, gas, pattern, shocks, unsteady
from wedgeflow.cli import ConfigError, dispatch, parse_config

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

    def test_sweep_single_worker(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WEDGE_THREADS", "1")
        cfgtext = UNPERT + "eps_list = 0.04, 0.02\nlattice_list = 24\nquad_n = 64\n"
        code = dispatch(
            ["sweep", "--config", self._cfg_file(tmp_path, cfgtext), "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "slope" in capsys.readouterr().out


class TestErrorContract:
    def test_every_package_error_derives_from_wedge_error(self):
        assert len(PACKAGE_ERRORS) == 18
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
            ("elliptic", "tol_inner = 0", "tol_inner"),
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
        "command, lines, name",
        [
            # above the critical angle of M_I = 2.94 at gamma = 10
            ("pattern", "gamma = 10", "NoAttachedShock"),
            # below the 4.19 degree critical angle, but no tilt of the shock
            # family meets the wedge tip
            ("elliptic", "M_I = 1.2\ntau_deg = 3", "GeometryError"),
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

    def test_grid_n_zero_exit_2(self, tmp_path, capsys):
        f = tmp_path / "wedge.cfg"
        f.write_text(CASE12 + "grid_n = 0\n")
        code = dispatch(["simulate", "--config", str(f), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "grid_n" in err


def test_write_field_csv_matches_cell_loop(tmp_path):
    # more fluid cells than one 4096-cell block of the writer
    g = unsteady.Grid(x0=-0.5, y0=0.0, spacing=0.01, nx=150, ny=40, tau=math.radians(10))
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
