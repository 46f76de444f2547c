import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import threelevel
from threelevel.cli import (BUILTINS, ConfigError, ScenarioConfig,
                            TABLE_COLUMNS, _build_parser, build_config,
                            emit_table,
                            load_config, load_table, main, parse_config_text,
                            run_scenario, run_sweep, run_trajectory,
                            summarize)
from threelevel.dissipation import Configuration, derived_rates


class TestConfigParsing:
    def test_basic_keys_and_comments(self):
        text = """
        # a comment
        scenario = demo
        configuration = xi
        rates.gamma1 = 0.25   # inline comment
        pulses.ordering = intuitive
        detuning.delta0 = 500
        """
        cfg = build_config(parse_config_text(text))
        assert cfg.scenario == "demo"
        assert cfg.configuration is Configuration.XI
        assert cfg.rates.gamma1 == 0.25
        assert cfg.ordering == "intuitive"
        assert cfg.delta0 == 500.0

    def test_unknown_keys_all_reported(self):
        text = "bogus = 1\nrates.gamma9 = 2\nhorizon = 1.0\n"
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(text))
        assert "bogus" in err.value.problems
        assert "rates.gamma9" in err.value.problems

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("horizon = 1\nhorizon = 2\n")

    def test_bad_value_reported_with_key(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text("rates.gamma1 = fast\n"))
        assert "rates.gamma1" in err.value.problems

    def test_sweep_axis_parsing(self):
        cfg = build_config(parse_config_text(
            "sweep.detuning.delta0 = 100, 300, 1000\n"))
        assert cfg.sweep == (("detuning.delta0", (100.0, 300.0, 1000.0)),)

    def test_integer_sweep_values(self):
        cfg = build_config(parse_config_text(
            "sweep.output.samples = 30, 40.0\n"))
        assert cfg.sweep == (("output.samples", (30, 40)),)
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(
                "sweep.output.samples = 30, 2.5\n"))
        assert "sweep.output.samples" in err.value.problems

    def test_non_numeric_sweep_target_rejected(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("sweep.pulses.ordering = 1, 2\n"))

    def test_validation_catches_bad_fields(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(
                "horizon = -1\ninitial_state = bare_9\n"))
        assert "horizon" in err.value.problems["schedule"]
        assert "initial_state" in err.value.problems

    def test_load_config_unknown_source(self):
        with pytest.raises(ConfigError):
            load_config("no_such_scenario")

    def test_file_shadowing_builtin_rejected(self, tmp_path, monkeypatch,
                                            capsys):
        """A file named like a builtin is ambiguous; './name' picks the
        file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stirap_fig2").write_text("scenario = mine\n",
                                              encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config("stirap_fig2")
        assert "./stirap_fig2" in str(err.value)
        assert main(["validate", "stirap_fig2"]) == 2
        assert load_config("./stirap_fig2").scenario == "mine"


class TestBuiltins:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_parses(self, name):
        cfg = load_config(name)
        assert cfg.scenario == name

    def test_caption_parameters_encoded(self):
        """Transverse widths 0.5/T, peak couplings 100/T, detuning 1000/T,
        and the ground-coherence decay family 0.005/0.05."""
        for name, gc_T in [("stirap_fig2", 0.005), ("bstirap_fig3", 0.005),
                           ("purity_delta_fig4", 0.05),
                           ("hadamard_hold", 0.05)]:
            cfg = load_config(name)
            der = derived_rates(cfg.configuration, cfg.rates)
            T = cfg.horizon
            assert der.Gamma1 * T == pytest.approx(0.5)
            assert der.Gamma2 * T == pytest.approx(0.5 + gc_T)
            assert der.gamma_c * T == pytest.approx(gc_T)
            assert cfg.peak_omega * T == pytest.approx(100.0)
        assert load_config("stirap_fig2").delta0 == 1000.0
        assert load_config("purity_delta_fig4").sweep == \
            (("detuning.delta0", (100.0, 300.0, 1000.0)),)

    def test_orderings(self):
        assert load_config("stirap_fig2").ordering == "counterintuitive"
        assert load_config("bstirap_fig3").ordering == "intuitive"
        assert load_config("hadamard_hold").ordering == "static"


class TestEmitTable:
    def make_record(self, tmp_path, samples=40):
        cfg = load_config("stirap_fig2")
        cfg = ScenarioConfig(**{**cfg.__dict__, "samples": samples,
                                "rel_tol": 1e-7, "abs_tol": 1e-9})
        return cfg, run_scenario(cfg, str(tmp_path))

    def test_header_and_row_count(self, tmp_path):
        _, record = self.make_record(tmp_path)
        with open(record.table_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 41
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header == TABLE_COLUMNS

    def test_roundtrip_reproduces_summary(self, tmp_path):
        cfg, record = self.make_record(tmp_path)
        table = load_table(record.table_path)
        # 17 significant digits round-trip doubles exactly
        assert table["rho22_re"][-1] == record.summary["final_pop_bare_2"]
        assert table["purity"].min() == record.summary["purity_min"]
        assert table["R22"][-1] == record.summary["final_pop_adiabatic_2"]

    def test_matches_row_loop(self, tmp_path):
        """The vectorized writer gives the bytes of a per-row reference."""
        cfg, record = self.make_record(tmp_path)
        traj = run_trajectory(cfg)
        lines = [",".join(TABLE_COLUMNS)]
        for k in range(len(traj.times)):
            row = [traj.times[k]]
            for z in traj.rho[k].ravel():
                row += [z.real, z.imag]
            row += [*traj.pops_adiabatic[k], traj.purity[k], traj.theta[k],
                    traj.phi[k], traj.lam[k, 1], traj.lam[k, 2],
                    traj.omega_p[k], traj.omega_c[k], traj.delta[k]]
            lines.append(",".join(f"{x:.17g}" for x in row)
                         + f",{int(traj.floor_engaged[k])}")
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert pathlib.Path(record.table_path).read_bytes() == expected

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch):
        """A write that fails part-way leaves the earlier table whole and
        no partial file behind."""
        cfg, record = self.make_record(tmp_path)
        before = pathlib.Path(record.table_path).read_bytes()

        def fail_midway(fname, *args, **kwargs):
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write("t,rho11_re\n0.5,")
            raise OSError("device full")

        monkeypatch.setattr(np, "savetxt", fail_midway)
        with pytest.raises(OSError):
            emit_table(run_trajectory(cfg), record.table_path)
        assert pathlib.Path(record.table_path).read_bytes() == before
        assert os.listdir(tmp_path) == [os.path.basename(record.table_path)]

    def test_io_error_carries_path(self, tmp_path):
        cfg = load_config("stirap_fig2")
        traj = run_trajectory(ScenarioConfig(**{**cfg.__dict__,
                                                "samples": 5,
                                                "rel_tol": 1e-6,
                                                "abs_tol": 1e-8}))
        missing = os.path.join(str(tmp_path), "no", "such", "dir", "t.csv")
        with pytest.raises(OSError) as err:
            emit_table(traj, missing)
        assert "t.csv" in str(err.value)


class TestRunScenario:
    def test_closed_system_purity_is_one(self, tmp_path):
        text = """
        scenario = closed
        initial_state = bare_1
        pulses.peak_omega = 100.0
        pulses.ordering = counterintuitive
        detuning.delta0 = 1000.0
        output.samples = 101
        """
        cfg = build_config(parse_config_text(text))
        record = run_scenario(cfg, str(tmp_path))
        table = load_table(record.table_path)
        np.testing.assert_allclose(table["purity"], 1.0, atol=1e-8)

    def test_transfer_example(self, tmp_path):
        record = run_scenario(load_config("stirap_fig2"), str(tmp_path))
        assert record.summary["transfer_efficiency"] > 0.9

    def test_bright_transfer_example(self, tmp_path):
        record = run_scenario(load_config("bstirap_fig3"), str(tmp_path))
        assert record.summary["transfer_efficiency"] > 0.9

    def test_determinism_bitwise(self, tmp_path):
        cfg = load_config("stirap_fig2")
        cfg = ScenarioConfig(**{**cfg.__dict__, "samples": 60,
                                "rel_tol": 1e-7, "abs_tol": 1e-9})
        a = run_scenario(cfg, str(tmp_path / "a"))
        b = run_scenario(cfg, str(tmp_path / "b"))
        with open(a.table_path, "rb") as fh:
            bytes_a = fh.read()
        with open(b.table_path, "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b


class TestRunSweep:
    def small(self, extra=""):
        text = f"""
        scenario = sweep_demo
        pulses.peak_omega = 50.0
        pulses.ordering = counterintuitive
        detuning.delta0 = 400.0
        output.samples = 30
        propagator.rel_tol = 1e-7
        propagator.abs_tol = 1e-9
        {extra}
        """
        return build_config(parse_config_text(text))

    def test_cross_product_grid(self, tmp_path):
        cfg = self.small("sweep.detuning.delta0 = 200, 400, 800\n"
                         "sweep.pulses.peak_omega = 40, 60, 80\n")
        records = run_sweep(cfg, str(tmp_path))
        assert len(records) == 9
        assert all(r.error is None for r in records)
        # order is grid order: first axis outermost
        assert records[0].params["detuning.delta0"] == 200.0
        assert records[0].params["pulses.peak_omega"] == 40.0
        assert records[1].params["pulses.peak_omega"] == 60.0

    def test_single_point_equals_run_scenario(self, tmp_path):
        cfg = self.small()
        records = run_sweep(cfg, str(tmp_path / "sweep"))
        direct = run_scenario(cfg, str(tmp_path / "direct"))
        assert len(records) == 1
        assert records[0].summary == direct.summary

    def test_per_point_failure_recorded(self, tmp_path):
        """A point that fails numerically is recorded and the sweep goes
        on: one Magnus slice over the whole dissipative transfer gives a
        negative population, 400 and 800 slices do not."""
        cfg = build_config(parse_config_text("""
        scenario = sweep_demo
        rates.gamma1 = 0.5
        rates.gamma2 = 0.5
        rates.gamma2_deph = 0.01
        pulses.peak_omega = 50.0
        detuning.delta0 = 400.0
        output.samples = 2
        propagator.method = expm_oracle
        sweep.propagator.n_slices = 400, 1, 800
        """))
        records = run_sweep(cfg, str(tmp_path))
        assert len(records) == 3
        assert records[0].error is None
        assert records[1].error is not None
        assert records[2].error is None
        assert "negative population" in records[1].error

    def test_close_values_get_distinct_tables(self, tmp_path):
        """Values equal to six significant digits still name two tables."""
        cfg = self.small("sweep.detuning.delta0 = 1000.0001, 1000.0002\n")
        records = run_sweep(cfg, str(tmp_path))
        assert [r.scenario_id for r in records] == [
            "sweep_demo__delta0=1000.0001", "sweep_demo__delta0=1000.0002"]
        assert all(r.error is None for r in records)
        assert len({r.table_path for r in records}) == 2
        for r in records:
            table = load_table(r.table_path)
            assert table["delta"][0] == r.params["detuning.delta0"]

    def test_worker_pool_order_stable(self, tmp_path):
        cfg = self.small("sweep.detuning.delta0 = 200, 400, 800\n")
        seq = run_sweep(cfg, str(tmp_path / "seq"), workers=1)
        par = run_sweep(cfg, str(tmp_path / "par"), workers=3)
        assert [r.scenario_id for r in seq] == [r.scenario_id for r in par]
        for a, b in zip(seq, par):
            assert a.summary == b.summary

    def test_detuning_sweep_purity_monotone(self, tmp_path):
        """Bright-state mixing shrinks with detuning, so the minimum purity
        grows along the sweep."""
        text = """
        scenario = purity_sweep
        initial_state = bare_1
        rates.gamma1 = 0.5
        rates.gamma2 = 0.5
        rates.gamma2_deph = 0.1
        pulses.peak_omega = 100.0
        pulses.ordering = intuitive
        output.samples = 101
        propagator.rel_tol = 1e-8
        propagator.abs_tol = 1e-10
        sweep.detuning.delta0 = 200, 500, 1000
        """
        cfg = build_config(parse_config_text(text))
        records = run_sweep(cfg, str(tmp_path))
        minima = [r.summary["purity_min"] for r in records]
        assert minima[0] < minima[1] < minima[2]


class TestPropagatorPaths:
    """All configured method/basis routes land on the same physics."""

    def base_text(self, extra):
        return f"""
        scenario = route_check
        rates.gamma1 = 0.5
        rates.gamma2 = 0.5
        rates.gamma2_deph = 0.01
        pulses.peak_omega = 100.0
        pulses.ordering = counterintuitive
        detuning.delta0 = 1000.0
        output.samples = 101
        {extra}
        """

    def final_transfer(self, extra=""):
        cfg = build_config(parse_config_text(self.base_text(extra)))
        traj = run_trajectory(cfg)
        return float(traj.pops_bare[-1, 1])

    def test_adiabatic_basis_route(self):
        bare = self.final_transfer()
        adia = self.final_transfer("propagator.basis = adiabatic")
        assert abs(bare - adia) < 1e-6

    def test_expm_oracle_route(self):
        bare = self.final_transfer()
        oracle = self.final_transfer("propagator.method = expm_oracle\n"
                                     "propagator.n_slices = 2000")
        assert abs(bare - oracle) < 1e-4

    def test_shaped_detuning_route(self, tmp_path):
        text = """
        scenario = shaped_route
        rates.gamma1 = 0.5
        rates.gamma2 = 0.5
        rates.gamma2_deph = 0.01
        initial_state = adiabatic_2
        pulses.peak_omega = 100.0
        pulses.ordering = static
        detuning.kind = shaped
        detuning.delta0 = 7.0711
        detuning.gamma1 = 0.5
        detuning.t0 = 0.0
        output.samples = 101
        """
        cfg = build_config(parse_config_text(text))
        record = run_scenario(cfg, str(tmp_path))
        table = load_table(record.table_path)
        # the detuning column follows the exponential sweep
        assert table["delta"][0] == pytest.approx(7.0711 * np.hypot(100, 100),
                                                  rel=1e-6)
        assert table["delta"][-1] / table["delta"][0] == pytest.approx(
            np.exp(0.5), rel=1e-6)
        # a bright-state hold in the large-detuning regime barely decays
        assert record.summary["final_pop_adiabatic_2"] > 0.98


class TestMainEntry:
    def test_list_builtins(self, capsys):
        assert main(["list-builtins"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_validate_builtin(self, capsys):
        assert main(["validate", "stirap_fig2"]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2

    def test_run_with_flags(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "--samples", "40",
                     "--tol", "1e-7", "run", "stirap_fig2"])
        assert code == 0
        assert (tmp_path / "stirap_fig2.csv").exists()
        out = capsys.readouterr().out
        assert "transfer" in out

    @pytest.mark.parametrize("lines", [
        "propagator.rk_pair = foo",
        "propagator.n_steps = 0",
        "propagator.method = fixed_rk4",
        "propagator.rel_tol = 1e-15",
        "propagator.method = expm_oracle\npropagator.n_slices = 10",
        "detuning.kind = shaped\ndetuning.gamma1 = -1",
        "pulses.width = -1",
    ])
    def test_unhonourable_config_exits_2(self, tmp_path, capsys, lines):
        """Configs the propagator or the schedule would reject are config
        errors for both validate and run, and no table is written."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "\n", encoding="utf-8")
        for verb in ("validate", "run"):
            assert main(["--out-dir", str(tmp_path), verb, str(cfg)]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_config_errors_exit_2(self, tmp_path, capsys):
        """Each sweep point is checked like a base config: a point that
        the rates or the settings reject (here a negative decay rate, or
        10 slices for 30 samples) fails `validate` and `sweep` alike, before
        any table is written."""
        for text in ("sweep.output.samples = 30, 2.5",
                     "sweep.detuning.delta0 = 100, 100",
                     "output.samples = 30\n"
                     "sweep.rates.gamma1 = 0.2, -1.0",
                     "propagator.method = expm_oracle\n"
                     "output.samples = 30\n"
                     "sweep.propagator.n_slices = 10, 400"):
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(text + "\n", encoding="utf-8")
            for verb in ("validate", "sweep"):
                assert main(["--out-dir", str(tmp_path), verb,
                             str(cfg)]) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_schedule_built_once_per_use(self, tmp_path, monkeypatch,
                                         capsys):
        """A run builds its schedule once to validate the config and once
        to run it; a sweep also builds each point's once to validate it
        and once more when the sweep runs it.  A flag that leaves the config
        as it was does not validate it again."""
        built = []
        real = threelevel.cli.build_schedule
        monkeypatch.setattr(threelevel.cli, "build_schedule",
                            lambda cfg: built.append(cfg) or real(cfg))
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pulses.peak_omega = 50.0\noutput.samples = 30\n"
                       "propagator.rel_tol = 1e-7\npropagator.abs_tol = 1e-9\n"
                       "sweep.detuning.delta0 = 200, 400, 800\n",
                       encoding="utf-8")
        for argv, count in ((["run", "hadamard_hold"], 2),
                            (["--samples", "1000", "run", "hadamard_hold"], 2),
                            (["sweep", str(cfg)], 10)):
            built.clear()
            assert main(["--out-dir", str(tmp_path), *argv]) == 0
            assert len(built) == count

    def test_readme_command_lines_parse(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split(
            "## Command line")[1].split("```sh")[1].split("```")[0]
        lines = [shlex.split(line) for line in block.splitlines()
                 if line.startswith("threelevel ")]
        assert len(lines) >= 4
        for argv in lines:
            args = _build_parser().parse_args(argv[1:])
            assert args.command == argv[-1] or args.config == argv[-1]

    def test_import_leaves_scipy_submodules_unloaded(self, tmp_path):
        """scipy.integrate loads on first use, not with the command-line
        module, and nothing in the package loads scipy.linalg: an oracle
        run leaves both unloaded."""
        loaded = ("print(*sorted(m for m in ('scipy.integrate', "
                  "'scipy.linalg') if m in sys.modules))")
        code = (f"import sys, threelevel.cli; {loaded}; "
                f"threelevel.cli.main(['--out-dir', {str(tmp_path)!r}, "
                f"'--method', 'expm_oracle', '--samples', '11', 'run', "
                f"'stirap_fig2']); {loaded}")
        src = str(pathlib.Path(threelevel.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        assert lines[0] == "" and lines[-1] == ""
        assert (tmp_path / "stirap_fig2.csv").exists()

    def test_out_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THREELEVEL_OUT_DIR", str(tmp_path))
        code = main(["--samples", "30", "--tol", "1e-7", "run",
                     "hadamard_hold"])
        assert code == 0
        assert (tmp_path / "hadamard_hold.csv").exists()
