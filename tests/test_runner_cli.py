"""Scenario execution end to end: run summaries, artifact layout and
reproducibility, parameter sweeps, and the command-line interface."""

import json
import math
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from chlab.cli import main
from chlab.config import ConfigError, scenario_from_dict
from chlab.io import read_csv, read_summary
from chlab import runner
from chlab.runner import apply_axis, run_scenario, sweep

# N = 256 at this box size carries a dealiasing-cut floor near 1e-8 of
# peak at the boundary, which trips the contamination guard mid-run; 512
# keeps the floor around 1e-10 and completes.
TINY = {
    "name": "tiny",
    "grid": {"L": 20.0, "N": 512},
    "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                     "center": 0.0},
    "solver": {"t_end": 0.1},
    "weights_to_track": [
        {"weight": {"kind": "standard", "c": 2.0}, "p": "inf"},
    ],
}

TINY_YAML = """\
name: tiny
grid: {L: 20.0, N: 512}
initial_data: {kind: gaussian, amplitude: 1.0, width: 1.0, center: 0.0}
solver: {t_end: 0.1}
weights_to_track:
  - weight: {kind: standard, c: 2.0}
    p: inf
"""

BREAKDOWN = {
    "name": "steep",
    "grid": {"L": 20.0, "N": 1024},
    "initial_data": {"kind": "odd_gaussian_derivative", "amplitude": 3.0,
                     "width": 1.0},
    "solver": {"t_end": 1.0, "slope_stop": -4.0, "snapshot_stride": 1},
}


def tiny_scenario(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in TINY.items()}
    data.update(overrides)
    return scenario_from_dict(data)


@pytest.fixture(scope="module")
def result():
    return run_scenario(tiny_scenario(), seed=3)


class TestRunScenario:
    def test_summary_shape(self, result):
        s = result.summary
        assert sorted(s) == [
            "config", "config_hash", "conservation", "persistence",
            "predictors", "profiles", "rate_cap", "scenario",
            "schema_version", "seed", "status", "steps", "t_final",
            "t_star_bracket", "timing_seconds", "weight_warnings",
        ]
        assert s["schema_version"] == 1
        assert s["scenario"] == "tiny"
        assert s["seed"] == 3
        assert s["status"] == "ReachedTEnd"
        assert s["t_final"] == pytest.approx(0.1, abs=1e-12)
        assert s["t_star_bracket"] is None
        assert s["profiles"] is None and s["rate_cap"] is None
        assert s["weight_warnings"] == []

    def test_config_echo_reproduces_the_hash(self, result):
        s = result.summary
        again = scenario_from_dict(s["config"])
        assert again.content_hash() == s["config_hash"]
        assert s["config_hash"] == result.scenario.content_hash()

    def test_conservation_block(self, result):
        cons = result.summary["conservation"]
        assert cons["energy_drift_rel"] < 1e-6
        assert cons["mass_drift_rel"] < 1e-10

    def test_predictor_block(self, result):
        pred = result.summary["predictors"]
        assert pred["momentum_sign"]["verdict"] == "Other"
        assert not pred["slope_criterion"]["fired"]
        assert pred["decay_blowup"]["fired"]  # super-exponential tails

    def test_persistence_block(self, result):
        rows = result.summary["persistence"]
        assert len(rows) == 1
        row = rows[0]
        assert row["p"] == "inf"
        assert row["passed"] and not row["diverged"]
        assert row["W0"] > 0 and row["sup_W"] >= row["W0"]
        assert row["t_valid"] == [0.0, pytest.approx(0.1, abs=1e-12)]
        assert row["weight"]["kind"] == "standard"

    def test_predictors_can_be_disabled(self):
        result = run_scenario(tiny_scenario(predictors_enabled=False))
        assert result.summary["predictors"] is None

    def test_breakdown_is_a_result_with_a_bracket(self):
        result = run_scenario(scenario_from_dict(BREAKDOWN))
        s = result.summary
        assert s["status"] == "WaveBreaking"
        lo, hi = s["t_star_bracket"]
        assert 0.0 < lo < hi == s["t_final"]
        assert s["predictors"]["slope_criterion"]["fired"]

    def test_rate_cap_block(self):
        # the crest must be resolved: an under-resolved kink leaks a
        # boundary floor that the e^{|x|} weighting amplifies to garbage
        scenario = scenario_from_dict({
            "name": "cap",
            "grid": {"L": 25.0, "N": 2048},
            "initial_data": {"kind": "mollified_peakon", "c": 1.0,
                             "x0": 0.0, "mollify_width": 0.1},
            "solver": {"t_end": 0.05, "snapshot_stride": 1},
            "rate_cap_factor": 1.5,
        })
        cap = run_scenario(scenario).summary["rate_cap"]
        assert cap["factor"] == 1.5
        assert cap["cap"] == pytest.approx(1.5 * cap["sup_initial"], rel=1e-12)
        assert cap["sup_initial"] == pytest.approx(2.0, abs=0.05)
        assert cap["max_sup"] >= cap["sup_initial"] * (1 - 1e-9)
        assert 0.0 <= cap["t_max_sup"] <= 0.05
        assert cap["passed"]

    def test_profiles_block(self):
        scenario = tiny_scenario(
            name="prof",
            grid={"L": 20.0, "N": 1024},
            solver={"t_end": 0.1, "snapshot_stride": 1},
            profiles_enabled=True,
        )
        result = run_scenario(scenario)
        p = result.summary["profiles"]
        assert p["error"] is None
        assert p["snapshots"] == len(result.profile_rows) > 2
        assert p["c1_positive"] and 0 < p["c1"] <= p["c2"]
        assert p["Phi0"] == pytest.approx(1.1539050833, rel=1e-9)
        assert p["reconstruction_error_rel"] < 1e-4
        assert p["max_eps_plus"] < 0.01 * p["Phi_final"]

    def test_profiles_follow_the_solver_dealias(self):
        # Accumulated with the dealiased source while the solver runs
        # aliased, the profiles stopped at t = 0.68 on a boundary-
        # contaminated integrand; with the solver's setting all 33 stay.
        scenario = scenario_from_dict({
            "name": "aliased-profiles", "grid": {"L": 20.0, "N": 1024},
            "initial_data": {"kind": "odd_gaussian_derivative",
                             "amplitude": 1.0, "width": 1.0},
            "solver": {"t_end": 1.0, "snapshot_stride": 1, "dealias": False,
                       "boundary_tol": 1e-3},
            "profiles_enabled": True,
        })
        result = run_scenario(scenario)
        p = result.summary["profiles"]
        assert result.summary["status"] == "ReachedTEnd"
        assert p["error"] is None
        assert p["snapshots"] == len(result.log.rows) - 1 == 33
        assert p["reconstruction_error_rel"] < 1e-3

    def test_noncertifiable_weight_warning_recorded(self):
        with pytest.warns(UserWarning):
            scenario = tiny_scenario(weights_to_track=[
                {"weight": {"kind": "standard", "a": 0.1, "b": 2.0},
                 "p": 2},
            ])
        warnings_ = run_scenario(scenario).summary["weight_warnings"]
        assert len(warnings_) == 1 and "certified" in warnings_[0]


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    return run_scenario(tiny_scenario(), out_root=root, seed=0).outdir


class TestArtifacts:
    def test_directory_is_name_plus_hash(self, outdir):
        assert outdir.name == tiny_scenario().run_dirname()
        assert outdir.name.startswith("tiny-")

    def test_artifact_files_exist_and_are_listed(self, outdir):
        summary = read_summary(outdir / "summary.json")
        assert summary["artifacts"] == {
            "run_csv": "run.csv",
            "snapshot_csv": "snapshots.csv",
            "summary_json": "summary.json",
        }
        for name in summary["artifacts"].values():
            assert (outdir / name).is_file()

    def test_run_csv_header_and_columns(self, outdir):
        first_line = (outdir / "run.csv").read_text().splitlines()[0]
        assert first_line == "t,dt,min_slope,u_inf,ux_inf,energy,mass,W_0"
        header, data = read_csv(outdir / "run.csv")
        assert data.shape[1] == 8
        t = data[:, 0]
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.1, abs=1e-12)
        assert np.all(np.diff(t) > 0)
        W = data[:, 7]
        assert np.all(W > 0)

    def test_snapshot_csv_matches_initial_datum(self, outdir):
        header, data = read_csv(outdir / "snapshots.csv")
        assert header == ["x", "u_initial", "u_final"]
        scenario = tiny_scenario()
        assert np.array_equal(data[:, 0], scenario.grid.x)
        assert np.array_equal(data[:, 1], scenario.build_initial().values)

    def test_rerun_is_byte_identical(self, outdir, tmp_path):
        run_scenario(tiny_scenario(), out_root=tmp_path, seed=0)
        other = tmp_path / outdir.name
        for name in ("run.csv", "snapshots.csv"):
            assert (other / name).read_bytes() == (outdir / name).read_bytes()
        # summaries differ only in wall-clock timing
        a = read_summary(outdir / "summary.json")
        b = read_summary(other / "summary.json")
        a.pop("timing_seconds"), b.pop("timing_seconds")
        assert a == b

    def test_profile_csv_written_when_enabled(self, tmp_path):
        scenario = tiny_scenario(
            name="prof",
            grid={"L": 20.0, "N": 1024},
            solver={"t_end": 0.05, "snapshot_stride": 1},
            profiles_enabled=True,
        )
        result = run_scenario(scenario, out_root=tmp_path)
        path = result.outdir / "profile.csv"
        assert result.summary["artifacts"]["profile_csv"] == "profile.csv"
        first_line = path.read_text().splitlines()[0]
        assert first_line == "t,Phi,Psi,c1,c2,max_eps_plus,max_eps_minus"
        header, data = read_csv(path)
        assert data.shape[0] == len(result.profile_rows)
        assert np.all(data[:, 1] > 0) and np.all(data[:, 2] > 0)


class TestApplyAxis:
    def test_sets_a_float_leaf(self):
        out = apply_axis(TINY, "solver.t_end", 0.2)
        assert out["solver"]["t_end"] == 0.2
        assert TINY["solver"]["t_end"] == 0.1  # original untouched

    def test_integer_fields_stay_integers(self):
        out = apply_axis(TINY, "grid.N", 512.0)
        assert out["grid"]["N"] == 512 and isinstance(out["grid"]["N"], int)
        with pytest.raises(ConfigError, match="takes integers"):
            apply_axis(TINY, "grid.N", 300.5)

    def test_top_level_leaf(self):
        out = apply_axis(dict(TINY, rate_cap_factor=1.5),
                         "rate_cap_factor", 2.0)
        assert out["rate_cap_factor"] == 2.0

    def test_unknown_section_and_field(self):
        with pytest.raises(ConfigError, match="no config section 'solvr'"):
            apply_axis(TINY, "solvr.t_end", 1.0)
        with pytest.raises(ConfigError, match="no config field 'solver.dt'"):
            apply_axis(TINY, "solver.dt", 1.0)
        with pytest.raises(ConfigError, match="empty sweep axis"):
            apply_axis(TINY, "", 1.0)

    def test_cannot_invent_fields(self):
        with pytest.raises(ConfigError, match="available here"):
            apply_axis(TINY, "solver.brand_new", 1.0)


@pytest.fixture(scope="module")
def table():
    return sweep(tiny_scenario(), "initial_data.width",
                 [1.0, -1.0, 1.2], workers=1, seed=0)


class TestSweep:
    def test_summary_shape(self, table):
        assert sorted(table) == [
            "axis", "base_config", "rows", "scenario", "schema_version",
            "seed", "sweep_hash", "values",
        ]
        assert table["axis"] == "initial_data.width"
        assert table["values"] == [1.0, -1.0, 1.2]
        assert len(table["rows"]) == 3

    def test_rows_keep_input_order(self, table):
        assert [row["value"] for row in table["rows"]] == [1.0, -1.0, 1.2]

    def test_bad_value_is_an_error_row_not_a_crash(self, table):
        good, bad, good2 = table["rows"]
        assert good["status"] == "ReachedTEnd" and good["error"] is None
        assert good["t_final"] == pytest.approx(0.1, abs=1e-12)
        assert bad["status"] == "Error"
        assert "width" in bad["error"]
        assert bad["t_final"] is None and bad["dir"] is None
        assert good2["status"] == "ReachedTEnd"
        assert good["config_hash"] != good2["config_hash"]

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="empty sweep value list"):
            sweep(tiny_scenario(), "solver.t_end", [], workers=1)

    def test_bad_axis_rejected_before_running(self):
        with pytest.raises(ConfigError, match="no config section"):
            sweep(tiny_scenario(), "nope.t_end", [1.0], workers=1)

    def test_artifacts_and_reproducibility(self, tmp_path):
        values = [0.05, 0.1]
        t1 = sweep(tiny_scenario(), "solver.t_end", values, workers=1,
                   out_root=tmp_path / "a")
        t2 = sweep(tiny_scenario(), "solver.t_end", values, workers=1,
                   out_root=tmp_path / "b")
        d1, d2 = Path(t1["dir"]), Path(t2["dir"])
        assert d1.name == f"tiny-sweep-{t1['sweep_hash']}"
        csv1 = (d1 / "sweep.csv").read_text()
        assert csv1 == (d2 / "sweep.csv").read_text()
        lines = csv1.splitlines()
        assert lines[0] == "value,status,t_final,bracket_lo,bracket_hi,error"
        assert lines[1] == "0.05,ReachedTEnd,0.05,nan,nan,"
        # each run also wrote its own artifact directory
        for row in t1["rows"]:
            assert (Path(tmp_path / "a") / row["dir"] / "run.csv").is_file()
        table = read_summary(d1 / "sweep.json")
        assert table["rows"][0]["status"] == "ReachedTEnd"

    def test_workers_below_one_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ConfigError, match="workers"):
                sweep(tiny_scenario(), "solver.t_end", [0.05], workers=workers)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the crash is injected into forked workers")
    @pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
    @pytest.mark.parametrize("death,cause", [
        (lambda: os._exit(1), "exit status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
    ], ids=["exit", "sigkill"])
    def test_dying_worker_is_an_error_row(self, monkeypatch, workers, death,
                                          cause):
        # Every value runs in a child of its own, at any worker count: the
        # child of one value dies before it sends its row, and only that
        # value becomes an error row naming the exit cause.
        real_run = runner.run_scenario

        def crash_on_value(scenario, **kwargs):
            if scenario.initial_data.amplitude == 0.7:
                death()
            return real_run(scenario, **kwargs)

        monkeypatch.setattr(runner, "run_scenario", crash_on_value)
        table = sweep(tiny_scenario(), "initial_data.amplitude",
                      [0.5, 0.7, 0.9, 1.1], workers=workers)
        rows = table["rows"]
        assert [row["value"] for row in rows] == [0.5, 0.7, 0.9, 1.1]
        dead = rows[1]
        assert dead["status"] == "Error"
        assert dead["error"] == f"worker died: {cause}"
        for row in rows[:1] + rows[2:]:
            assert row["status"] == "ReachedTEnd" and row["error"] is None
            assert row["t_final"] == pytest.approx(0.1, abs=1e-12)

    def test_breakdown_rows_carry_brackets(self, tmp_path):
        base = scenario_from_dict(BREAKDOWN)
        table = sweep(base, "initial_data.amplitude", [3.0], workers=1,
                      out_root=tmp_path)
        row = table["rows"][0]
        assert row["status"] == "WaveBreaking"
        lo, hi = row["t_star_bracket"]
        assert 0 < lo < hi
        csv_lines = (Path(table["dir"]) / "sweep.csv").read_text().splitlines()
        assert f",{row['status']}," in csv_lines[1]
        assert csv_lines[1].endswith(",")  # empty error field


@pytest.fixture()
def tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return path


class TestCli:
    def test_simulate_config_file(self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["simulate", str(tiny_yaml), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tiny: ReachedTEnd at t=0.1" in text
        assert "drift: energy" in text
        rundir = out / tiny_scenario().run_dirname()
        assert (rundir / "run.csv").is_file()
        assert read_summary(rundir / "summary.json")["seed"] == 0

    def test_quiet_silences_the_report(self, tiny_yaml, tmp_path, capsys):
        code = main(["simulate", str(tiny_yaml), "--out",
                     str(tmp_path / "r"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_global_flags_work_in_both_positions(self, tiny_yaml, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--seed", "7", "--quiet", "simulate", str(tiny_yaml),
                     "--out", str(out1)]) == 0
        assert main(["simulate", str(tiny_yaml), "--seed", "7", "--quiet",
                     "--out", str(out2)]) == 0
        name = tiny_scenario().run_dirname()
        s1 = read_summary(out1 / name / "summary.json")
        s2 = read_summary(out2 / name / "summary.json")
        assert s1["seed"] == s2["seed"] == 7

    def test_list_builtins(self, capsys):
        assert main(["simulate", "--list"]) == 0
        text = capsys.readouterr().out
        assert "peakon-travel" in text and "tail-profiles" in text

    def test_unknown_scenario_exits_2_with_hint(self, capsys):
        assert main(["simulate", "nonesuch", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "peakon-travel" in err

    def test_missing_config_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        assert "missing config" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "COMMAND" in capsys.readouterr().out

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\ngrid: {L: 20.0, N: 100}\n"
                        "initial_data: {kind: gaussian, amplitude: 1.0, "
                        "width: 1.0, center: 0.0}\nsolver: {t_end: 0.1}\n")
        assert main(["simulate", str(path), "--quiet"]) == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_non_finite_initial_data_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text("name: flat\ngrid: {L: 20.0, N: 512}\n"
                        "initial_data: {kind: odd_gaussian_derivative, "
                        "width: 0.0}\nsolver: {t_end: 0.1}\n")
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main([command, str(path), "--quiet"]) == 2
        assert "non-finite samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_edge_above_solver_boundary_tol_exits_2(self, command, tmp_path,
                                                    capsys):
        path = tmp_path / "edge.yaml"
        path.write_text("name: edge\ngrid: {L: 25.0, N: 1024}\n"
                        "initial_data: {kind: mollified_exponential, "
                        "rate: 1}\n"
                        "solver: {t_end: 0.1, boundary_tol: 1.0e-12}\n")
        assert main([command, str(path), "--quiet"]) == 2
        assert "boundary-contaminated" in capsys.readouterr().err

    def test_wave_breaking_still_exits_0(self, tmp_path, capsys):
        path = tmp_path / "steep.yaml"
        path.write_text(
            "name: steep\ngrid: {L: 20.0, N: 1024}\n"
            "initial_data: {kind: odd_gaussian_derivative, amplitude: 3.0, "
            "width: 1.0}\n"
            "solver: {t_end: 1.0, slope_stop: -4.0, snapshot_stride: 1}\n")
        assert main(["simulate", str(path), "--out",
                     str(tmp_path / "r")]) == 0
        assert "breakdown bracketed in" in capsys.readouterr().out

    def test_classify_writes_verdicts_without_integrating(
            self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["classify", str(tiny_yaml), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "momentum sign pattern" in text
        path = out / tiny_scenario().run_dirname() / "classification.json"
        table = read_summary(path)
        assert table["predictors"]["decay_blowup"]["fired"] is True

    def test_classify_builtin_by_name(self, tmp_path, capsys):
        assert main(["classify", "steep-odd-breakdown", "--out",
                     str(tmp_path), "--quiet"]) == 0

    def test_weights_certify(self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(tiny_yaml), "--out",
                     str(out)]) == 0
        text = capsys.readouterr().out
        assert "admissible: True" in text
        path = (out / tiny_scenario().run_dirname()
                / "weight_certificates.json")
        table = read_summary(path)
        cert = table["certificates"][0]["certificate"]
        assert cert["admissible"] is True
        # sampled estimate of the exact moderateness constant 1
        assert cert["C0"] == pytest.approx(1.0, abs=0.05)

    def test_weights_without_subcommand_exits_2(self, capsys):
        assert main(["weights"]) == 2
        assert "weights certify" in capsys.readouterr().err

    def test_profile_forces_accumulation(self, tiny_yaml, tmp_path):
        out = tmp_path / "runs"
        assert main(["profile", str(tiny_yaml), "--out", str(out),
                     "--quiet"]) == 0
        dirs = list(out.iterdir())
        assert len(dirs) == 1
        header = (dirs[0] / "profile.csv").read_text().splitlines()[0]
        assert header == "t,Phi,Psi,c1,c2,max_eps_plus,max_eps_minus"
        assert read_summary(
            dirs[0] / "summary.json")["profiles"]["c1_positive"]

    def test_sweep_cli(self, tiny_yaml, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "0.05,0.1", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "sweep over solver.t_end" in text
        sweep_dirs = [d for d in out.iterdir() if "sweep" in d.name]
        assert len(sweep_dirs) == 1
        assert (sweep_dirs[0] / "sweep.csv").is_file()

    def test_sweep_workers_below_one_exit_2(self, tiny_yaml, capsys):
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "0.05", "--workers", "-1", "--quiet"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_sweep_bad_values_exit_2(self, tiny_yaml, capsys):
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "a,b", "--quiet"]) == 2
        assert "bad sweep value" in capsys.readouterr().err

    def test_selftest_single_criterion_passes(self, capsys):
        assert main(["selftest", "--criterion", "1"]) == 0
        text = capsys.readouterr().out
        assert "1/1 criteria passed" in text

    def test_selftest_reports_honest_failure(self, capsys):
        # the traveling-wave residual criterion currently fails (grid-scale
        # ringing at the peakon kink exceeds its stated tolerance) and the
        # exit code must say so rather than paper over it
        assert main(["selftest", "--criterion", "2", "--quiet"]) == 1
