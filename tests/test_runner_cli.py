"""Scenario execution end to end: run summaries, artifact layout and
reproducibility, parameter sweeps, and the command-line interface."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chlab.cli import main
from chlab.config import (INITIAL_KINDS, ConfigError, load_scenario,
                          scenario_from_dict)
from chlab import cli, runner
from chlab.diagnostics import (decay_blowup_predict, mckean_classify,
                               peakon_rate_cap_check, persistence_check,
                               rate_cap_check, slope_criterion_predict)
from chlab.field import momentum_of
from chlab.runner import apply_axis, run_scenario, sweep
from chlab.weights import StandardFamily, _sample_set, certify_admissible
from helpers import read_csv, read_summary

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


# A dt_floor above the CFL step (0.3 dx / max|u| = 0.0117 here): the
# floor once ended this run at t = 0 and logged that point twice.
FLOOR = {
    "name": "floor",
    "grid": {"L": 20.0, "N": 1024},
    "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    "solver": {"t_end": 0.5, "dt_floor": 0.02},
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
        assert s["schema_version"] == 2
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

    def test_mass_drift_is_relative_to_the_l1_norm(self):
        # an odd datum has mass(0) = 0 up to roundoff: divided by that
        # roundoff (or its 1e-300 floor) the drift read 2.0 to 1e285;
        # divided by ||u0||_1 it is roundoff itself
        result = run_scenario(scenario_from_dict(
            {**BREAKDOWN, "solver": {"t_end": 0.05}}))
        cons = result.summary["conservation"]
        assert cons["mass_drift_rel"] < 1e-14

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

    def test_norm_that_overflows_at_t0_diverges_from_the_start(self,
                                                               tmp_path):
        # e^{20|x|} overflows to inf near the edges of L = 40, where u is
        # 0, so W(0) is nan at both exponents: the run completes, and each
        # block has no valid row.  summary.json spells nan and inf as text.
        weight = {"kind": "standard", "a": 20.0, "b": 1.0}
        scenario = tiny_scenario(
            grid={"L": 40.0, "N": 1024},
            weights_to_track=[{"weight": weight, "p": "inf"},
                              {"weight": weight, "p": 2}])
        result = run_scenario(scenario, out_root=tmp_path)
        assert result.summary["status"] == "ReachedTEnd"
        stored = read_summary(result.outdir / "summary.json")["persistence"]
        assert [row["p"] for row in stored] == ["inf", 2.0]
        for row, echo in zip(result.summary["persistence"], stored):
            assert np.isnan(row["W0"])
            assert row["sup_W"] == row["C_fit"] == np.inf
            assert row["passed"] is False and row["diverged"] is True
            assert row["t_valid"] == [0.0, 0.0]
            assert (echo["W0"], echo["sup_W"], echo["C_fit"]) == (
                "nan", "inf", "inf")
            assert echo["t_valid"] == [0.0, 0.0]

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

    def test_profiles_stop_at_the_contamination_guard(self):
        # On L = 20 the Gaussian's weighted source reaches the edge of the
        # box before the wave breaks: the profile rows collected so far
        # stay, the error names the snapshot time where they stopped, and
        # there is no state left to check the reconstruction against.
        scenario = scenario_from_dict({
            "name": "profiles-stop", "grid": {"L": 20.0, "N": 2048},
            "initial_data": {"kind": "gaussian", "amplitude": 1.0,
                             "width": 1.0, "center": 0.0},
            "solver": {"t_end": 6.0, "slope_stop": -4.0,
                       "boundary_tol": 1e-3},
            "profiles_enabled": True,
        })
        result = run_scenario(scenario)
        p = result.summary["profiles"]
        rows = result.profile_rows
        times = result.log.column("t").tolist()
        assert result.summary["status"] == "WaveBreaking"
        assert 0 < p["snapshots"] == len(rows) < len(times) - 1
        assert [r[0] for r in rows] == times[1:len(rows) + 1]
        stop = times[len(rows) + 1]
        assert p["error"].startswith(
            f"profiles stopped at t={stop:.6g}: weighted profile integrand "
            f"is boundary-contaminated")
        assert (p["Phi_final"], p["Psi_final"]) == rows[-1][1:3]
        assert p["reconstruction_error_rel"] is None

    def test_noncertifiable_weight_warning_recorded(self):
        scenario = tiny_scenario(weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.1, "b": 2.0}, "p": 2},
        ])
        warnings_ = run_scenario(scenario).summary["weight_warnings"]
        assert len(warnings_) == 1 and "certified" in warnings_[0]


class TestDiagnosticBlocks:
    """Each diagnostic returns the very block its artifact stores, and
    each block of a run follows from the tables the run wrote."""

    def test_returns_equal_the_stored_blocks(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_YAML + "rate_cap_factor: 3.0\n"
                        "profiles_enabled: true\n")
        scenario = load_scenario(path)
        u0 = scenario.build_initial()
        result = run_scenario(scenario, out_root=tmp_path / "sim")
        summary = read_summary(result.outdir / "summary.json")

        predictors = {"momentum_sign": mckean_classify(momentum_of(u0)),
                      "slope_criterion": slope_criterion_predict(u0),
                      "decay_blowup": decay_blowup_predict(u0)}
        assert summary["predictors"] == predictors
        # the rate cap and the fit from run.csv as read back: t,
        # rate_cap_sup, W_0 and M = u_inf + ux_inf
        header, table = read_csv(result.outdir / "run.csv")
        log = dict(zip(header, table.T))
        assert log["rate_cap_sup"][0] == peakon_rate_cap_check(u0)
        assert summary["rate_cap"] == rate_cap_check(
            log["t"], log["rate_cap_sup"], 3.0)
        block = persistence_check(log["t"], log["W_0"],
                                  log["u_inf"] + log["ux_inf"])
        row = summary["persistence"][0]
        assert {key: row[key] for key in block} == block
        # the profile block from the last row of profile.csv
        header, table = read_csv(result.outdir / "profile.csv")
        last = dict(zip(header, table[-1]))
        profiles = summary["profiles"]
        assert profiles["error"] is None
        assert profiles["snapshots"] == len(table)
        assert profiles["c1_positive"] == (last["c1"] > 0.0)
        for key, column in (("c1", "c1"), ("c2", "c2"), ("Phi_final", "Phi"),
                            ("Psi_final", "Psi"),
                            ("max_eps_plus", "max_eps_plus"),
                            ("max_eps_minus", "max_eps_minus")):
            assert profiles[key] == last[column]

        out = tmp_path / "runs"
        for command in (["classify"], ["weights", "certify"]):
            assert main(command + [str(path), "--out", str(out),
                                   "--quiet"]) == 0
        rundir = out / scenario.run_dirname()
        stored = read_summary(rundir / "classification.json")
        assert stored["predictors"] == predictors
        weight = scenario.weights_to_track[0].weight
        stored = read_summary(rundir / "weight_certificates.json")
        assert (stored["certificates"][0]["certificate"]
                == certify_admissible(weight))


class TestRunLog:
    """run.csv is the one record of a run's points, each point once."""

    @pytest.mark.parametrize("data, status", [
        (TINY, "ReachedTEnd"),
        (BREAKDOWN, "WaveBreaking"),
        ({**TINY, "solver": {"t_end": 3.0}, "weights_to_track": []},
         "BoundaryContaminated"),
        ({**FLOOR, "weights_to_track": [
            {"weight": {"kind": "standard", "a": 0.5, "b": 1.0}}],
          "profiles_enabled": True}, "ReachedTEnd"),
    ], ids=["t-end", "breaking", "boundary", "dt-floor"])
    def test_each_point_is_logged_once(self, data, status, tmp_path):
        result = run_scenario(scenario_from_dict(data), out_root=tmp_path)
        summary = result.summary
        assert summary["status"] == status
        header, rows = read_csv(result.outdir / "run.csv")
        t = rows[:, header.index("t")]
        assert t[0] == 0.0 and t[-1] == summary["t_final"]
        assert np.all(np.diff(t) > 0.0)
        if summary["t_star_bracket"] is not None:
            lo, hi = summary["t_star_bracket"]
            assert lo < hi
        for block in summary["persistence"]:
            assert block["t_valid"] == [0.0, summary["t_final"]]

    def test_dt_floor_leaves_the_log_unchanged(self, tmp_path):
        logs = []
        for solver in ({"t_end": 0.5, "dt_floor": 0.02},
                       {"t_end": 0.5, "dt_floor": 1e-9}, {"t_end": 0.5}):
            result = run_scenario(scenario_from_dict({**FLOOR,
                                                      "solver": solver}),
                                  out_root=tmp_path)
            assert result.summary["status"] == "ReachedTEnd"
            assert result.summary["steps"] == 43
            logs.append((result.outdir / "run.csv").read_text())
        assert logs[0] == logs[1] == logs[2]


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

    def test_run_csv_rows_are_the_log_rows(self, tmp_path):
        result = run_scenario(tiny_scenario(), out_root=tmp_path)
        header, data = read_csv(result.outdir / "run.csv")
        assert header == list(result.log.header)
        assert np.array_equal(data, np.array(result.log.rows))

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
        # the value is set as given; the codec makes the grid size an int,
        # so a swept N keeps the config hash of the same N written as one
        out = apply_axis(TINY, "grid.N", 512.0)
        assert out["grid"]["N"] == 512.0
        assert isinstance(out["grid"]["N"], float)
        scenario = scenario_from_dict(out)
        assert scenario.grid.N == 512 and isinstance(scenario.grid.N, int)
        assert TINY["grid"]["N"] == 512
        assert scenario.content_hash() == tiny_scenario().content_hash()
        with pytest.raises(ConfigError,
                           match=r"^grid\.N: expected an integer, got 300\.5"):
            scenario_from_dict(apply_axis(TINY, "grid.N", 300.5))

    def test_top_level_leaf(self):
        for current in (1.5, None):  # an unset optional number sweeps too
            out = apply_axis(dict(TINY, rate_cap_factor=current),
                             "rate_cap_factor", 2.0)
            assert out["rate_cap_factor"] == 2.0

    def test_unknown_section_and_field(self):
        with pytest.raises(ConfigError, match="no config section 'solvr'"):
            apply_axis(TINY, "solvr.t_end", 1.0)
        with pytest.raises(ConfigError, match="no config field 'solver.dt'"):
            apply_axis(TINY, "solver.dt", 1.0)
        with pytest.raises(ConfigError, match="no config field ''"):
            apply_axis(TINY, "", 1.0)

    def test_cannot_invent_fields(self):
        with pytest.raises(ConfigError, match="available here"):
            apply_axis(TINY, "solver.brand_new", 1.0)


@pytest.fixture(scope="module")
def table():
    # width 10 decodes, but its datum is boundary-contaminated on L = 20,
    # which only the run of that value finds
    return sweep(tiny_scenario(), "initial_data.width",
                 [1.0, 10.0, 1.2], workers=1, seed=0)


class TestSweep:
    def test_summary_shape(self, table):
        assert sorted(table) == [
            "axis", "base_config", "rows", "scenario", "schema_version",
            "seed", "sweep_hash", "values",
        ]
        assert table["axis"] == "initial_data.width"
        assert table["values"] == [1.0, 10.0, 1.2]
        assert len(table["rows"]) == 3

    def test_rows_keep_input_order(self, table):
        assert [row["value"] for row in table["rows"]] == [1.0, 10.0, 1.2]

    def test_bad_value_is_an_error_row_not_a_crash(self, table):
        good, bad, good2 = table["rows"]
        assert good["status"] == "ReachedTEnd" and good["error"] is None
        assert good["t_final"] == pytest.approx(0.1, abs=1e-12)
        assert bad["status"] == "Error"
        assert "boundary-contaminated" in bad["error"]
        assert bad["t_final"] is None and bad["dir"] is None
        assert good2["status"] == "ReachedTEnd"
        assert good["config_hash"] != good2["config_hash"]

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="empty sweep value list"):
            sweep(tiny_scenario(), "solver.t_end", [], workers=1)

    def test_bad_axis_rejected_before_running(self):
        with pytest.raises(ConfigError, match="no config section"):
            sweep(tiny_scenario(), "nope.t_end", [1.0], workers=1)

    @pytest.mark.parametrize("axis, message", [
        ("solver.dealias", "expected true/false, got 1.0"),
        ("name", "expected a string, got float 1.0"),
        ("initial_data.kind", "unknown initial-data kind 1.0"),
        ("weights_to_track", "expected a list, got float"),
        ("grid", "expected a mapping, got float")],
        ids=["solver.dealias", "name", "initial_data.kind",
             "weights_to_track", "grid"])
    def test_non_numeric_fields_are_rejected(self, monkeypatch, tmp_path,
                                             axis, message):
        # the codec refuses the value under the field's dotted path, and
        # no child starts
        monkeypatch.setattr(runner, "_run_children",
                            lambda *args: pytest.fail("a child started"))
        with pytest.raises(ConfigError) as err:
            sweep(tiny_scenario(), axis, [1.0], workers=1,
                  out_root=tmp_path / "runs")
        assert err.value.path == axis
        assert str(err.value).startswith(f"{axis}: {message}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("axis, values, bad", [
        ("name", ["alpha", "beta"], "'alpha'"),
        ("solver.dealias", [True], "True"),
        ("solver.t_end", [0.05, None], "None")],
        ids=["str", "bool", "none"])
    def test_values_that_are_not_numbers_are_rejected(
            self, monkeypatch, tmp_path, axis, values, bad):
        # refused before any child starts, so nothing is written
        monkeypatch.setattr(runner, "_run_children",
                            lambda *args: pytest.fail("a child started"))
        with pytest.raises(ConfigError) as err:
            sweep(tiny_scenario(), axis, values, workers=1,
                  out_root=tmp_path / "runs")
        assert err.value.path == "values"
        assert str(err.value) == (
            f"values: sweep values must be ints or floats, got {bad}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("axis, values, same", [
        ("solver.t_end", [0.05, 0.1, 5e-2], "0.05 and 0.05"),
        ("grid.N", [512, 512.0], "512 and 512.0")], ids=["t_end", "N"])
    def test_repeated_values_are_rejected(self, monkeypatch, tmp_path, axis,
                                          values, same):
        # two runs of one scenario would write one directory
        monkeypatch.setattr(runner, "_run_children",
                            lambda *args: pytest.fail("a child started"))
        with pytest.raises(ConfigError) as err:
            sweep(tiny_scenario(), axis, values, workers=1,
                  out_root=tmp_path / "runs")
        assert str(err.value) == f"values: {same} give the same {axis} scenario"
        assert not (tmp_path / "runs").exists()

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
        assert lines[0] == ("value,status,t_final,bracket_lo,bracket_hi,"
                            "decay_blowup,slope_criterion,error")
        assert lines[1] == "0.05,ReachedTEnd,0.05,nan,nan,fired,silent,"
        # each run also wrote its own artifact directory
        for row in t1["rows"]:
            assert (Path(tmp_path / "a") / row["dir"] / "run.csv").is_file()
        table = read_summary(d1 / "sweep.json")
        assert table["rows"][0]["status"] == "ReachedTEnd"

    def test_predictor_cells_empty_when_disabled(self, tmp_path):
        # an error row has no predictors: amplitude 0 passes the pre-start
        # decode, which builds no datum, and fails in the child
        table = sweep(tiny_scenario(), "initial_data.amplitude", [0.0],
                      workers=1, out_root=tmp_path)
        lines = (Path(table["dir"]) / "sweep.csv").read_text().splitlines()
        assert lines[1] == ('0.0,Error,nan,nan,nan,,,"ConfigError: '
                            'initial_data: all samples are zero on grid '
                            'L=20.0, N=512"')

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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the decoder is patched in forked workers")
    def test_children_run_the_scenarios_the_parent_decoded(self,
                                                           monkeypatch):
        # a child that decoded its value's config would get an error row
        parent, decode = os.getpid(), runner.scenario_from_dict

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("a child decoded a config")
            return decode(*args, **kwargs)

        monkeypatch.setattr(runner, "scenario_from_dict", parent_only)
        table = sweep(tiny_scenario(), "solver.t_end", [0.05, 0.1],
                      workers=2)
        assert [(row["status"], row["error"]) for row in table["rows"]] == [
            ("ReachedTEnd", None), ("ReachedTEnd", None)]

    def test_bad_base_datum_is_refused_before_any_child(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setattr(runner, "_run_children",
                            lambda *args: pytest.fail("a child started"))
        base = tiny_scenario(initial_data={"kind": "gaussian",
                                           "amplitude": 0.0})
        with pytest.raises(ConfigError,
                           match="^initial_data: all samples are zero"):
            sweep(base, "solver.t_end", [0.05], workers=1,
                  out_root=tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

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

    @pytest.mark.parametrize("command, record", [
        (["simulate"], "*/summary.json"),
        (["classify"], "*/classification.json"),
        (["weights", "certify"], "*/weight_certificates.json"),
        (["profile"], "*/summary.json"),
        (["sweep"], "*-sweep-*/sweep.json"),
    ], ids=["simulate", "classify", "weights-certify", "profile", "sweep"])
    def test_global_flags_work_in_both_positions(self, command, record,
                                                 tiny_yaml, tmp_path,
                                                 capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = [*command, str(tiny_yaml)]
        if command == ["sweep"]:
            args += ["--axis", "solver.t_end", "--values", "0.1",
                     "--workers", "1"]
        assert main(["--seed", "7", "--quiet", *args, "--out",
                     str(out1)]) == 0
        assert main([*args, "--seed", "7", "--quiet", "--out",
                     str(out2)]) == 0
        assert capsys.readouterr().out == ""
        [s1], [s2] = out1.glob(record), out2.glob(record)
        assert read_summary(s1)["seed"] == read_summary(s2)["seed"] == 7

    def test_weights_group_takes_the_common_flags(self, tmp_path, capsys):
        # before the group, after it, and after the subcommand's argument
        spellings = [
            ["--seed", "1", "--quiet", "--out", str(tmp_path / "r1"),
             "weights", "certify", "algebraic-persistence"],
            ["weights", "--seed", "1", "--quiet", "--out",
             str(tmp_path / "r2"), "certify", "algebraic-persistence"],
            ["weights", "certify", "algebraic-persistence", "--seed", "1",
             "--quiet", "--out", str(tmp_path / "r3")],
        ]
        for argv in spellings:
            assert main(argv) == 0
        assert capsys.readouterr().out == ""
        files = [next((tmp_path / r).glob("*/weight_certificates.json"))
                 for r in ("r1", "r2", "r3")]
        assert read_summary(files[0])["seed"] == 1
        assert len({f.read_bytes() for f in files}) == 1

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

    def test_yaml_error_names_the_config_file(self, tmp_path, capsys):
        path = tmp_path / "dup.yaml"
        path.write_text("name: dup\ngrid: {L: 20.0, N: 256}\n"
                        "solver: {t_end: 0.1}\ninitial_data: {kind: gaussian}"
                        "\nsolver: {t_end: 0.2}\n")
        assert main(["classify", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "found duplicate key 'solver'" in err
        assert f'in "{path}", line 5, column 1' in err

    @pytest.mark.parametrize("command, grid, initial, message", [
        ("simulate", "{L: 20.0, N: 512}",
         "{kind: odd_gaussian_derivative, amplitude: 1.0e+308}",
         "non-finite samples"),
        ("classify", "{L: 20.0, N: 512}",
         "{kind: odd_gaussian_derivative, amplitude: 1.0e+308}",
         "non-finite samples"),
        ("simulate", "{L: 20.0, N: 256}", "{kind: gaussian, amplitude: 0.0}",
         "all samples are zero"),
        ("classify", "{L: 20.0, N: 256}", "{kind: gaussian, amplitude: 0.0}",
         "all samples are zero"),
        ("simulate", "{L: 20.0, N: 256}", "{kind: gaussian, amplitude: 0.0}\n"
         "rate_cap_factor: 2.0",
         "all samples are zero"),
        ("simulate", "{L: 20.0, N: 256}", "{kind: gaussian, width: -1.0}",
         "config error: initial_data: width must be positive, got -1.0"),
        ("classify", "{L: 20.0, N: 256}", "{kind: from_potential, m0: "
         "{shape: tanh_gaussian, envelope_width: 0.0}}",
         "config error: initial_data.m0: envelope_width must be positive, "
         "got 0.0"),
    ], ids=["simulate", "classify", "simulate-zero", "classify-zero",
            "simulate-zero-rate-cap", "simulate-width", "classify-width"])
    def test_non_finite_initial_data_exits_2(self, command, grid, initial,
                                             message, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text(f"name: flat\ngrid: {grid}\ninitial_data: {initial}"
                        "\nsolver: {t_end: 0.1}\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, str(path), "--quiet"]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("solver, message", [
        ("{t_end: 0.1, dt_max: 0.0, dt_floor: -1.0e-9}",
         "solver: dt_max must be positive, got 0.0"),
        ("{t_end: 0.1, dt_max: -0.01, dt_floor: -1.0}",
         "solver: dt_max must be positive, got -0.01"),
        ("{t_end: 0.1, dt_max: 0.0, dt_floor: 0.0}",
         "solver: dt_max must be positive, got 0.0"),
        ("{t_end: 0.1, boundary_tol: -1}",
         "solver: boundary_tol must be positive"),
        ("{t_end: 0.1, dealias: false}", "solver: dealias must be true"),
        ("{t_end: 0.1}\npredictors_enabled: false",
         "predictors_enabled: must be true"),
    ], ids=["stalled", "backward", "zero-dt-max", "negative-boundary-tol",
            "aliased", "no-predictors"])
    def test_invalid_solver_settings_exit_2(self, solver, message, tmp_path,
                                            capsys):
        # such settings would never advance t, step backward in time,
        # report the datum against a negative tolerance, or ask for a
        # step or a summary that the program always makes another way
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\ngrid: {L: 20.0, N: 64}\n"
                        "initial_data: {kind: gaussian, amplitude: 1.0, "
                        "width: 1.0, center: 0.0}\n"
                        f"solver: {solver}\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "r"),
                     "--quiet"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("config, line", [
        ("initial_data: {kind: gaussian}\nrate_cap_factor: 3.0\n",
         r"  rate cap: max \S+ vs cap \S+ -> ok"),
        ("initial_data: {kind: gaussian}\nprofiles_enabled: true\n",
         r"  profiles: c1=\S+ c2=\S+, max eps \(\S+, \S+\), "
         r"reconstruction \S+"),
        # the datum's e^{|x|}-weighted profile integrals diverge
        ("initial_data: {kind: mollified_exponential, rate: 0.4}\n"
         "profiles_enabled: true\n",
         r"  profiles note: profiles stopped at t=0: weighted profile "
         r"integrand is cut off at the crop .*"),
        ("initial_data: {kind: gaussian}\nweights_to_track:\n"
         "  - weight: {kind: standard, a: 0.1, b: 2.0}\n",
         r"  warning: weights_to_track\[0\]: exp\(0\.1\|x\|\^2\.0\)\S* "
         r"grows faster than exponential .* no persistence guarantee"),
    ], ids=["rate-cap", "profiles", "profiles-note", "weight-warning"])
    def test_simulate_reports_each_block(self, config, line, tmp_path,
                                         capsys):
        path = tmp_path / "report.yaml"
        path.write_text("name: report\ngrid: {L: 60.0, N: 1024}\n"
                        "solver: {t_end: 0.05}\n" + config)
        assert main(["simulate", str(path), "--out",
                     str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(re.fullmatch(line, text) for text in lines), lines

    @pytest.mark.parametrize("flags", [[], ["--quiet"]],
                             ids=["report", "quiet"])
    def test_simulate_says_each_weight_warning_once(self, flags, tmp_path,
                                                    capsys):
        path = tmp_path / "w.yaml"
        path.write_text(TINY_YAML.replace("{kind: standard, c: 2.0}",
                                          "{kind: standard, a: -1.0}"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "r"),
                     *flags]) == 0
        captured = capsys.readouterr()
        said = [line for line in (captured.out + captured.err).splitlines()
                if "weights_to_track[0]" in line]
        assert len(said) == 1, said

    @pytest.mark.parametrize("command, flags", [
        (["weights", "certify"], []),
        (["classify"], []),
        (["sweep"], ["--axis", "solver.t_end", "--values", "0.02,0.03",
                     "--workers", "1"]),
        (["simulate"], ["--quiet"]),
    ], ids=["certify", "classify", "sweep", "simulate-quiet"])
    def test_weight_warning_is_one_stderr_line(self, command, flags,
                                               tmp_path, capfd):
        # said once, as the run report says it
        path = tmp_path / "w.yaml"
        path.write_text(TINY_YAML.replace("{kind: standard, c: 2.0}",
                                          "{kind: standard, a: -1.0}"))
        [message] = load_scenario(path).weight_warnings()
        assert main([*command, str(path), *flags,
                     "--out", str(tmp_path / "r")]) == 0
        captured = capfd.readouterr()
        assert [line for line in captured.err.splitlines()
                if "weights_to_track[0]" in line] == [f"warning: {message}"]
        assert "weights_to_track[0]" not in captured.out

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

    def test_weights_certify_without_tracked_weights(self, tmp_path,
                                                    capsys):
        path = tmp_path / "bare.yaml"
        path.write_text(TINY_YAML.split("weights_to_track:")[0])
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(path), "--out",
                     str(out)]) == 0
        assert capsys.readouterr().out == (
            "tiny: no weights_to_track in this scenario\n")
        assert not out.exists()

    def test_weights_certify_certifies_each_weight_once(
            self, tmp_path, monkeypatch):
        calls = []

        def counting(weight, seed):
            calls.append(weight)
            return certify_admissible(weight, seed)

        monkeypatch.setattr(cli, "certify_admissible", counting)
        path = tmp_path / "twice.yaml"
        path.write_text(TINY_YAML + "  - weight: {kind: standard, c: 2.0}\n"
                                    "    p: 2\n")
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(path), "--out", str(out),
                     "--seed", "0", "--quiet"]) == 0
        assert len(calls) == 1
        w = StandardFamily(c=2.0)
        direct = certify_admissible(w)
        records = read_summary(out / load_scenario(path).run_dirname()
                               / "weight_certificates.json")["certificates"]
        assert [(r["index"], r["weight"], r["p"]) for r in records] == [
            (0, str(w), "inf"), (1, str(w), 2.0)]
        assert all(r["certificate"] == direct for r in records)

    def test_weights_certify_seed_reaches_the_certificate(self, tiny_yaml,
                                                          tmp_path):
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(tiny_yaml), "--seed", "7",
                     "--out", str(out), "--quiet"]) == 0
        stored = read_summary(out / tiny_scenario().run_dirname()
                              / "weight_certificates.json")
        cert = stored["certificates"][0]["certificate"]
        w = StandardFamily(c=2.0)
        assert stored["seed"] == 7 and cert["seed"] == 7
        assert cert == certify_admissible(w, seed=7)
        assert cert["C0"] != certify_admissible(w)["C0"]

    def test_weights_certify_draws_the_samples_once(self, tmp_path,
                                                    monkeypatch):
        # 4 distinct weights, one seed: one draw of the sample set
        draws = []
        default_rng = np.random.default_rng

        def counting(seed):
            draws.append(seed)
            return default_rng(seed)

        _sample_set.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", counting)
        path = tmp_path / "four.yaml"
        path.write_text(
            TINY_YAML
            + "  - weight: {kind: one_sided, a: 0.5}\n    p: inf\n"
            + "  - weight: {kind: standard, a: 0.5, b: 1.0}\n    p: 2\n"
            + "  - weight: {kind: truncated, cap: 10.0,"
              " base: {kind: standard, c: 2.0}}\n    p: 2\n")
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(path), "--out", str(out),
                     "--seed", "3", "--quiet"]) == 0
        assert draws == [3]
        records = read_summary(out / load_scenario(path).run_dirname()
                               / "weight_certificates.json")["certificates"]
        assert len({r["weight"] for r in records}) == 4

    def test_negative_seed_exits_2(self, tmp_path):
        # numpy's seeding rejects a negative seed; the parser refuses it
        # first, as a usage error rather than a traceback
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "chlab.cli", "weights", "certify",
             "algebraic-persistence", "--seed", "-1",
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 2
        assert ("argument --seed: expected a non-negative integer, got '-1'"
                in done.stderr)
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
    def test_bad_seed_is_a_usage_error(self, seed, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["classify", "steep-odd-breakdown", "--seed", seed,
                  "--out", str(tmp_path / "runs")])
        assert exit_.value.code == 2
        assert ("argument --seed: expected a non-negative integer, "
                f"got '{seed}'" in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_records_carry_the_schema_version(self, tiny_yaml, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(cli, "SCHEMA_VERSION", 3)
        out = tmp_path / "runs"
        for command in (["classify"], ["weights", "certify"]):
            assert main(command + [str(tiny_yaml), "--out", str(out),
                                   "--quiet"]) == 0
        rundir = out / tiny_scenario().run_dirname()
        for name in ("classification.json", "weight_certificates.json"):
            assert read_summary(rundir / name)["schema_version"] == 3

    @pytest.mark.parametrize("command, builds", [
        (["simulate"], 1), (["profile"], 1), (["classify"], 1),
        (["weights", "certify"], 0)],
        ids=["simulate", "profile", "classify", "weights-certify"])
    def test_each_command_builds_the_datum_once_or_never(
            self, command, builds, tiny_yaml, tmp_path, monkeypatch):
        # the datum is built where it is used, and judged there
        calls = []
        for cls in INITIAL_KINDS.values():
            def counting(self, grid, _build=cls.build):
                calls.append(type(self).__name__)
                return _build(self, grid)
            monkeypatch.setattr(cls, "build", counting)
        assert main([*command, str(tiny_yaml), "--out", str(tmp_path / "r"),
                     "--quiet"]) == 0
        assert calls == ["Gaussian"] * builds

    def test_weights_certify_reads_no_datum(self, tmp_path):
        # a datum whose tails do not fit in the box does not stop the
        # certificates, which never read it
        path = tmp_path / "wide.yaml"
        path.write_text(TINY_YAML.replace(
            "{kind: gaussian, amplitude: 1.0, width: 1.0, center: 0.0}",
            "{kind: gaussian, width: 10.0}"))
        out = tmp_path / "runs"
        assert main(["weights", "certify", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert len(list(out.glob("*/weight_certificates.json"))) == 1
        assert main(["classify", str(path), "--out", str(out),
                     "--quiet"]) == 2

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

    def test_sweep_warns_once_for_an_uncertifiable_weight(self, tmp_path,
                                                          capfd):
        # The CLI says it once, before the sweep starts; the forked
        # children, whose stderr capfd also sees, say nothing.  The CLI runs
        # in a process of its own, where a stray Python warning would print
        # on stderr as it would for a user.
        path = tmp_path / "w.yaml"
        path.write_text(TINY_YAML.replace(
            "{kind: standard, c: 2.0}", "{kind: standard, a: 0.1, b: 2.0}"))
        out = tmp_path / "runs"
        argv = ["sweep", str(path), "--axis", "solver.t_end", "--values",
                "0.02,0.03,0.04", "--workers", "1", "--out", str(out),
                "--quiet"]
        script = ("import sys; sys.path.insert(0, %r); from chlab.cli "
                  "import main; sys.exit(main(%r))"
                  % (str(Path(cli.__file__).parents[1]), argv))
        done = subprocess.run([sys.executable, "-c", script], timeout=120)
        assert done.returncode == 0
        [line] = capfd.readouterr().err.splitlines()
        assert line.startswith("warning: weights_to_track[0]: ")
        runs = [d for d in out.iterdir() if "sweep" not in d.name]
        assert len(runs) == 3
        for run_dir in runs:
            summary = read_summary(run_dir / "summary.json")
            assert len(summary["weight_warnings"]) == 1

    def test_sweep_cli_refuses_repeated_values(self, tiny_yaml, tmp_path,
                                               capsys):
        out = tmp_path / "runs"
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "0.05,0.05,5e-2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: values: 0.05 and 0.05 give the same solver.t_end "
            "scenario\n")
        assert not out.exists()

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

    def test_sweep_prints_an_error_row(self, tiny_yaml, tmp_path, capsys):
        # amplitude 0 decodes, and its run refuses the all-zero datum
        assert main(["sweep", str(tiny_yaml), "--axis",
                     "initial_data.amplitude", "--values", "0,1",
                     "--workers", "1", "--out", str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "  initial_data.amplitude = 0          error: ConfigError: "
            "initial_data: all samples are zero on grid L=20.0, N=512")
        assert lines[2].startswith(
            "  initial_data.amplitude = 1          ReachedTEnd at t=0.1")

    @pytest.mark.parametrize("command", [
        ["simulate"], ["profile"], ["classify"], ["weights", "certify"],
        ["sweep", "--axis", "solver.t_end", "--values", "0.05,0.1"]],
        ids=["simulate", "profile", "classify", "weights-certify", "sweep"])
    def test_out_that_is_a_file_exits_2_before_any_run(
            self, command, tiny_yaml, tmp_path, monkeypatch, capsys):
        # the run and sweep directories are made first: a file in the
        # place of --out fails before any integration, child, verdict or
        # certificate
        blocker = tmp_path / "file"
        blocker.write_text("")
        for module, name in ((runner, "run"), (runner, "_run_children"),
                             (cli, "predictor_table"),
                             (cli, "certify_admissible")):
            monkeypatch.setattr(module, name, lambda *args, _name=name, **kw:
                                pytest.fail(f"{_name} was called"))
        assert main([*command, str(tiny_yaml), "--out", str(blocker),
                     "--quiet"]) == 2
        assert "Not a directory" in capsys.readouterr().err

    def test_sweep_workers_below_one_exit_2(self, tiny_yaml, capsys):
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "0.05", "--workers", "-1", "--quiet"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, values, message", [
        ("grid.N", "512,inf", "grid.N: expected an integer, got inf"),
        ("grid.N", "512,nan", "grid.N: expected an integer, got nan"),
        ("solver.t_end", "0.05,nan",
         "solver.t_end: expected a finite number, got nan"),
        ("solver.t_end", "0.05,-inf",
         "solver.t_end: expected a finite number, got -inf")],
        ids=["grid.N-inf", "grid.N-nan", "solver.t_end-nan",
             "solver.t_end--inf"])
    def test_sweep_non_finite_values_exit_2(self, tiny_yaml, tmp_path, axis,
                                            values, message, capsys):
        out = tmp_path / "runs"
        assert main(["sweep", str(tiny_yaml), "--axis", axis, "--values",
                     values, "--out", str(out), "--quiet"]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run

    @pytest.mark.parametrize("axis, message", [
        ("solver.dealias", "solver.dealias: expected true/false, got 0.0"),
        ("name", "name: expected a string, got float 0.0"),
        ("initial_data.kind",
         "initial_data.kind: unknown initial-data kind 0.0; one of: ")],
        ids=["solver.dealias", "name", "initial_data.kind"])
    def test_sweep_non_numeric_axis_exit_2(self, tiny_yaml, tmp_path, axis,
                                           message, capsys):
        out = tmp_path / "runs"
        assert main(["sweep", str(tiny_yaml), "--axis", axis, "--values",
                     "0,1", "--out", str(out), "--quiet"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run

    def test_sweep_bad_values_exit_2(self, tiny_yaml, capsys):
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.t_end",
                     "--values", "a,b", "--quiet"]) == 2
        assert "bad sweep value" in capsys.readouterr().err

    @pytest.mark.parametrize("config, axis, values, message", [
        (None, "grid.N", "100,300", "grid: N must be a power of two"),
        (None, "solver.cfl", "0.3,2", "solver: cfl must be in (0, 1]"),
        (None, "initial_data.width", "1,-1",
         "initial_data: width must be positive, got -1.0"),
        (None, "initial_data.width", "1,0",
         "initial_data: width must be positive, got 0.0"),
        # mollified data: the datum's own check, without building it
        ("decay-threshold-sweep", "initial_data.rate", "0.5,0",
         "initial_data: rate must be positive, got 0.0"),
        ("decay-threshold-sweep", "initial_data.rate", "0.5,-1",
         "initial_data: rate must be positive, got -1.0"),
        ("peakon-travel", "initial_data.mollify_width", "0.1,-0.1",
         "initial_data: mollify_width must be positive, got -0.1"),
    ], ids=["grid-N", "cfl", "width-negative", "width-zero", "rate-zero",
            "rate-negative", "mollify-width-negative"])
    def test_sweep_values_the_codec_rejects_exit_2(self, tiny_yaml, tmp_path,
                                                   config, axis, values,
                                                   message, capsys):
        out = tmp_path / "runs"
        assert main(["sweep", config or str(tiny_yaml), "--axis", axis,
                     "--values", values, "--workers", "1", "--out", str(out),
                     "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any child started

    def test_sweep_values_may_start_with_a_minus_sign(self, tiny_yaml,
                                                      tmp_path):
        out = tmp_path / "runs"
        assert main(["sweep", str(tiny_yaml), "--axis", "solver.slope_stop",
                     "--values", "-1,-2", "--workers", "1", "--out",
                     str(out), "--quiet"]) == 0
        [sweep_dir] = [d for d in out.iterdir() if "sweep" in d.name]
        rows = read_summary(sweep_dir / "sweep.json")["rows"]
        assert [(row["value"], row["status"]) for row in rows] == [
            (-1.0, "ReachedTEnd"), (-2.0, "ReachedTEnd")]

    def test_selftest_single_criterion_passes(self, capsys):
        assert main(["selftest", "--criterion", "1"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("PASS  1: operator algebra\n")
        assert "1/1 criteria passed" in text

    def test_selftest_unknown_criterion_exits_2(self, capsys):
        assert main(["selftest", "--criterion", "11"]) == 2
        captured = capsys.readouterr()
        assert "criterion: no criterion [11]; valid: [1, 2," in captured.err
        assert "criteria passed" not in captured.out

    def test_selftest_reports_honest_failure(self, capsys):
        # the traveling-wave residual criterion currently fails (grid-scale
        # ringing at the peakon kink exceeds its stated tolerance) and the
        # exit code must say so rather than paper over it
        assert main(["selftest", "--criterion", "2", "--quiet"]) == 1
