"""The run summary is a function of the run's tables.

``runner.summarize`` builds every block of ``summary.json`` from the
datum, the run log and the profile rows, plus the few facts no table
records (status, steps, the profile block's error and reconstruction
error).  Each test here runs a scenario with artifacts, rebuilds its
summary from the config echo, ``run.csv`` and ``profile.csv`` alone, and
asks for the very bytes the run wrote.  A block that stops being a
function of its tables fails.  The datum is rebuilt from the config, not
read from ``snapshots.csv``: a Field made from the samples carries a
recomputed derivative, which moves the ``from_potential`` data's slope
evidence and Phi0 by an ulp or two.
"""

from pathlib import Path

import pytest

from chlab.config import load_scenario, scenario_from_dict
from chlab.io import PROFILE_CSV, RUN_CSV, SUMMARY_JSON, write_summary
from chlab.runner import run_scenario, summarize
from chlab.scenarios import builtin_names, builtin_scenario
from chlab.solver import RunLog, Status
from helpers import read_csv, read_summary

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: The fixed run.csv columns, ahead of the probes' columns.
_FIXED_COLUMNS = len(RunLog(extra_names=(), rows=[]).header)


def _rebuild(rundir: Path, tmp_path: Path) -> str:
    """summary.json as ``summarize`` rebuilds it from the run's tables and
    the facts no table records, written by the run's own writer."""
    stored = read_summary(rundir / SUMMARY_JSON)
    scenario = scenario_from_dict(stored["config"])
    header, data = read_csv(rundir / RUN_CSV)
    log = RunLog(extra_names=tuple(header[_FIXED_COLUMNS:]),
                 rows=[tuple(row) for row in data.tolist()])
    rows, profile_end = None, (None, None)
    if stored["profiles"] is not None:
        rows = read_csv(rundir / PROFILE_CSV)[1].tolist()
        profile_end = (stored["profiles"]["error"],
                       stored["profiles"].get("reconstruction_error_rel"))
    rebuilt = summarize(scenario, scenario.build_initial(), log, rows,
                        Status(stored["status"]), stored["steps"],
                        profile_end)
    rebuilt.update({key: stored[key]
                    for key in ("seed", "timing_seconds", "artifacts")})
    write_summary(tmp_path / "rebuilt.json", rebuilt)
    return (tmp_path / "rebuilt.json").read_text()


def _assert_rebuilds(scenario, tmp_path: Path) -> dict:
    rundir = run_scenario(scenario, out_root=tmp_path / "runs").outdir
    assert _rebuild(rundir, tmp_path) == (rundir / SUMMARY_JSON).read_text()
    return read_summary(rundir / SUMMARY_JSON)


def _tiny(name, grid, initial_data, solver):
    return scenario_from_dict({"name": name, "grid": grid,
                               "initial_data": initial_data,
                               "solver": solver, "profiles_enabled": True})


def _profiles_stop_mid_run():
    # the Gaussian's weighted source reaches the edge of the small box
    return _tiny("stop", {"L": 12.0, "N": 512},
                 {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
                 {"t_end": 2.0, "snapshot_stride": 4, "boundary_tol": 1e-3})


def _profiles_refused_at_t0():
    # e^{-0.4|x|} decays too slowly against e^{|x|} for the crop
    return _tiny("refused", {"L": 60.0, "N": 2048},
                 {"kind": "mollified_exponential", "rate": 0.4,
                  "mollify_width": 0.1},
                 {"t_end": 0.05})


class TestRebuildFromTables:
    """Every kind of block, on cheap runs; each case asserts the kind of
    block it stands for, so that coverage cannot silently go."""

    def test_persistence_and_profile_rows(self, tmp_path):
        s = _assert_rebuilds(load_scenario(CONFIGS / "gaussian-hump.yaml"),
                             tmp_path)
        assert len(s["persistence"]) == 2
        assert s["profiles"]["snapshots"] > 0
        assert s["profiles"]["error"] is None
        assert s["profiles"]["reconstruction_error_rel"] is not None

    def test_rate_cap(self, tmp_path):
        s = _assert_rebuilds(load_scenario(CONFIGS / "peakon-rate-cap.yaml"),
                             tmp_path)
        assert s["rate_cap"]["factor"] == 2.0

    def test_breakdown_bracket(self, tmp_path):
        s = _assert_rebuilds(
            load_scenario(CONFIGS / "steepening-breakdown.yaml"), tmp_path)
        assert s["status"] == "WaveBreaking"
        assert s["t_star_bracket"][1] == s["t_final"]

    def test_profiles_stopped_mid_run(self, tmp_path):
        s = _assert_rebuilds(_profiles_stop_mid_run(), tmp_path)
        assert s["profiles"]["snapshots"] > 0
        assert s["profiles"]["error"].startswith("profiles stopped at t=1")
        assert s["profiles"]["reconstruction_error_rel"] is None

    def test_profiles_refused_at_t0(self, tmp_path):
        s = _assert_rebuilds(_profiles_refused_at_t0(), tmp_path)
        assert s["profiles"]["snapshots"] == 0
        assert s["profiles"]["error"].startswith("profiles stopped at t=0: ")


@pytest.mark.slow
@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_rebuilds(name, profiled, tmp_path):
    scenario = builtin_scenario(name)
    _assert_rebuilds(scenario.with_profiles() if profiled else scenario,
                     tmp_path)
