import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwline
from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    evolve,
    load_spinor_csv,
    quasi_invariant_phases,
    save_coin_field_csv,
    save_phase_field_csv,
    save_spinor_csv,
)
from qwline.cli import (_COMMANDS, ConfigError, RunConfig, _build_config, build_parser,
                        main, parse_angle)


def test_parse_angle_forms():
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4, abs=1e-16)
    assert parse_angle("3pi/16") == pytest.approx(3 * math.pi / 16, abs=1e-16)
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("2*pi/5") == pytest.approx(2 * math.pi / 5, abs=1e-16)
    assert parse_angle("pi") == math.pi
    assert parse_angle("0.25") == 0.25
    assert parse_angle("-1e-3") == -1e-3
    assert parse_angle(0.5) == 0.5
    assert parse_angle(2) == 2.0


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "pi/0", "2**pi", "", "1e999", float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            parse_angle(bad)


@settings(max_examples=300, deadline=None)
@given(sign=st.sampled_from(["", "+", "-"]), num=st.integers(0, 10**30),
       den=st.integers(1, 10**30), star=st.booleans())
def test_pi_forms_are_correctly_rounded_rationals_of_pi(sign, num, den, star):
    text = f"{sign}{num}{'*' if star else ''}pi/{den}"
    exact = float(Fraction(num, den))
    assert parse_angle(text) == (-1 if sign == "-" else 1) * exact * math.pi


def test_overflowing_pi_form_exits_2_from_flag_or_file(tmp_path, capsys):
    """A pi form whose value is beyond the float range is one config error,
    given as a flag or in a config file, and creates no directory."""
    huge = "1" + "0" * 400 + "pi"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": huge}))
    out = tmp_path / "out"
    for extra in (["--theta", huge], ["--config", str(cfg)]):
        assert main(["closedform", "--t-final", "3", "--outdir", str(out)] + extra) == 2
        assert capsys.readouterr().err == f"config error: theta must be finite, got {huge!r}\n"
        assert not out.exists()


def test_evolve_writes_round_trippable_state(tmp_path, capsys):
    rc = main(["evolve", "--theta", "pi/4", "--eta", "pi/16",
               "--t-final", "21", "--outdir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "spinor_t21.csv"
    assert path.exists()
    state = load_spinor_csv(path)
    assert state.t == 21
    expected = evolve(InitialState(eta=math.pi / 16),
                      CoinAngles(math.pi / 4), 21)
    assert np.array_equal(state.plus_amps, expected.plus_amps)
    assert np.array_equal(state.minus_amps, expected.minus_amps)
    # Saving the loaded state reproduces the file byte for byte.
    again = tmp_path / "again.csv"
    save_spinor_csv(state, again)
    assert again.read_bytes() == path.read_bytes()


def test_evolve_record_flag(tmp_path, capsys):
    rc = main(["evolve", "--theta", "0.7", "--t-final", "9", "--record",
               "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mean_x,p_plus,p_minus"
    assert len(lines) == 1 + 10


def test_evolve_with_tabulated_coin(tmp_path, capsys):
    coin_path = tmp_path / "coin.csv"
    save_coin_field_csv(
        CoinField.homogeneous(CoinAngles(0.6, 0.1, -0.2, 0.05)),
        t_max=12, path=coin_path)
    rc = main(["evolve", "--coin-file", str(coin_path), "--t-final", "12",
               "--eta", "0.4", "--outdir", str(tmp_path)])
    assert rc == 0
    # Asking for more steps than the table holds is a configuration error.
    rc = main(["evolve", "--coin-file", str(coin_path), "--t-final", "30",
               "--eta", "0.4", "--outdir", str(tmp_path)])
    assert rc == 2


def test_phi_overrides_gamma(tmp_path, capsys):
    rc = main(["evolve", "--theta", "pi/4", "--eta", "pi/16",
               "--alpha", "0.3", "--beta", "0.2", "--phi", "pi",
               "--t-final", "15", "--outdir", str(tmp_path)])
    assert rc == 0
    got = load_spinor_csv(tmp_path / "spinor_t15.csv")
    expected = evolve(
        InitialState(eta=math.pi / 16, gamma=0.3 + 0.2 - math.pi),
        CoinAngles(math.pi / 4, alpha=0.3, beta=0.2), 15)
    assert np.max(np.abs(got.plus_amps - expected.plus_amps)) == 0.0


def test_config_errors_exit_2(tmp_path, capsys):
    out = ["--outdir", str(tmp_path)]
    assert main(["evolve", "--theta", "bogus", "--t-final", "5"] + out) == 2
    assert main(["evolve", "--theta", "pi/4"] + out) == 2
    assert main(["closedform", "--t-final", "5"] + out) == 2
    assert main(["observables", "--theta", "0.5", "--t-final", "0"] + out) == 2
    assert main(["evolve", "--theta", "0.5", "--t-final", "-3"] + out) == 2
    assert main(["figures"] + out) == 2
    assert main(["gauge", "--domain", "1,0,0,1"] + out) == 2
    assert main(["gauge", "--resolutions", "32"] + out) == 2
    assert main(["evolve", "--theta", "0.5", "--t-final", "5",
                 "--config", str(tmp_path / "missing.json")] + out) == 2
    capsys.readouterr()
    # gauge domains the stencils cannot resolve: dx overflows, dt squared
    # overflows, dx squared underflows, x samples repeat, and the symmetric
    # pair's 0.2 X T overflows on the grid
    for domain in ("-1e308,1e308,0,1", "-1,1,0,1e308", "0,1e-320,0,1",
                   "10000000000000000,10000000000000008,0,1",
                   "-4.6e154,4.6e154,0,9e154"):
        assert main(["gauge", "--pair", "symmetric", "--resolutions", "8,16",
                     f"--domain={domain}"] + out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error")
        assert "at resolution 8" in err and "Traceback" not in err
    assert "xi is not finite at (x=" in err
    assert not list(tmp_path.glob("*.csv"))


# the child caps its own address space before it imports numpy; the limit
# acts on that process alone (set there rather than in a ``preexec_fn``,
# which is unsafe to fork from a process with threads)
_CAPPED_MAIN = """import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2 * 10 ** 9 if hard == resource.RLIM_INFINITY else min(2 * 10 ** 9, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from qwline.cli import main
sys.exit(main())
"""


@pytest.mark.parametrize("argv,size", [
    (["gauge", "--pair", "null", "--resolutions", "64,1000000"], "7.28 TiB"),
    (["evolve", "--theta", "pi/4", "--t-final", "1000000000"], "59.6 GiB"),
])
def test_requests_beyond_memory_exit_2(tmp_path, argv, size):
    """A request whose arrays do not fit in memory exits 2 with one config
    error line naming the command and the allocation, not a traceback.
    The output directory is created only before the first file is written,
    and ``gauge`` computes every residual before it prints."""
    src = str(Path(qwline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv, "--outdir", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n") == 1
    assert run.stderr.startswith(f"config error: the {argv[0]} request does not fit in memory: "
                                 f"Unable to allocate {size}")
    if argv[0] == "gauge":
        assert run.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--t-final", "3"], "--coin-file"),
    (["invariance", "--theta", "pi/3", "--t-final", "3"], "--phase-file"),
    (["evolve", "--theta", "pi/4", "--t-final", "3"], "--config"),
    (["evolve", "--theta", "pi/4", "--t-final", "3"], "--outdir"),
    (["gauge", "--resolutions", "8,16"], "--outdir"),
], ids=["coin_file", "phase_file", "config", "outdir", "gauge_outdir"])
def test_paths_that_cannot_be_opened_exit_2(tmp_path, capsys, argv, flag):
    """A directory given as an input file, or an existing file given as the
    output directory, is one config error line, not a traceback, and
    nothing on stdout."""
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"--outdir": tmp_path / "out", flag: taken if flag == "--outdir" else tmp_path}
    assert main(argv + [str(v) for item in paths.items() for v in item]) == 2
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert out == ""


@pytest.mark.parametrize("argv, table", [
    (["evolve", "--t-final", "3", "--coin-file"], "directory"),
    (["invariance", "--theta", "pi/3", "--t-final", "6", "--phase-file"], "nan"),
    (["invariance", "--theta", "pi/3", "--t-final", "6", "--phase-file"], "short"),
    (["closedform", "--theta", "0", "--method", "spectral", "--t-final", "3"], None),
    (["observables", "--theta", "pi/2", "--t-final", "5"], None),
    (["observables", "--theta", "0", "--t-final", "5"], None),
], ids=["coin_file_directory", "phase_file_nan", "phase_file_short", "closedform_spectral",
        "observables_theta_pi_2", "observables_theta_0"])
def test_failed_requests_leave_no_outdir(tmp_path, capsys, argv, table):
    """A request that exits 2 creates no directory and writes no file: an
    unreadable input, a malformed table, a table too short for the walk
    (raised while verifying), an unsupported method, and an observables run
    whose stationary envelope is undefined (theta at 0 or pi/2), which is
    found before the trajectory file is written."""
    if table == "directory":
        argv = argv + [str(tmp_path)]
    elif table is not None:
        path = tmp_path / "phases.csv"
        save_phase_field_csv(quasi_invariant_phases(0.1), t_max=6 if table == "nan" else 4,
                             path=path)
        if table == "nan":
            _corrupt(path, "nan")
        argv = argv + [str(path)]
    out = tmp_path / "new" / "out"
    assert main(argv + ["--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.parent.exists()


def test_gauge_files_share_one_grid(tmp_path, capsys):
    # np.linspace ends this x axis at 0.1, the sampled grid at 0.10000000000000009
    assert main(["gauge", "--resolutions", "8,16", "--domain=-3,0.1,0,1.5",
                 "--outdir", str(tmp_path)]) == 0
    res, pot = (np.loadtxt(tmp_path / f"{name}_res16.csv", delimiter=",", skiprows=1)
                for name in ("residual", "potentials"))
    assert res.shape == (256, 3) and pot.shape == (256, 4)
    assert np.array_equal(res[:, :2], pot[:, :2])
    assert res[-1, 0] == pot[-1, 0] != 0.1


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"theta": "pi/4", "eta": "pi/16", "t_final": 18}))
    rc = main(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "spinor_t18.csv").exists()

    # An explicit flag beats the file entry.
    rc = main(["evolve", "--config", str(cfg), "--eta", "0.9",
               "--outdir", str(tmp_path)])
    assert rc == 0
    got = load_spinor_csv(tmp_path / "spinor_t18.csv")
    expected = evolve(InitialState(eta=0.9), CoinAngles(math.pi / 4), 18)
    assert np.max(np.abs(got.plus_amps - expected.plus_amps)) == 0.0


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 0.5, "t_final": 5, "theta0": 1.0}))
    assert main(["evolve", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 2
    cfg.write_text("{not json")
    assert main(["evolve", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 2


def test_outdir_env_and_flag(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QWLINE_OUTDIR", str(env_dir))
    assert main(["evolve", "--theta", "0.5", "--t-final", "4"]) == 0
    assert (env_dir / "spinor_t4.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["evolve", "--theta", "0.5", "--t-final", "4",
                 "--outdir", str(flag_dir)]) == 0
    assert (flag_dir / "spinor_t4.csv").exists()


def test_closedform_tolerance_gate(tmp_path, capsys):
    out = ["--outdir", str(tmp_path)]
    rc = main(["closedform", "--theta", "pi/4", "--eta", "0.3",
               "--t-final", "25"] + out)
    assert rc == 0
    assert (tmp_path / "closedform_t25.csv").exists()
    rc = main(["closedform", "--theta", "pi/4", "--eta", "0.3",
               "--t-final", "25", "--tol", "1e-30"] + out)
    assert rc == 3


def test_closedform_small_theta_passes_the_gate(tmp_path, capsys):
    """At theta = 1e-4 the mode sum is off by 6.8e-10 at T = 4000; auto
    takes the recursion there and stays inside the 1e-10 gate."""
    rc = main(["closedform", "--theta", "1e-4", "--t-final", "4000",
               "--outdir", str(tmp_path)])
    assert rc == 0


def test_closedform_spectral_at_unit_cosine_exits_2(tmp_path, capsys):
    rc = main(["closedform", "--method", "spectral", "--theta", "1e-9",
               "--t-final", "300", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error")


def test_observables_outputs(tmp_path, capsys):
    rc = main(["observables", "--theta", "pi/4", "--eta", "pi/16",
               "--phi", "pi", "--t-final", "30", "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "comparison_t30.csv").read_text().splitlines()
    assert lines[0] == "n,rho_exact,rho_stationary,rho_classical"
    assert len(lines) == 1 + 61
    assert (tmp_path / "trajectory.csv").exists()


def test_invariance_quasi_family(tmp_path, capsys):
    rc = main(["invariance", "--theta", "pi/3", "--eta", "pi/3",
               "--t-final", "16", "--beta0", "0", "--beta1", "0.1",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "invariance_report.json").read_text())
    assert report["kind"] == "quasi"
    assert report["max_pmf_deviation"] <= 1e-12
    assert report["inputs"]["beta1"] == pytest.approx(0.1)


def test_invariance_exact_family(tmp_path, capsys):
    rc = main(["invariance", "--family", "exact", "--theta", "0.8",
               "--eta", "0.5", "--a", "0.05", "--t-final", "20",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "invariance_report.json").read_text())
    assert report["kind"] == "exact"
    assert report["max_component_deviation"] <= 1e-11


def test_invariance_exact_family_passes_its_gate_at_t_1000(tmp_path, capsys):
    """The default bilinear dressing at T = 1000 reads 3.8e-12 against the
    1e-11 gate."""
    rc = main(["invariance", "--family", "exact", "--theta", "pi/4", "--t-final", "1000",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "invariance_report.json").read_text())
    assert report["max_component_deviation"] <= 1e-11


def test_invariance_phase_file(tmp_path, capsys):
    phase_path = tmp_path / "phases.csv"
    save_phase_field_csv(quasi_invariant_phases(0.1), t_max=12,
                         path=phase_path)
    rc = main(["invariance", "--theta", "pi/3", "--eta", "pi/3",
               "--t-final", "12", "--phase-file", str(phase_path),
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "invariance_report.json").read_text())
    assert report["inputs"]["phase_file"] == str(phase_path)


def test_invariance_tolerance_gate(tmp_path, capsys):
    rc = main(["invariance", "--theta", "pi/3", "--eta", "pi/3",
               "--t-final", "16", "--tol", "1e-18",
               "--outdir", str(tmp_path)])
    assert rc == 3


def test_gauge_refinement_run(tmp_path, capsys):
    rc = main(["gauge", "--pair", "null", "--resolutions", "32,64,128",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "residual_res128.csv").exists()
    assert (tmp_path / "potentials_res128.csv").exists()
    captured = capsys.readouterr()
    assert "refinement 64 -> 128" in captured.out

    rc = main(["gauge", "--pair", "null", "--resolutions", "32,64",
               "--min-factor", "100", "--outdir", str(tmp_path)])
    assert rc == 3


def test_figures_presets(tmp_path, capsys):
    d1 = tmp_path / "f1a"
    assert main(["figures", "--which", "1a", "--outdir", str(d1)]) == 0
    lines = (d1 / "fig1a_comparison_t100.csv").read_text().splitlines()
    assert len(lines) == 1 + 201

    d2 = tmp_path / "f2"
    assert main(["figures", "--which", "2", "--outdir", str(d2)]) == 0
    assert (d2 / "fig2_trajectory.csv").exists()
    lines = (d2 / "fig2_ballistic.csv").read_text().splitlines()
    assert lines[0] == "t,mean_x_ballistic"
    assert len(lines) == 1 + 41
    out = capsys.readouterr().out
    assert "fitted slope" in out

    d3 = tmp_path / "f3"
    assert main(["figures", "--which", "3", "--outdir", str(d3)]) == 0
    assert (d3 / "fig3_reference_t16.csv").exists()
    assert (d3 / "fig3_drifting_t16.csv").exists()
    report = json.loads((d3 / "fig3_report.json").read_text())
    assert report["max_modulus_deviation"] < 1e-11
    # The drifting and reference walks share their distribution on disk too.
    ref = load_spinor_csv(d3 / "fig3_reference_t16.csv")
    drift = load_spinor_csv(d3 / "fig3_drifting_t16.csv")
    rho_ref = np.abs(ref.plus_amps) ** 2 + np.abs(ref.minus_amps) ** 2
    rho_drift = np.abs(drift.plus_amps) ** 2 + np.abs(drift.minus_amps) ** 2
    assert np.max(np.abs(rho_ref - rho_drift)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["evolve", "--theta", "pi/4", "--t-final", "6"],
    ["evolve", "--theta", "pi/4", "--t-final", "6", "--record"],
    ["closedform", "--theta", "pi/5", "--eta", "0.3", "--t-final", "6"],
    ["observables", "--theta", "pi/4", "--eta", "pi/16", "--t-final", "6"],
    ["invariance", "--theta", "pi/3", "--t-final", "6"],
    ["invariance", "--family", "exact", "--theta", "pi/3", "--t-final", "6"],
    ["gauge", "--pair", "null", "--resolutions", "16,32"],
    *(["figures", "--which", which] for which in ("1a", "1b", "2", "3")),
], ids=["evolve", "evolve_record", "closedform", "observables", "invariance_quasi",
        "invariance_exact", "gauge", "figures_1a", "figures_1b", "figures_2", "figures_3"])
def test_wrote_lines_name_every_output_file_once(tmp_path, capsys, argv):
    """Every file a command writes is reported on one ``wrote <path>``
    line, and every reported path is a file in ``--outdir``."""
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 0
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote
    assert sorted(wrote) == sorted(str(path) for path in out.iterdir())


def test_runs_are_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["figures", "--which", "3", "--outdir", str(d)]) == 0
    for name in ("fig3_reference_t16.csv", "fig3_drifting_t16.csv",
                 "fig3_report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _corrupt(path, how):
    """Damage a tabulated CSV in one of the ways a loader must reject."""
    lines = path.read_text().splitlines()
    if how == "header":
        lines[0] = lines[0].replace("n,t", "n,time")
    elif how == "row":
        lines[3] = lines[3] + ",0.5"
    elif how == "duplicate":
        lines.insert(4, lines[3])
    elif how == "nan":
        cells = lines[1].split(",")
        cells[-1] = "nan"
        lines[1] = ",".join(cells)
    elif how == "outside":
        # a stray row at n = 9, beyond every table's t_max
        lines.append(",".join(["9"] + lines[1].split(",")[1:]))
    elif how == "negative_t":
        # a single row at t = -1: no row lies inside any window
        cells = lines[1].split(",")
        cells[1] = "-1"
        lines = [lines[0], ",".join(cells)]
    path.write_text("\n".join(lines) + "\n")


_CORRUPTIONS = ["header", "row", "duplicate", "nan", "outside", "negative_t"]


@pytest.mark.parametrize("how", _CORRUPTIONS)
def test_bad_coin_file_exits_2(tmp_path, capsys, how):
    coin_path = tmp_path / "coin.csv"
    save_coin_field_csv(CoinField.homogeneous(CoinAngles(0.6)), t_max=4,
                        path=coin_path)
    _corrupt(coin_path, how)
    for t_final in ("0", "3"):
        rc = main(["evolve", "--coin-file", str(coin_path), "--t-final", t_final,
                   "--outdir", str(tmp_path)])
        assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    if how == "nan":
        # the first row of the table is the leftmost site at t=0
        assert "chi is not finite at (n=-4, t=0)" in err
    if how == "outside":
        assert "outside the window (|n| > t_max = 4) at (n=9, t=0)" in err
    if how == "negative_t":
        assert "outside the window (t < 0) at (n=-4, t=-1)" in err


@pytest.mark.parametrize("how", _CORRUPTIONS)
def test_bad_phase_file_exits_2(tmp_path, capsys, how):
    phase_path = tmp_path / "phases.csv"
    save_phase_field_csv(quasi_invariant_phases(0.1), t_max=6, path=phase_path)
    _corrupt(phase_path, how)
    rc = main(["invariance", "--theta", "pi/3", "--t-final", "6",
               "--phase-file", str(phase_path), "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if how == "nan":
        assert "zeta is not finite at (n=-6, t=0)" in err
    if how == "outside":
        assert "outside the window (|n| > t_max = 6) at (n=9, t=0)" in err
    if how == "negative_t":
        assert "outside the window (t < 0) at (n=-6, t=-1)" in err


@pytest.mark.parametrize("argv", [
    ["closedform", "--theta", "pi/4", "--t-final", "5", "--tol"],
    ["invariance", "--theta", "pi/3", "--t-final", "5", "--tol"],
    ["gauge", "--pair", "null", "--resolutions", "8,16", "--min-factor"],
])
@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_non_numeric_gates_exit_2(tmp_path, capsys, argv, value):
    assert main(argv + [value, "--outdir", str(tmp_path)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv, value, message", [
    (["closedform", "--theta", "0.5", "--t-final", "4", "--tol"], "-1", "tol must be non-negative"),
    (["invariance", "--theta", "pi/3", "--t-final", "5", "--tol"], "-0.001",
     "tol must be non-negative"),
    (["gauge", "--pair", "null", "--resolutions", "8,16", "--min-factor"], "-5",
     "min_factor must be positive"),
    (["gauge", "--pair", "null", "--resolutions", "8,16", "--min-factor"], "0",
     "min_factor must be positive"),
])
def test_gates_out_of_range_exit_2(tmp_path, capsys, argv, value, message):
    out = tmp_path / "out"
    assert main(argv + [value, "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command, fields", [
    ("gauge", {"domain": 5}),
    ("gauge", {"resolutions": 5}),
    ("evolve", {"theta": 0.5, "t_final": 1.7}),
    ("evolve", {"theta": 0.5, "t_final": True}),
    ("evolve", {"theta": 0.5, "t_final": 3, "record": "no"}),
    ("evolve", {"t_final": 3, "coin_file": 1000000}),
])
def test_config_values_of_wrong_type_exit_2(tmp_path, capsys, command, fields):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# JSON integers beyond the float range, the longer one beyond what Python
# converts from text by default
_HUGE, _LONG = "1" + "0" * 400, "1" + "0" * 5000


@pytest.mark.parametrize("command, text", [
    ("closedform", f'{{"theta": 0.5, "t_final": 3, "tol": {_HUGE}}}'),
    ("gauge", f'{{"min_factor": {_HUGE}}}'),
    ("gauge", f'{{"domain": [0, {_HUGE}, 0, 1]}}'),
    ("evolve", f'{{"theta": {_HUGE}, "t_final": 3}}'),
    ("evolve", f'{{"theta": {_LONG}, "t_final": 3}}'),
    ("gauge", '{"pair": "bogus"}'),
], ids=["tol", "min_factor", "domain", "theta", "long_theta", "pair"])
def test_config_out_of_reach_exits_2_without_a_directory(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.exists()


def test_non_finite_sampled_angle_exits_2(tmp_path, capsys):
    # beta1 = 1e308 overflows the dressed beta at step 1, which is reached
    # before the characteristic check meets its first inf - inf = nan gap
    # (row 3 against row 2)
    rc = main(["invariance", "--theta", "0.5", "--t-final", "3", "--beta1", "1e308",
               "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "beta is not finite at (n=-1, t=1)" in err
    # no numpy warning precedes the one config error line
    assert err.count("\n") == 1 and err.startswith("config error")
    # a = 1e308 overflows the dressed alpha at the first site sampled
    rc = main(["invariance", "--family", "exact", "--theta", "0.5", "--t-final", "3",
               "--a", "1e308", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha is not finite at (n=0, t=0)" in err
    assert err.count("\n") == 1 and err.startswith("config error")


@pytest.mark.parametrize("argv, name, bad", [
    (["closedform", "--theta", "0.5", "--t-final", "3"], "method", "bogus"),
    (["invariance", "--theta", "0.5", "--t-final", "3"], "family", "bogus"),
    (["gauge"], "pair", "bogus"),
    (["figures"], "which", "4"),
])
def test_a_bad_choice_is_one_rule_from_flag_or_file(tmp_path, capsys, argv, name, bad):
    """A flag and its config-file value go through the same parser: the
    same single config error line, exit 2 and no output directory."""
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: bad}))
    errors = []
    for extra in (["--" + name, bad], ["--config", str(cfg)]):
        assert main(argv + extra + ["--outdir", str(out)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1
    assert errors[0].startswith(f"config error: unknown {name} {bad!r} (choose ")
    assert not out.exists()


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _options(capsys, command: str) -> dict:
    """The entries of a subcommand's ``--help`` options list, by flag."""
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    entries: dict = {}
    for entry in re.split(r" (?=--[a-z])", text):
        entries.setdefault(entry.split()[0], entry)  # a flag named in help comes later
    return entries


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_names_every_field_with_its_default(capsys, command):
    options = _options(capsys, command)
    declared = {f.name: f.default for f in fields(RunConfig)}
    spec = _COMMANDS[command]
    for name in ("outdir", *spec.fields):
        default = spec.tol if name == "tol" else declared[name]
        if default is None:
            assert "(default" not in options[_flag(name)]
        else:
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            assert options[_flag(name)].endswith(f"(default {shown})")


def test_every_run_field_is_taken_by_a_command(capsys):
    taken = set().union(*(_options(capsys, command) for command in _COMMANDS))
    for f in fields(RunConfig):
        if f.name != "command":
            assert _flag(f.name) in taken


def test_readme_command_line_examples_parse():
    """Every ``qwline`` line of the README's command-line block builds its
    run config; nothing is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("qwline ")]
    assert len(examples) >= 9
    for argv in examples:
        cfg = _build_config(build_parser().parse_args(argv))
        assert cfg.command == argv[0]


@pytest.mark.parametrize("argv, text, message", [
    (["evolve"], '{"theta": true, "t_final": 3}', "theta must be a number, got True"),
    (["evolve"], "[1, 2]", "config file must hold a JSON object"),
    (["gauge", "--domain", "0,1,2"], None, "domain needs x0,x1,t0,t1, got '0,1,2'"),
], ids=["json_boolean", "json_list", "three_number_domain"])
def test_malformed_requests_are_one_config_error(tmp_path, capsys, argv, text, message):
    """A JSON boolean for a number, a config file that is not an object and
    a domain of three numbers: exit 2, one stderr line, no output directory."""
    if text is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
