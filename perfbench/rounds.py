"""The three workloads as fixed lists of operations.

One operation is one unit of ``attempted``.  ``run`` makes the library or
CLI calls and is the only part that is timed; ``view`` turns its raw
result (objects, files written, printed text) into named arrays; ``check``
compares those arrays with the benchmark's own references and properties
and returns the failures it found.  ``key`` and ``bump`` name the entry and
the size of the perturbation the self-test applies to show that the check
catches it.

Each tolerance sits above the largest error measured over seeds 0-99 and
below the self-test's bump; README.md lists both.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from inputs import COIN_T_MAX, GAUGE_DOMAIN, Inputs, write_coin_table

TOL_STEP = 1e-11  # library stepping vs the reference stepper, per amplitude
TOL_CLOSED = 1e-10  # closed form vs stepping, the CLI's own gate
TOL_NORM = 1e-11
TOL_PMF = 1e-13
TOL_BINOMIAL = 1e-9  # relative; both sides exponentiate log-gamma sums near 1e4
TOL_SLOPE = 1e-5  # fitted slope over t in [500, 1000] vs ballistic
TOL_DRESS = 1e-12  # quasi moduli, exact components
# Phases are read where both components exceed 1e-9, so rounding in the
# smallest amplitudes shows up magnified in the worst site's phase.
TOL_PHASE = 1e-9
TOL_FACTOR = 3.5  # invariant pairs: residual shrink per grid doubling
TOL_FIELD = {128: 4e-5, 256: 1e-5, 512: 2.5e-6, 1024: 6e-7}  # changing pair
TOL_POT = {256: 1e-4, 512: 2.5e-5}  # np.gradient vs analytic derivatives
TOL_EFIELD = 1e-9
TOL_CLI_POT = 1e-4  # CLI null pair: potentials vanish up to O(h^2) at res 256

WALK_T = 2000
RECORD_T = 1000
SPECTRAL_T = 500
CLI_CLOSED_T = 300
FORMULA_T = 300
TABLE_T = 120
DRESS_T = 200
CLI_EXACT_T = 60
RESOLUTIONS = (128, 256, 512, 1024)
PAIR_RES = 512
CSV_RES = 256
WINDOW = dict(n_max=30, t_max=59)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[["Context"], Any]
    view: Callable[["Context", Any], dict]
    check: Callable[["Context", dict], list]
    key: str
    bump: float = 1e-8


class Context:
    """Library handles, inputs, cached references and the round's files."""

    def __init__(self, ql, cli, inputs: Inputs, workdir: Path, pause=None):
        self.ql, self.cli, self.inp = ql, cli, inputs
        self.workdir = workdir
        self.coin_path = workdir / f"coin_t{COIN_T_MAX}.csv"
        self.tmp: Path | None = None  # per-round output directory
        self.results: dict = {}  # raw results of earlier operations in the round
        self._refs: dict = {}
        # library calls made by checks run under ``pause`` so a tracer skips them
        self.pause = pause or contextlib.nullcontext

    def prepare(self, workload: str) -> None:
        if workload == "dressing":
            write_coin_table(self.inp.dressing.coin, COIN_T_MAX, self.coin_path)

    def cached(self, name, build: Callable):
        if name not in self._refs:
            self._refs[name] = build()
        return self._refs[name]

    # library objects, built inside the timed region
    def init(self):
        w = self.inp.walk
        return self.ql.InitialState(eta=w.eta, gamma=w.gamma)

    def coin(self):
        w = self.inp.walk
        return self.ql.CoinAngles(w.theta, w.alpha, w.beta, w.chi)

    def formula(self):
        return self.ql.CoinField.from_functions(*self.inp.dressing.coin.scalar)

    def main(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv] + ["--outdir", str(self.tmp)])
        return code, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _close(errs, what, got, want, tol, rel=False):
    """Max absolute (or, with ``rel``, elementwise relative) deviation within ``tol``."""
    got, want = np.asarray(got), np.asarray(want)
    if want.ndim == 0:
        want = np.broadcast_to(want, got.shape)
    if got.shape != want.shape:
        errs.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    diff = np.abs(got - want)
    if rel:
        diff = diff / (np.abs(want) + 1e-200)
    gap = float(np.max(diff)) if got.size else 0.0
    if not gap <= tol:
        errs.append(f"{what}: deviation {gap:.3e} > {tol:.1e}")


def _same(errs, what, got, want):
    if not np.array_equal(got, want):
        errs.append(f"{what}: not bit-identical")


def _amps(state) -> dict:
    return {"t": state.t, "plus": state.plus_amps, "minus": state.minus_amps}


def _check_spinor(errs, what, v, want, tol):
    """Window, exact parity zeros, norm and closeness to ``want = (plus, minus)``."""
    t = v["t"]
    if v["plus"].shape != (2 * t + 1,):
        errs.append(f"{what}: window of length {v['plus'].shape} at t={t}")
        return
    odd = slice(1, None, 2)
    if np.any(v["plus"][odd] != 0) or np.any(v["minus"][odd] != 0):
        errs.append(f"{what}: off-parity sites are not exactly zero")
    norm = float(np.sum(np.abs(v["plus"]) ** 2 + np.abs(v["minus"]) ** 2))
    if not abs(norm - 1.0) <= TOL_NORM:
        errs.append(f"{what}: norm drift {abs(norm - 1.0):.3e}")
    _close(errs, f"{what} plus", v["plus"], want[0], tol)
    _close(errs, f"{what} minus", v["minus"], want[1], tol)


def _table(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _spinor_csv(path) -> dict:
    rows = _table(path)
    plus = np.empty(len(rows), dtype=np.complex128)
    minus = np.empty(len(rows), dtype=np.complex128)
    plus.real, plus.imag = rows[:, 1], rows[:, 2]
    minus.real, minus.imag = rows[:, 3], rows[:, 4]
    return {"t": (len(rows) - 1) // 2, "plus": plus, "minus": minus}


def _report_view(d: dict) -> dict:
    per = d["per_time_deviations"]
    out = {k: np.array([p[k] for p in per]) for k in per[0]}
    out["max"] = {k: d[k] for k in d if k.startswith("max_") or k == "phase_map_divergence"}
    return out


def _check_report_maxima(errs, v):
    for field, col in (("max_modulus_deviation", "modulus"), ("max_pmf_deviation", "pmf"),
                       ("phase_map_divergence", "phase_map"),
                       ("max_component_deviation", "component")):
        if col in v and v["max"].get(field) is not None:
            if v["max"][field] != float(np.max(v[col])):
                errs.append(f"{field} is not the maximum of its per-time column")


def _check_exact(errs, v, t_final):
    if len(v["t"]) != t_final + 1:
        errs.append(f"{len(v['t'])} per-time entries, want {t_final + 1}")
    for col in ("component", "modulus", "pmf"):
        _close(errs, f"exact dressing {col}", v[col], 0.0, TOL_DRESS)
    _check_report_maxima(errs, v)


def _check_phase_shift(errs, v, rate):
    """A characteristic dressing moves the relative phase by exactly -rate t.

    Up to t = 2 the two components may share no occupied site, and the
    report then reads 0.
    """
    want = np.array([abs(ref.wrapped(rate * t)) for t in v["t"]])
    early = (v["t"] <= 2) & (v["phase_map"] == 0)
    want[early] = 0.0
    _close(errs, "relative-phase shift", v["phase_map"], want, TOL_PHASE)


def _walk_ref(ctx):
    w = ctx.inp.walk
    return ctx.cached("walk", lambda: ref.step_states(
        w.eta, w.gamma, WALK_T, ref.constant_coin(w.theta, w.alpha, w.beta, w.chi),
        keep=(CLI_CLOSED_T, SPECTRAL_T, RECORD_T, WALK_T)))


def _preset_ref(ctx, theta, eta, gamma, t_final, beta_rate=0.0):
    def build():
        return ref.step_states(eta, gamma, t_final,
                               lambda ns, t: (theta, 0.0, beta_rate * t, 0.0),
                               keep=range(t_final + 1))
    return ctx.cached(("preset", theta, eta, gamma, t_final, beta_rate), build)


def _mean(pm):
    plus, minus = pm
    t = (plus.size - 1) // 2
    return float(np.sum(np.arange(-t, t + 1) * (np.abs(plus) ** 2 + np.abs(minus) ** 2)))


def _argv_walk(w):
    return [f"--theta={w.theta!r}", f"--eta={w.eta!r}", f"--gamma={w.gamma!r}",
            f"--alpha={w.alpha!r}", f"--beta={w.beta!r}", f"--chi={w.chi!r}"]


def _exit_ok(errs, code, text):
    if code != 0:
        errs.append(f"exit code {code}: {text.strip()[-200:]}")


# ---------------------------------------------------------------------------
# walk: constant coin, stepping, closed form, observables, state CSV
# ---------------------------------------------------------------------------

def _walk_evolve(ctx):
    state = ctx.ql.evolve(ctx.init(), ctx.coin(), WALK_T)
    ctx.results["state"] = state
    return state


def _walk_evolve_check(ctx, v):
    errs = []
    _check_spinor(errs, "evolve", v, _walk_ref(ctx)[WALK_T], TOL_STEP)
    return errs


def _walk_record(ctx):
    ql, w = ctx.ql, ctx.inp.walk
    final, records = ql.evolve(ctx.init(), ctx.coin(), RECORD_T, record_trajectory=True)
    path = ctx.tmp / "trajectory.csv"
    ql.save_trajectory_csv(path, records)
    ts = np.array([r.t for r in records])
    xs = np.array([r.mean_x for r in records])
    fitted = ql.fitted_slope(ts, xs)
    return final, records, path, fitted, ql.ballistic_slope(w.theta, w.eta, w.phi)


def _walk_record_view(ctx, raw):
    final, records, path, fitted, slope = raw
    v = _amps(final)
    v["csv"] = _table(path)
    v["records"] = np.array([[r.t, r.mean_x, r.p_plus, r.p_minus] for r in records])
    v["fitted"], v["slope"] = np.array([fitted]), slope
    return v


def _walk_record_check(ctx, v):
    errs = []
    w = ctx.inp.walk
    refs = _walk_ref(ctx)
    _check_spinor(errs, "final state", v, refs[RECORD_T], TOL_STEP)
    _same(errs, "trajectory CSV vs records", v["csv"], v["records"])
    if v["csv"].shape[0] != RECORD_T + 1:
        errs.append(f"trajectory CSV has {v['csv'].shape[0]} rows")
    _close(errs, "p_plus + p_minus", v["records"][:, 2] + v["records"][:, 3], 1.0, TOL_NORM)
    _close(errs, "final mean position", v["records"][-1, 1], _mean(refs[RECORD_T]), 1e-8)
    want = ref.ballistic(w.theta, w.eta, w.phi)
    _close(errs, "ballistic_slope", v["slope"], want, 1e-13)
    _close(errs, "fitted slope vs ballistic", v["fitted"], want, TOL_SLOPE)
    return errs


def _closed(method, t):
    def run(ctx):
        return ctx.ql.closed_form_amplitudes(ctx.init(), ctx.coin(), t, method=method)

    def check(ctx, v):
        errs = []
        _check_spinor(errs, f"closed form ({method}) t={t}", v, _walk_ref(ctx)[t], TOL_CLOSED)
        return errs

    return run, check


def _walk_observables(ctx):
    ql, w = ctx.ql, ctx.inp.walk
    state = ctx.results["state"]
    ns = state.n_values
    rho = ql.pmf(state)
    env = ql.stationary_pmf(ns, WALK_T, w.theta, w.eta, w.phi)
    cl = ql.classical_pmf(math.cos(w.theta) ** 2, WALK_T)
    path = ctx.tmp / "comparison.csv"
    ql.save_comparison_csv(path, ns, rho, env, cl)
    return rho, env, cl, path


def _walk_observables_view(ctx, raw):
    rho, env, cl, path = raw
    return {"rho": rho, "env": env, "classical": cl, "csv": _table(path)}


def _walk_observables_check(ctx, v):
    errs = []
    w = ctx.inp.walk
    plus, minus = _walk_ref(ctx)[WALK_T]
    _close(errs, "pmf", v["rho"], np.abs(plus) ** 2 + np.abs(minus) ** 2, TOL_PMF)
    ns = np.arange(-WALK_T, WALK_T + 1)
    env = ctx.cached("envelope", lambda: ref.envelope(ns, WALK_T, w.theta, w.eta, w.phi))
    _close(errs, "stationary envelope", v["env"], env, 1e-12 * float(np.max(env)))
    cl = ctx.cached("binomial", lambda: ref.binomial_pmf(math.cos(w.theta) ** 2, WALK_T))
    _close(errs, "classical pmf", v["classical"], cl, TOL_BINOMIAL, rel=True)
    cols = np.column_stack([ns, v["rho"], v["env"], v["classical"]])
    _same(errs, "comparison CSV", v["csv"], cols)
    return errs


def _walk_spinor_csv(ctx):
    path = ctx.tmp / "spinor.csv"
    ctx.ql.save_spinor_csv(ctx.results["state"], path)
    return ctx.ql.load_spinor_csv(path)


def _walk_spinor_csv_check(ctx, v):
    errs = []
    saved = ctx.results["state"]
    _same(errs, "loaded plus", v["plus"], saved.plus_amps)
    _same(errs, "loaded minus", v["minus"], saved.minus_amps)
    _check_spinor(errs, "loaded state", v, _walk_ref(ctx)[WALK_T], TOL_STEP)
    return errs


def _walk_cli_closedform(ctx):
    return ctx.main(["closedform", *_argv_walk(ctx.inp.walk), "--t-final", CLI_CLOSED_T,
                     "--method", "spectral"])


def _walk_cli_closedform_view(ctx, raw):
    code, text = raw
    v = _spinor_csv(ctx.tmp / f"closedform_t{CLI_CLOSED_T}.csv")
    m = re.search(r"deviation from stepping: (\S+)", text)
    v.update(code=code, text=text, printed=float(m.group(1)) if m else math.nan)
    return v


def _walk_cli_closedform_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    if not v["printed"] <= TOL_CLOSED:
        errs.append(f"printed deviation {v['printed']:.3e}")
    _check_spinor(errs, "closedform CSV", v, _walk_ref(ctx)[CLI_CLOSED_T], TOL_CLOSED)
    return errs


def _walk_cli_fig1a(ctx):
    return ctx.main(["figures", "--which", "1a"])


def _walk_cli_fig1a_view(ctx, raw):
    code, text = raw
    rows = _table(ctx.tmp / "fig1a_comparison_t100.csv")
    return {"code": code, "text": text, "rho": rows[:, 1], "rows": rows}


def _walk_cli_fig1a_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    theta, eta, phi, t = math.pi / 4, math.pi / 16, math.pi, 100
    plus, minus = _preset_ref(ctx, theta, eta, -phi, t)[t]
    _close(errs, "fig1a exact pmf", v["rho"], np.abs(plus) ** 2 + np.abs(minus) ** 2, TOL_PMF)
    ns = np.arange(-t, t + 1)
    env = ref.envelope(ns, t, theta, eta, phi)
    _close(errs, "fig1a envelope", v["rows"][:, 2], env, 1e-12 * float(np.max(env)))
    _close(errs, "fig1a classical", v["rows"][:, 3], ref.binomial_pmf(0.5, t), TOL_BINOMIAL,
           rel=True)
    return errs


def _walk_cli_fig2(ctx):
    return ctx.main(["figures", "--which", "2"])


def _walk_cli_fig2_view(ctx, raw):
    code, text = raw
    traj = _table(ctx.tmp / "fig2_trajectory.csv")
    line = _table(ctx.tmp / "fig2_ballistic.csv")
    return {"code": code, "text": text, "mean_x": traj[:, 1], "t": traj[:, 0],
            "line": line[:, 1]}


def _walk_cli_fig2_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    theta = eta = math.pi / 6
    refs = _preset_ref(ctx, theta, eta, 0.0, 40)
    _close(errs, "fig2 mean position", v["mean_x"], [_mean(refs[t]) for t in range(41)], 1e-12)
    _close(errs, "fig2 ballistic line", v["line"],
           ref.ballistic(theta, eta, 0.0) * np.arange(41), 1e-13)
    return errs


def walk_ops() -> list:
    rec_run, rec_check = _closed("recursion", WALK_T)
    spec_run, spec_check = _closed("spectral", SPECTRAL_T)
    view = lambda ctx, s: _amps(s)  # noqa: E731
    return [
        Op("evolve", _walk_evolve, view, _walk_evolve_check, "plus"),
        Op("evolve_record", _walk_record, _walk_record_view, _walk_record_check, "plus"),
        Op("closed_form_recursion", rec_run, view, rec_check, "plus"),
        Op("closed_form_spectral", spec_run, view, spec_check, "plus"),
        Op("observables", _walk_observables, _walk_observables_view,
           _walk_observables_check, "rho"),
        Op("spinor_csv", _walk_spinor_csv, view, _walk_spinor_csv_check, "plus"),
        Op("cli_closedform", _walk_cli_closedform, _walk_cli_closedform_view,
           _walk_cli_closedform_check, "plus"),
        Op("cli_figures_1a", _walk_cli_fig1a, _walk_cli_fig1a_view, _walk_cli_fig1a_check, "rho"),
        Op("cli_figures_2", _walk_cli_fig2, _walk_cli_fig2_view, _walk_cli_fig2_check, "mean_x"),
    ]


# ---------------------------------------------------------------------------
# dressing: formula and tabulated coins, phase dressings
# ---------------------------------------------------------------------------

def _formula_ref(ctx):
    w, coin = ctx.inp.walk, ctx.inp.dressing.coin
    return ctx.cached("formula", lambda: ref.step_states(
        w.eta, w.gamma, FORMULA_T, coin.vector, keep=(TABLE_T, FORMULA_T)))


def _dress_formula(ctx):
    return ctx.ql.evolve(ctx.init(), ctx.formula(), FORMULA_T)


def _dress_formula_check(ctx, v):
    errs = []
    _check_spinor(errs, "formula coin", v, _formula_ref(ctx)[FORMULA_T], TOL_STEP)
    return errs


def _dress_table(ctx):
    table = ctx.ql.load_coin_field_csv(ctx.coin_path)
    return ctx.ql.evolve(ctx.init(), table, TABLE_T)


def _dress_table_check(ctx, v):
    errs = []
    _check_spinor(errs, "tabulated coin", v, _formula_ref(ctx)[TABLE_T], TOL_STEP)

    def from_formula():
        with ctx.pause():
            return ctx.ql.evolve(ctx.init(), ctx.formula(), TABLE_T)

    twin = ctx.cached("table_twin", from_formula)
    _same(errs, "table vs formula plus", v["plus"], twin.plus_amps)
    _same(errs, "table vs formula minus", v["minus"], twin.minus_amps)
    return errs


def _dress_quasi(ctx):
    ql = ctx.ql
    phases = ql.quasi_invariant_phases(ctx.inp.dressing.rate)
    return ql.verify_quasi_invariance(ctx.init(), ctx.coin(), phases, DRESS_T)


def _dress_quasi_check(ctx, v):
    errs = []
    if len(v["t"]) != DRESS_T + 1:
        errs.append(f"{len(v['t'])} per-time entries, want {DRESS_T + 1}")
    for col in ("modulus", "pmf"):
        _close(errs, f"quasi dressing {col}", v[col], 0.0, TOL_DRESS)
    _check_phase_shift(errs, v, ctx.inp.dressing.rate)
    _check_report_maxima(errs, v)
    return errs


def _dress_exact(twin: bool):
    def run(ctx):
        ql, d = ctx.ql, ctx.inp.dressing
        phases = (ql.PhaseField(d.common, d.common_twin) if twin
                  else ql.PhaseField.symmetric(d.common))
        return ql.verify_exact_invariance(ctx.init(), ctx.formula(), phases, DRESS_T)

    return run


def _dress_cli_invariance(ctx):
    return ctx.main(["invariance", "--family", "exact", *_argv_walk(ctx.inp.walk),
                     f"--a={ctx.inp.dressing.cli_a!r}", "--t-final", CLI_EXACT_T])


def _dress_cli_invariance_view(ctx, raw):
    code, text = raw
    report = json.loads((ctx.tmp / "invariance_report.json").read_text())
    v = _report_view(report)
    v.update(code=code, text=text, inputs=report["inputs"])
    return v


def _dress_cli_invariance_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    _check_exact(errs, v, CLI_EXACT_T)
    if v["inputs"].get("a") != ctx.inp.dressing.cli_a:
        errs.append("report does not echo the dressing coefficient")
    return errs


def _dress_cli_fig3(ctx):
    return ctx.main(["figures", "--which", "3"])


def _dress_cli_fig3_view(ctx, raw):
    code, text = raw
    report = _report_view(json.loads((ctx.tmp / "fig3_report.json").read_text()))
    still = _spinor_csv(ctx.tmp / "fig3_reference_t16.csv")
    drift = _spinor_csv(ctx.tmp / "fig3_drifting_t16.csv")
    return {"code": code, "text": text, "t": report["t"], "phase_map": report["phase_map"],
            "modulus": report["modulus"], "plus": still["plus"], "minus": still["minus"],
            "drift_plus": drift["plus"], "drift_minus": drift["minus"]}


def _dress_cli_fig3_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    theta = eta = math.pi / 3
    still = _preset_ref(ctx, theta, eta, 0.0, 16)[16]
    drift = _preset_ref(ctx, theta, eta, 0.0, 16, beta_rate=0.1)[16]
    _close(errs, "fig3 reference plus", v["plus"], still[0], TOL_STEP)
    _close(errs, "fig3 reference minus", v["minus"], still[1], TOL_STEP)
    _close(errs, "fig3 drifting plus", v["drift_plus"], drift[0], TOL_STEP)
    _close(errs, "fig3 drifting minus", v["drift_minus"], drift[1], TOL_STEP)
    _close(errs, "fig3 moduli", np.abs(v["drift_plus"]), np.abs(v["plus"]), TOL_DRESS)
    _check_phase_shift(errs, v, 0.1)
    return errs


def dressing_ops() -> list:
    view = lambda ctx, s: _amps(s)  # noqa: E731
    report = lambda ctx, r: _report_view(r.to_dict())  # noqa: E731

    def exact_check(ctx, v):
        errs = []
        _check_exact(errs, v, DRESS_T)
        return errs

    return [
        Op("formula_evolve", _dress_formula, view, _dress_formula_check, "plus"),
        Op("coin_table_evolve", _dress_table, view, _dress_table_check, "plus"),
        Op("verify_quasi", _dress_quasi, report, _dress_quasi_check, "phase_map"),
        Op("verify_exact_shared", _dress_exact(False), report, exact_check, "component"),
        Op("verify_exact_pointwise", _dress_exact(True), report, exact_check, "component"),
        Op("cli_invariance_exact", _dress_cli_invariance, _dress_cli_invariance_view,
           _dress_cli_invariance_check, "component"),
        Op("cli_figures_3", _dress_cli_fig3, _dress_cli_fig3_view, _dress_cli_fig3_check,
           "drift_plus"),
    ]


# ---------------------------------------------------------------------------
# gauge: continuum reading, stencils and sampling, CSV writers
# ---------------------------------------------------------------------------

def _grid(res):
    x0, x1, t0, t1 = GAUGE_DOMAIN
    return np.linspace(x0, x1, res), np.linspace(t0, t1, res)


def _residual(name):
    def run(ctx):
        ql = ctx.ql
        pair = ql.SmoothPhasePair(*ctx.inp.gauge.pairs[name])
        out = {r: ql.efield_invariance_residual(pair, GAUGE_DOMAIN, r) for r in RESOLUTIONS}
        if name == "wave":  # the CSV operation writes this field
            ctx.results["wave_field"] = out[CSV_RES][1]
        return out

    def view(ctx, raw):
        v = {f"field{r}": field for r, (_, field) in raw.items()}
        v["peaks"] = np.array([peak for peak, _ in raw.values()])
        v["finest"] = v.pop(f"field{RESOLUTIONS[-1]}")
        return v

    def check(ctx, v):
        errs = []
        fields = [v[f"field{r}"] for r in RESOLUTIONS[:-1]] + [v["finest"]]
        for r, field, peak in zip(RESOLUTIONS, fields, v["peaks"]):
            if field.shape != (r, r):
                errs.append(f"res {r}: field shape {field.shape}")
                return errs
            if float(np.max(np.abs(field))) != peak:
                errs.append(f"res {r}: returned maximum is not max |field|")
            if name == "changing":
                xs, _ = _grid(r)
                want = 0.25 * ctx.inp.gauge.field_a * np.broadcast_to(xs, (r, r))
                _close(errs, f"res {r} residual vs A X / 4", field, want, TOL_FIELD[r])
        if name != "changing":
            maxima = [float(np.max(np.abs(f))) for f in fields]
            for r, m0, m1 in zip(RESOLUTIONS, maxima, maxima[1:]):
                if not m0 >= TOL_FACTOR * m1:
                    errs.append(f"refinement from res {r}: factor {m0 / m1:.3f} < {TOL_FACTOR}")
        return errs

    return Op(f"residual_{name}", run, view, check, "finest", 1e-5)


def _check_symmetric_potentials(errs, ctx, a_t, a_x, res):
    xs, ts = _grid(res)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    d_t, d_x = ctx.inp.gauge.symmetric_grad(xx, tt)
    _close(errs, f"res {res} a_t vs dT f / 2", a_t, 0.5 * d_t, TOL_POT[res])
    _close(errs, f"res {res} a_x vs dX f / 2", a_x, 0.5 * d_x, TOL_POT[res])


def _gauge_pair_potentials(ctx):
    ql = ctx.ql
    sym = ctx.inp.gauge.pairs["symmetric"]
    pot = ql.potentials_from_phase_pair(ql.SmoothPhasePair(*sym), GAUGE_DOMAIN, PAIR_RES)
    ctx.results["pair_potentials"] = pot
    return pot


def _gauge_pair_potentials_check(ctx, v):
    errs = []
    _check_symmetric_potentials(errs, ctx, v["a_t"], v["a_x"], PAIR_RES)
    return errs


def _gauge_transform_potentials(ctx):
    ql, g = ctx.ql, ctx.inp.gauge
    coin = ctx.coin()
    phases = ql.PhaseField.symmetric(g.bilinear)
    direct = ql.potentials_from_transform(coin, ql.transform_coin_field(coin, phases), **WINDOW)
    fd = ql.potentials_from_transform(coin, ql.finite_difference_transform(coin, phases),
                                      **WINDOW)
    ctx.results["bilinear_potentials"] = fd
    return direct, fd


def _gauge_transform_view(ctx, raw):
    direct, fd = raw
    return {"a_t": direct.a_t, "a_x": direct.a_x, "a_t_fd": fd.a_t, "a_x_fd": fd.a_x}


def _gauge_transform_check(ctx, v):
    errs = []
    a = ctx.inp.gauge.bilinear_a
    ns = np.arange(-WINDOW["n_max"], WINDOW["n_max"] + 1)
    ts = np.arange(WINDOW["t_max"] + 1)
    tt, nn = np.meshgrid(ts, ns, indexing="ij")
    for tag in ("", "_fd"):
        _close(errs, f"a_t{tag} vs a n", v["a_t" + tag], a * nn, 1e-12)
        _close(errs, f"a_x{tag} vs a (t + 1)", v["a_x" + tag], a * (tt + 1), 1e-12)
    return errs


def _gauge_efield(ctx):
    ql = ctx.ql
    return (ql.electric_field(ctx.results["pair_potentials"]),
            ql.electric_field(ctx.results["bilinear_potentials"]))


def _gauge_efield_check(ctx, v):
    errs = []
    # a common phase is pure gauge: the field it induces vanishes
    _close(errs, "field of the common-phase potentials", v["pair"], 0.0, TOL_EFIELD)
    _close(errs, "field of the bilinear potentials", v["bilinear"], 0.0, TOL_EFIELD)
    return errs


def _gauge_csv(ctx):
    ql = ctx.ql
    sym = ctx.inp.gauge.pairs["symmetric"]
    pot = ql.potentials_from_phase_pair(ql.SmoothPhasePair(*sym), GAUGE_DOMAIN, CSV_RES)
    field = ctx.results["wave_field"]
    xs, ts = _grid(CSV_RES)
    ql.save_potentials_csv(pot, ctx.tmp / "potentials.csv")
    ql.save_residual_csv(ctx.tmp / "residual.csv", xs, ts, field)
    return pot, field


def _gauge_csv_view(ctx, raw):
    pot, field = raw
    return {"a_t": pot.a_t, "a_x": pot.a_x, "residual": field,
            "pot_csv": _table(ctx.tmp / "potentials.csv"),
            "res_csv": _table(ctx.tmp / "residual.csv")}


def _gauge_csv_check(ctx, v):
    errs = []
    xs, ts = _grid(CSV_RES)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    pot = v["pot_csv"]
    if pot.shape != (CSV_RES * CSV_RES, 4) or v["res_csv"].shape != (CSV_RES * CSV_RES, 3):
        errs.append(f"CSV shapes {pot.shape} and {v['res_csv'].shape}")
        return errs
    _same(errs, "potentials CSV a_t", pot[:, 2], v["a_t"].ravel())
    _same(errs, "potentials CSV a_x", pot[:, 3], v["a_x"].ravel())
    _same(errs, "residual CSV values", v["res_csv"][:, 2], v["residual"].ravel())
    _same(errs, "residual CSV x", v["res_csv"][:, 0], xx.ravel())
    _same(errs, "residual CSV t", v["res_csv"][:, 1], tt.ravel())
    _check_symmetric_potentials(errs, ctx, v["a_t"], v["a_x"], CSV_RES)
    return errs


def _gauge_cli(ctx):
    return ctx.main(["gauge", "--pair", "null", "--resolutions", "64,128,256"])


def _gauge_cli_view(ctx, raw):
    code, text = raw
    res = _table(ctx.tmp / "residual_res256.csv")
    pot = _table(ctx.tmp / "potentials_res256.csv")
    printed = {int(r): float(m) for r, m in
               re.findall(r"resolution (\d+): max residual (\S+)", text)}
    factors = [float(f) for f in re.findall(r"factor (\S+)", text)]
    return {"code": code, "text": text, "residual": res[:, 2], "a": pot[:, 2:],
            "printed": printed, "factors": factors}


def _gauge_cli_check(ctx, v):
    errs = []
    _exit_ok(errs, v["code"], v["text"])
    if sorted(v["printed"]) != [64, 128, 256] or len(v["factors"]) != 2:
        errs.append("missing printed residuals or refinement factors")
        return errs
    if min(v["factors"]) < TOL_FACTOR:
        errs.append(f"refinement factors {v['factors']}")
    if v["residual"].shape != (256 * 256,):
        errs.append(f"residual CSV has {v['residual'].shape} values")
        return errs
    peak = float(np.max(np.abs(v["residual"])))
    if not abs(peak - v["printed"][256]) <= 1e-6 * v["printed"][256]:
        errs.append(f"residual CSV maximum {peak:.6e} != printed {v['printed'][256]:.6e}")
    # the null pair rides the light cone: both potential increments vanish
    _close(errs, "null-pair potentials", v["a"], 0.0, TOL_CLI_POT)
    return errs


def gauge_ops() -> list:
    def pot_view(ctx, p):
        return {"a_t": p.a_t, "a_x": p.a_x}

    def efield_view(ctx, raw):
        return {"pair": raw[0], "bilinear": raw[1]}

    return [
        *(_residual(name) for name in ("symmetric", "null", "wave", "changing")),
        Op("potentials_pair", _gauge_pair_potentials, pot_view, _gauge_pair_potentials_check,
           "a_t", 1e-3),
        Op("potentials_transform", _gauge_transform_potentials, _gauge_transform_view,
           _gauge_transform_check, "a_t_fd"),
        Op("electric_field", _gauge_efield, efield_view, _gauge_efield_check, "pair"),
        Op("csv", _gauge_csv, _gauge_csv_view, _gauge_csv_check, "residual"),
        Op("cli_gauge", _gauge_cli, _gauge_cli_view, _gauge_cli_check, "residual", 1e-5),
    ]


WORKLOADS = {"walk": walk_ops, "dressing": dressing_ops, "gauge": gauge_ops}
