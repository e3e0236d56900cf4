"""Command-line front end: parse a run configuration, dispatch to the
library, write figure-ready CSV/JSON files.

Exit codes: 0 success, 2 invalid configuration or input data, 3 a
verification command ran but exceeded its tolerance.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._csvio import write_csv
from .closedform import closed_form_amplitudes
from .coin import (
    CoinAngles,
    CoinField,
    PhaseField,
    load_coin_field_csv,
    load_phase_field_csv,
)
from .errors import InputError
from .evolution import evolve
from .gauge import (
    SmoothPhasePair,
    UnitSystem,
    efield_invariance_residual,
    potentials_from_phase_pair,
    save_potentials_csv,
    save_residual_csv,
)
from .invariance import (
    quasi_invariant_phases,
    verify_exact_invariance,
    verify_quasi_invariance,
)
from .observables import (
    ballistic_slope,
    classical_pmf,
    fitted_slope,
    pmf,
    save_comparison_csv,
    save_trajectory_csv,
    stationary_pmf,
)
from .state import InitialState, save_spinor_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3


class ConfigError(InputError):
    """Bad flag, config field, or input file; maps to exit code 2."""


_PI_FORM = re.compile(r"([+-]?)(\d+)?\*?pi(?:/(\d+))?")


def parse_angle(value) -> float:
    """Parse an angle given in radians.

    Accepts plain numbers plus exact rational multiples of pi written as
    strings: "pi/4", "3pi/16", "-pi", "2*pi/5".
    """
    if not isinstance(value, str):
        return _parse_number("angle", value)
    text = value.strip().lower().replace(" ", "")
    m = _PI_FORM.fullmatch(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ConfigError(f"zero denominator in angle {value!r}")
        return sign * float(Fraction(num, den)) * math.pi
    return _parse_number("angle", text)


@dataclass
class RunConfig:
    """Validated bag of everything a command might need."""

    command: str
    theta: float | None = None
    eta: float = 0.0
    gamma: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    chi: float = 0.0
    phi: float | None = None
    t_final: int | None = None
    method: str = "auto"
    record: bool = False
    coin_file: str | None = None
    phase_file: str | None = None
    family: str = "quasi"
    beta1: float = 0.1
    a: float = 0.1
    pair: str = "symmetric"
    # time extent deliberately not commensurate with the space extent: on a
    # square grid with c dt == dx the light-cone stencils annihilate the
    # null families exactly and leave nothing but rounding noise to refine
    domain: tuple = (-1.0, 1.0, 0.0, 1.5)
    resolutions: tuple = (32, 64, 128, 256)
    min_factor: float = 3.5
    which: str | None = None
    tol: float | None = None
    outdir: Path = Path(".")


_METHODS = ("auto", "spectral", "recursion")
_FAMILIES = ("quasi", "exact")
_PAIRS = ("symmetric", "null", "wave")
_FIGURES = ("1a", "1b", "2", "3")
_ANGLE_FIELDS = ("theta", "eta", "gamma", "alpha", "beta", "chi", "phi", "beta1", "a")
_NEEDS_T = ("evolve", "closedform", "observables", "invariance")
_TYPED_FIELDS = {
    "record": bool, "method": str, "coin_file": str, "phase_file": str,
    "family": str, "pair": str, "which": str, "outdir": str,
}


def _either(choices: tuple) -> str:
    return f"{', '.join(choices[:-1])} or {choices[-1]}"


def _split(name: str, value) -> list:
    if isinstance(value, str):
        return value.split(",")
    if isinstance(value, list):
        return value
    raise ConfigError(f"{name} must be a comma-separated string or a list, got {value!r}")


def _parse_domain(value) -> tuple:
    parts = _split("domain", value)
    if len(parts) != 4:
        raise ConfigError(f"domain needs x0,x1,t0,t1, got {value!r}")
    x0, x1, t0, t1 = (_parse_number("domain", p) for p in parts)
    if not (x1 > x0 and t1 > t0):
        raise ConfigError(f"domain must have positive extent, got {value!r}")
    return (x0, x1, t0, t1)


def _parse_resolutions(value) -> tuple:
    rs = tuple(_parse_int("resolutions", p) for p in _split("resolutions", value))
    if len(rs) < 2 or any(r < 4 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ConfigError(
            f"resolutions must be >= 4 and strictly increasing, got {value!r}"
        )
    return rs


def _parse_number(name: str, value) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _parse_int(name: str, value) -> int:
    # int() would truncate a JSON float and turn a JSON boolean into 0 or 1
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _build_config(args: argparse.Namespace) -> RunConfig:
    cli_given = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config", "command") and v is not None
    }
    from_file: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        from_file = {str(k).replace("-", "_"): v for k, v in data.items()}
        allowed = set(RunConfig.__dataclass_fields__) - {"command"}
        for key in from_file:
            if key not in allowed:
                raise ConfigError(f"unknown config field {key!r}")
    merged = {**from_file, **cli_given}  # explicit flags win over the file

    kwargs: dict = {"command": args.command}
    for name in _ANGLE_FIELDS:
        if name in merged:
            kwargs[name] = parse_angle(merged[name])
    if "t_final" in merged:
        kwargs["t_final"] = _parse_int("t_final", merged["t_final"])
    for name, kind in _TYPED_FIELDS.items():
        if name in merged:
            if not isinstance(merged[name], kind):
                raise ConfigError(
                    f"{name} must be a {kind.__name__}, got {merged[name]!r}"
                )
            kwargs[name] = merged[name]
    for name in ("tol", "min_factor"):
        if name in merged:
            kwargs[name] = _parse_number(name, merged[name])
    # a negative tolerance fails every run and a non-positive factor turns
    # the refinement gate off
    if kwargs.get("tol", 0.0) < 0:
        raise ConfigError(f"tol must be non-negative, got {merged['tol']!r}")
    if kwargs.get("min_factor", 1.0) <= 0:
        raise ConfigError(f"min_factor must be positive, got {merged['min_factor']!r}")
    if "domain" in merged:
        kwargs["domain"] = _parse_domain(merged["domain"])
    if "resolutions" in merged:
        kwargs["resolutions"] = _parse_resolutions(merged["resolutions"])
    kwargs["outdir"] = Path(
        kwargs.get("outdir") or os.environ.get("QWLINE_OUTDIR") or "."
    )
    cfg = RunConfig(**kwargs)

    # a supplied phi fixes the relative phase alpha + beta - gamma
    if cfg.phi is not None:
        cfg.gamma = cfg.alpha + cfg.beta - cfg.phi

    if cfg.command in _NEEDS_T:
        if cfg.t_final is None:
            raise ConfigError(f"missing required field 't_final' for '{cfg.command}'")
        if cfg.t_final < 0:
            raise ConfigError(f"t_final must be non-negative, got {cfg.t_final}")
        needs_theta = not (cfg.command == "evolve" and cfg.coin_file)
        if needs_theta and cfg.theta is None:
            raise ConfigError(f"missing required field 'theta' for '{cfg.command}'")
    if cfg.command == "observables" and cfg.t_final == 0:
        raise ConfigError("observables needs t_final >= 1")
    if cfg.command == "closedform" and cfg.method not in _METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.command == "invariance" and cfg.family not in _FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r} (choose {_either(_FAMILIES)})")
    if cfg.command == "gauge" and cfg.pair not in _PAIRS:
        raise ConfigError(f"unknown pair {cfg.pair!r} (choose {_either(_PAIRS)})")
    if cfg.command == "figures" and cfg.which not in _FIGURES:
        raise ConfigError(f"figures needs --which one of {', '.join(_FIGURES)}")
    return cfg


def _angles(cfg: RunConfig) -> CoinAngles:
    return CoinAngles(theta=cfg.theta, alpha=cfg.alpha, beta=cfg.beta, chi=cfg.chi)


def _init(cfg: RunConfig) -> InitialState:
    return InitialState(eta=cfg.eta, gamma=cfg.gamma)


def _outdir(cfg: RunConfig) -> Path:
    """The output directory, created here, just before a command writes its
    first file, so a request that fails earlier leaves no directory."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    return cfg.outdir


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def _comparison(final, theta: float, eta: float, phi: float) -> list:
    """The columns of a comparison file: the sites of ``final``, its
    distribution, its stationary envelope and the classical walk at the same
    step.  Raises before any file is written if the envelope is undefined."""
    ns, t = final.n_values, final.t
    return [ns, pmf(final), stationary_pmf(ns, t, theta, eta, phi),
            classical_pmf(math.cos(theta) ** 2, t)]


def _save_comparison(path: Path, columns) -> None:
    save_comparison_csv(path, *columns)
    _wrote(path)


def _cmd_evolve(cfg: RunConfig) -> int:
    coin = load_coin_field_csv(cfg.coin_file) if cfg.coin_file else _angles(cfg)
    if cfg.record:
        final, records = evolve(_init(cfg), coin, cfg.t_final, record_trajectory=True)
        traj = _outdir(cfg) / "trajectory.csv"
        save_trajectory_csv(traj, records)
        _wrote(traj)
    else:
        final = evolve(_init(cfg), coin, cfg.t_final)
    path = _outdir(cfg) / f"spinor_t{cfg.t_final}.csv"
    save_spinor_csv(final, path)
    _wrote(path)
    print(f"norm drift {abs(final.norm() - 1.0):.3e}")
    return EXIT_OK


def _cmd_closedform(cfg: RunConfig) -> int:
    init, coin = _init(cfg), _angles(cfg)
    analytic = closed_form_amplitudes(init, coin, cfg.t_final, method=cfg.method)
    stepped = evolve(init, coin, cfg.t_final)
    deviation = max(
        float(np.max(np.abs(analytic.plus_amps - stepped.plus_amps))),
        float(np.max(np.abs(analytic.minus_amps - stepped.minus_amps))),
    )
    path = _outdir(cfg) / f"closedform_t{cfg.t_final}.csv"
    save_spinor_csv(analytic, path)
    _wrote(path)
    print(f"max amplitude deviation from stepping: {deviation:.3e}")
    tol = 1e-10 if cfg.tol is None else cfg.tol
    if deviation > tol:
        print(f"tolerance breach: {deviation:.3e} > {tol:.1e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_observables(cfg: RunConfig) -> int:
    init, coin = _init(cfg), _angles(cfg)
    final, records = evolve(init, coin, cfg.t_final, record_trajectory=True)
    columns = _comparison(final, cfg.theta, cfg.eta, cfg.alpha + cfg.beta - cfg.gamma)
    out = _outdir(cfg)
    traj = out / "trajectory.csv"
    save_trajectory_csv(traj, records)
    _wrote(traj)
    _save_comparison(out / f"comparison_t{cfg.t_final}.csv", columns)
    return EXIT_OK


def _cmd_invariance(cfg: RunConfig) -> int:
    init, coin = _init(cfg), _angles(cfg)
    inputs = {
        "theta": cfg.theta,
        "eta": cfg.eta,
        "gamma": cfg.gamma,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "chi": cfg.chi,
        "t_final": cfg.t_final,
        "family": cfg.family,
    }
    if cfg.phase_file:
        phases = load_phase_field_csv(cfg.phase_file)
        inputs["phase_file"] = str(cfg.phase_file)
    elif cfg.family == "quasi":
        phases = quasi_invariant_phases(cfg.beta1)
        inputs["beta1"] = cfg.beta1
    else:
        a = cfg.a
        phases = PhaseField.symmetric(lambda n, t: a * n * t)
        inputs["a"] = a
    if cfg.family == "quasi":
        report = verify_quasi_invariance(init, coin, phases, cfg.t_final, inputs=inputs)
        gate = max(report.max_modulus_deviation, report.max_pmf_deviation)
    else:
        report = verify_exact_invariance(init, coin, phases, cfg.t_final, inputs=inputs)
        gate = report.max_component_deviation
    path = _outdir(cfg) / "invariance_report.json"
    path.write_text(report.to_json() + "\n")
    _wrote(path)
    print(f"max modulus deviation {report.max_modulus_deviation:.3e}")
    print(f"max pmf deviation {report.max_pmf_deviation:.3e}")
    print(f"phase map divergence {report.phase_map_divergence:.3e}")
    tol = 1e-11 if cfg.tol is None else cfg.tol
    if gate > tol:
        print(f"tolerance breach: {gate:.3e} > {tol:.1e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _smooth_pair(name: str, c: float) -> SmoothPhasePair:
    if name == "symmetric":
        def f(X, T):
            return np.sin(1.3 * X) * np.cos(0.9 * T) + 0.2 * X * T

        return SmoothPhasePair(f, f)
    if name == "null":
        # xi rides one light-cone direction, zeta the other
        return SmoothPhasePair(
            lambda X, T: np.sin(X - c * T),
            lambda X, T: np.cos(0.8 * (X + c * T)),
        )
    # "wave": _build_config admits no name outside _PAIRS
    return SmoothPhasePair(
        lambda X, T: np.sin(X - c * T) + 0.5 * np.cos(0.7 * (X + c * T)),
        lambda X, T: np.cos(1.1 * (X + c * T)) + 0.4 * np.sin(0.6 * (X - c * T)),
    )


def _cmd_gauge(cfg: RunConfig) -> int:
    units = UnitSystem()
    pair = _smooth_pair(cfg.pair, units.c)
    maxima = []
    residual = None
    for res in cfg.resolutions:
        peak, residual = efield_invariance_residual(pair, cfg.domain, res, units)
        maxima.append(peak)
    finest = cfg.resolutions[-1]
    # the residual at the finest resolution lies on the potentials' grid
    potentials = potentials_from_phase_pair(pair, cfg.domain, finest, units)
    # a request that fails anywhere above prints nothing
    out = _outdir(cfg)
    for res, peak in zip(cfg.resolutions, maxima):
        print(f"resolution {res}: max residual {peak:.6e}")
    res_path = out / f"residual_res{finest}.csv"
    save_residual_csv(res_path, potentials.x, potentials.t, residual)
    _wrote(res_path)
    pot_path = out / f"potentials_res{finest}.csv"
    save_potentials_csv(potentials, pot_path)
    _wrote(pot_path)
    worst = math.inf
    for (r0, m0), (r1, m1) in zip(
        zip(cfg.resolutions, maxima), zip(cfg.resolutions[1:], maxima[1:])
    ):
        factor = math.inf if m1 == 0 else m0 / m1
        worst = min(worst, factor)
        print(f"refinement {r0} -> {r1}: factor {factor:.3f}")
    if worst < cfg.min_factor:
        print(
            f"tolerance breach: refinement factor {worst:.3f} < {cfg.min_factor}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_figures(cfg: RunConfig) -> int:
    if cfg.which in ("1a", "1b"):
        theta, eta = (math.pi / 4, math.pi / 16) if cfg.which == "1a" else (
            math.pi / 8,
            3 * math.pi / 16,
        )
        phi, t_final = math.pi, 100
        init = InitialState(eta=eta, gamma=-phi)  # alpha = beta = 0
        final = evolve(init, CoinAngles(theta), t_final)
        columns = _comparison(final, theta, eta, phi)
        _save_comparison(_outdir(cfg) / f"fig{cfg.which}_comparison_t{t_final}.csv", columns)
        return EXIT_OK
    if cfg.which == "2":
        theta = eta = math.pi / 6
        phi, t_final = 0.0, 40
        init = InitialState(eta=eta, gamma=-phi)
        _, records = evolve(init, CoinAngles(theta), t_final, record_trajectory=True)
        out = _outdir(cfg)
        traj = out / "fig2_trajectory.csv"
        save_trajectory_csv(traj, records)
        _wrote(traj)
        ts = np.array([rec.t for rec in records])
        xs = np.array([rec.mean_x for rec in records])
        line = out / "fig2_ballistic.csv"
        write_csv(line, "t,mean_x_ballistic", [ts, ballistic_slope(theta, eta, phi) * ts])
        _wrote(line)
        print(f"fitted slope over t in [20, 40]: {fitted_slope(ts, xs, t_min=20):.6f}")
        return EXIT_OK
    # figure 3: beta drifts by 1/10 each step vs the homogeneous reference
    theta = eta = math.pi / 3
    rate, t_final = 0.1, 16
    init = InitialState(eta=eta, gamma=0.0)
    ref_coin = CoinAngles(theta)
    drifting = CoinField.from_functions(
        lambda n, t: theta,
        lambda n, t: 0.0,
        lambda n, t: rate * t,
        lambda n, t: 0.0,
    )
    ref_final = evolve(init, ref_coin, t_final)
    drift_final = evolve(init, drifting, t_final)
    out = _outdir(cfg)
    for name, state in (("reference", ref_final), ("drifting", drift_final)):
        path = out / f"fig3_{name}_t{t_final}.csv"
        save_spinor_csv(state, path)
        _wrote(path)
    report = verify_quasi_invariance(
        init,
        ref_coin,
        quasi_invariant_phases(rate),
        t_final,
        inputs={
            "theta": theta,
            "eta": eta,
            "gamma": 0.0,
            "beta0": 0.0,
            "beta1": rate,
            "t_final": t_final,
        },
    )
    path = out / "fig3_report.json"
    path.write_text(report.to_json() + "\n")
    _wrote(path)
    print(f"max modulus deviation {report.max_modulus_deviation:.3e}")
    print(f"phase map divergence {report.phase_map_divergence:.3e}")
    return EXIT_OK


_HANDLERS = {
    "evolve": _cmd_evolve,
    "closedform": _cmd_closedform,
    "observables": _cmd_observables,
    "invariance": _cmd_invariance,
    "gauge": _cmd_gauge,
    "figures": _cmd_figures,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with run fields; explicit flags win")
    common.add_argument("--outdir", help="output directory (default: $QWLINE_OUTDIR or .)")

    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--theta", help="coin mixing angle (accepts pi forms, e.g. pi/4)")
    walk.add_argument("--alpha", help="coin phase alpha")
    walk.add_argument("--beta", help="coin phase beta")
    walk.add_argument("--chi", help="coin global phase chi")
    walk.add_argument("--eta", help="initial spinor mixing angle")
    walk.add_argument("--gamma", help="initial spinor relative phase")
    walk.add_argument(
        "--phi", help="set alpha + beta - gamma directly (overrides --gamma)"
    )
    walk.add_argument("--t-final", dest="t_final", help="number of steps")

    parser = argparse.ArgumentParser(
        prog="qwline",
        description="Discrete-time quantum walks on the line: simulation, "
        "closed form, phase dressings and their continuum gauge reading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[common, walk], help="step a walk and save the state")
    p.add_argument("--coin-file", dest="coin_file", help="tabulated coin CSV (n,t,theta,alpha,beta,chi)")
    p.add_argument("--record", action="store_true", default=None, help="also save per-step observables")

    p = sub.add_parser(
        "closedform",
        parents=[common, walk],
        help="evaluate the analytic solution and check it against stepping",
    )
    p.add_argument("--method", choices=_METHODS, help="kernel evaluation route")
    p.add_argument("--tol", help="deviation gate (default 1e-10)")

    sub.add_parser(
        "observables",
        parents=[common, walk],
        help="position distribution vs stationary envelope and classical walk",
    )

    p = sub.add_parser(
        "invariance",
        parents=[common, walk],
        help="verify a phase-dressing family and write a JSON report",
    )
    p.add_argument("--family", choices=_FAMILIES, help="dressing family (default quasi)")
    p.add_argument("--beta0", dest="beta", help="reference coin beta (alias for --beta)")
    p.add_argument("--beta1", help="beta drift per step for the quasi family")
    p.add_argument("--a", help="coefficient of the bilinear exact family xi = a n t")
    p.add_argument("--phase-file", dest="phase_file", help="tabulated phases CSV (n,t,xi,zeta)")
    p.add_argument("--tol", help="deviation gate (default 1e-11)")

    p = sub.add_parser(
        "gauge",
        parents=[common],
        help="electric-field invariance residual under grid refinement",
    )
    p.add_argument("--pair", choices=_PAIRS, help="named smooth dressing pair")
    p.add_argument("--domain", help="x0,x1,t0,t1 (default -1,1,0,1.5)")
    p.add_argument("--resolutions", help="comma-separated grid sizes (default 32,64,128,256)")
    p.add_argument("--min-factor", dest="min_factor", help="required residual shrink per doubling (default 3.5)")

    p = sub.add_parser("figures", parents=[common], help="rebuild the data behind the standard figures")
    p.add_argument("--which", choices=_FIGURES, help="figure preset")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return _HANDLERS[cfg.command](cfg)
    except (InputError, OSError) as exc:
        # OSError: an input file or the output directory cannot be opened
        # or created
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # the sizes a request sets (T, a resolution) fix its arrays' sizes
        print(f"config error: the {args.command} request does not fit in memory: "
              f"{exc or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
