"""Command-line front end: parse a run configuration, dispatch to the
library, write figure-ready CSV/JSON files.

Exit codes: 0 success, 2 invalid configuration or input data, 3 a
verification command ran but exceeded its tolerance.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

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
    return _angle("angle", value)


def _angle(name: str, value) -> float:
    if not isinstance(value, str):
        return _parse_number(name, value)
    text = value.strip().lower().replace(" ", "")
    m = _PI_FORM.fullmatch(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ConfigError(f"zero denominator in {name} {value!r}")
        try:
            out = sign * (num / den) * math.pi  # int / int rounds correctly
        except OverflowError:
            out = math.inf
        if not math.isfinite(out):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return out
    return _parse_number(name, text)


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


def _bounded(parse, holds, words: str):
    """``parse``, refusing a value for which ``holds`` is false."""
    def bounded(name: str, value):
        out = parse(name, value)
        if not holds(out):
            raise ConfigError(f"{name} must be {words}, got {value!r}")
        return out

    return bounded


def _instance(kind: type):
    def check(name: str, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value

    return check


_text = _instance(str)


def _split(name: str, value) -> list:
    if isinstance(value, str):
        return value.split(",")
    if isinstance(value, list):
        return value
    raise ConfigError(f"{name} must be a comma-separated string or a list, got {value!r}")


def _parse_domain(name: str, value) -> tuple:
    parts = _split(name, value)
    if len(parts) != 4:
        raise ConfigError(f"{name} needs x0,x1,t0,t1, got {value!r}")
    x0, x1, t0, t1 = (_parse_number(name, p) for p in parts)
    if not (x1 > x0 and t1 > t0):
        raise ConfigError(f"{name} must have positive extent, got {value!r}")
    return (x0, x1, t0, t1)


def _parse_resolutions(name: str, value) -> tuple:
    rs = tuple(_parse_int(name, p) for p in _split(name, value))
    if len(rs) < 2 or any(r < 4 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ConfigError(f"{name} must be >= 4 and strictly increasing, got {value!r}")
    return rs


def _field(default, parse, help: str):
    """A run field: its default, the parser its flag and its config-file
    value both go through (``parse(name, value)``), and its help text."""
    return field(default=default, metadata={"parse": parse, "help": help})


def _choice(default, help: str, *options: str):
    """A run field that takes one of ``options``."""
    either = f"{', '.join(options[:-1])} or {options[-1]}"

    def parse(name: str, value):
        if value not in options:
            raise ConfigError(f"unknown {name} {value!r} (choose {either})")
        return value

    return _field(default, parse, f"{help}: {either}")


@dataclass
class RunConfig:
    """Every run field, each declared once (see :func:`_field`)."""

    command: str
    theta: float | None = _field(None, _angle, "coin mixing angle (accepts pi forms, e.g. pi/4)")
    eta: float = _field(0.0, _angle, "initial spinor mixing angle")
    gamma: float = _field(0.0, _angle, "initial spinor relative phase")
    alpha: float = _field(0.0, _angle, "coin phase alpha")
    beta: float = _field(0.0, _angle, "coin phase beta")
    chi: float = _field(0.0, _angle, "coin global phase chi")
    phi: float | None = _field(None, _angle, "set alpha + beta - gamma (overrides --gamma)")
    t_final: int | None = _field(None, _bounded(_parse_int, lambda t: t >= 0, "non-negative"),
                                 "number of steps")
    method: str = _choice("auto", "kernel evaluation route", "auto", "spectral", "recursion")
    record: bool = _field(False, _instance(bool), "also save per-step observables")
    coin_file: str | None = _field(None, _text, "tabulated coin CSV (n,t,theta,alpha,beta,chi)")
    phase_file: str | None = _field(None, _text, "tabulated phases CSV (n,t,xi,zeta)")
    family: str = _choice("quasi", "dressing family", "quasi", "exact")
    beta1: float = _field(0.1, _angle, "beta drift per step for the quasi family")
    a: float = _field(0.1, _angle, "coefficient of the bilinear exact family xi = a n t")
    pair: str = _choice("symmetric", "named smooth dressing pair", "symmetric", "null", "wave")
    # time extent deliberately not commensurate with the space extent: on a
    # square grid with c dt == dx the light-cone stencils annihilate the
    # null families exactly and leave nothing but rounding noise to refine
    domain: tuple = _field((-1.0, 1.0, 0.0, 1.5), _parse_domain, "x0,x1,t0,t1")
    resolutions: tuple = _field((32, 64, 128, 256), _parse_resolutions,
                                "comma-separated grid sizes")
    # a non-positive factor would turn the refinement gate off
    min_factor: float = _field(3.5, _bounded(_parse_number, lambda f: f > 0, "positive"),
                               "required residual shrink per doubling")
    which: str | None = _choice(None, "figure preset", "1a", "1b", "2", "3")
    # a negative tolerance would fail every run; unset, the command's own
    # default applies (see _COMMANDS)
    tol: float | None = _field(None, _bounded(_parse_number, lambda x: x >= 0, "non-negative"),
                               "deviation gate")
    outdir: Path = _field(Path("."), _text, "output directory, else $QWLINE_OUTDIR")


_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def _read_config(path) -> dict:
    """The fields of a JSON config file, by name; none without a file."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    out = {str(k).replace("-", "_"): v for k, v in data.items()}
    for key in out:
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    given = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    merged = {**_read_config(args.config), **given}  # explicit flags win over the file
    kwargs = {name: f.metadata["parse"](name, merged[name])
              for name, f in _FIELDS.items() if name in merged}
    kwargs["outdir"] = Path(kwargs.get("outdir") or os.environ.get("QWLINE_OUTDIR") or ".")
    command = _COMMANDS[args.command]
    cfg = RunConfig(args.command, **{"tol": command.tol, **kwargs})

    # a supplied phi fixes the relative phase alpha + beta - gamma
    if cfg.phi is not None:
        cfg.gamma = cfg.alpha + cfg.beta - cfg.phi
    required = [name for name in ("t_final", "theta", "which") if name in command.fields]
    if cfg.command == "evolve" and cfg.coin_file:
        required.remove("theta")
    for name in required:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required field {name!r} for {cfg.command!r}")
    if cfg.command == "observables" and cfg.t_final == 0:
        raise ConfigError("observables needs t_final >= 1")
    return cfg


def _angles(cfg: RunConfig) -> CoinAngles:
    return CoinAngles(theta=cfg.theta, alpha=cfg.alpha, beta=cfg.beta, chi=cfg.chi)


def _init(cfg: RunConfig) -> InitialState:
    return InitialState(eta=cfg.eta, gamma=cfg.gamma)


def _write(cfg: RunConfig, name: str, save: Callable[[Path], object]) -> None:
    """Write each output file: ``save(path)`` at ``cfg.outdir / name``, then
    report it.  The directory is created just before, so a request that
    fails earlier leaves no directory."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    path = cfg.outdir / name
    save(path)
    print(f"wrote {path}")


def _gate(breach: bool, what: str) -> int:
    """The exit code of a verification: on a ``breach``, print ``what``
    went over the tolerance and return :data:`EXIT_TOLERANCE`."""
    if not breach:
        return EXIT_OK
    print(f"tolerance breach: {what}", file=sys.stderr)
    return EXIT_TOLERANCE


def _comparison(final, theta: float, eta: float, phi: float):
    """A saver of the comparison file: the sites of ``final``, its
    distribution, its stationary envelope and the classical walk at the same
    step.  Raises before any file is written if the envelope is undefined."""
    ns, t = final.n_values, final.t
    columns = [ns, pmf(final), stationary_pmf(ns, t, theta, eta, phi),
               classical_pmf(math.cos(theta) ** 2, t)]
    return lambda path: save_comparison_csv(path, *columns)


def _cmd_evolve(cfg: RunConfig) -> int:
    coin = load_coin_field_csv(cfg.coin_file) if cfg.coin_file else _angles(cfg)
    if cfg.record:
        final, records = evolve(_init(cfg), coin, cfg.t_final, record_trajectory=True)
        _write(cfg, "trajectory.csv", lambda path: save_trajectory_csv(path, records))
    else:
        final = evolve(_init(cfg), coin, cfg.t_final)
    _write(cfg, f"spinor_t{cfg.t_final}.csv", lambda path: save_spinor_csv(final, path))
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
    _write(cfg, f"closedform_t{cfg.t_final}.csv", lambda path: save_spinor_csv(analytic, path))
    print(f"max amplitude deviation from stepping: {deviation:.3e}")
    return _gate(deviation > cfg.tol, f"{deviation:.3e} > {cfg.tol:.1e}")


def _cmd_observables(cfg: RunConfig) -> int:
    init, coin = _init(cfg), _angles(cfg)
    final, records = evolve(init, coin, cfg.t_final, record_trajectory=True)
    comparison = _comparison(final, cfg.theta, cfg.eta, cfg.alpha + cfg.beta - cfg.gamma)
    _write(cfg, "trajectory.csv", lambda path: save_trajectory_csv(path, records))
    _write(cfg, f"comparison_t{cfg.t_final}.csv", comparison)
    return EXIT_OK


def _cmd_invariance(cfg: RunConfig) -> int:
    init, coin = _init(cfg), _angles(cfg)
    inputs = {k: getattr(cfg, k)
              for k in ("theta", "eta", "gamma", "alpha", "beta", "chi", "t_final", "family")}
    if cfg.phase_file:
        phases = load_phase_field_csv(cfg.phase_file)
        inputs["phase_file"] = str(cfg.phase_file)
    elif cfg.family == "quasi":
        phases = quasi_invariant_phases(cfg.beta1)
        inputs["beta1"] = cfg.beta1
    else:
        a = cfg.a

        def bilinear(ns, t):
            # overflow gives inf and inf * 0 nan, as with Python floats;
            # the dressed coin is checked finite where it is used
            with np.errstate(over="ignore", invalid="ignore"):
                return (a * ns * t,) * 2

        phases = PhaseField.from_rows(bilinear)
        inputs["a"] = a
    if cfg.family == "quasi":
        report = verify_quasi_invariance(init, coin, phases, cfg.t_final, inputs=inputs)
        gate = max(report.max_modulus_deviation, report.max_pmf_deviation)
    else:
        report = verify_exact_invariance(init, coin, phases, cfg.t_final, inputs=inputs)
        gate = report.max_component_deviation
    _write(cfg, "invariance_report.json", lambda path: path.write_text(report.to_json() + "\n"))
    print(f"max modulus deviation {report.max_modulus_deviation:.3e}")
    print(f"max pmf deviation {report.max_pmf_deviation:.3e}")
    print(f"phase map divergence {report.phase_map_divergence:.3e}")
    return _gate(gate > cfg.tol, f"{gate:.3e} > {cfg.tol:.1e}")


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
    # "wave": the pair field admits no other name
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

    def save_residual(path):
        # printed once the output directory exists: a request that fails
        # anywhere above, or cannot make the directory, prints nothing
        for res, peak in zip(cfg.resolutions, maxima):
            print(f"resolution {res}: max residual {peak:.6e}")
        save_residual_csv(path, potentials.x, potentials.t, residual)

    _write(cfg, f"residual_res{finest}.csv", save_residual)
    _write(cfg, f"potentials_res{finest}.csv", lambda path: save_potentials_csv(potentials, path))
    worst = math.inf
    for (r0, m0), (r1, m1) in zip(
        zip(cfg.resolutions, maxima), zip(cfg.resolutions[1:], maxima[1:])
    ):
        factor = math.inf if m1 == 0 else m0 / m1
        worst = min(worst, factor)
        print(f"refinement {r0} -> {r1}: factor {factor:.3f}")
    return _gate(worst < cfg.min_factor, f"refinement factor {worst:.3f} < {cfg.min_factor}")


def _cmd_figures(cfg: RunConfig) -> int:
    if cfg.which in ("1a", "1b"):
        theta, eta = (math.pi / 4, math.pi / 16) if cfg.which == "1a" else (
            math.pi / 8,
            3 * math.pi / 16,
        )
        phi, t_final = math.pi, 100
        init = InitialState(eta=eta, gamma=-phi)  # alpha = beta = 0
        final = evolve(init, CoinAngles(theta), t_final)
        _write(cfg, f"fig{cfg.which}_comparison_t{t_final}.csv",
               _comparison(final, theta, eta, phi))
        return EXIT_OK
    if cfg.which == "2":
        theta = eta = math.pi / 6
        phi, t_final = 0.0, 40
        init = InitialState(eta=eta, gamma=-phi)
        _, records = evolve(init, CoinAngles(theta), t_final, record_trajectory=True)
        _write(cfg, "fig2_trajectory.csv", lambda path: save_trajectory_csv(path, records))
        ts = np.array([rec.t for rec in records])
        xs = np.array([rec.mean_x for rec in records])
        line = [ts, ballistic_slope(theta, eta, phi) * ts]
        _write(cfg, "fig2_ballistic.csv", lambda path: write_csv(path, "t,mean_x_ballistic", line))
        print(f"fitted slope over t in [20, 40]: {fitted_slope(ts, xs, t_min=20):.6f}")
        return EXIT_OK
    # figure 3: beta drifts by 1/10 each step vs the homogeneous reference
    theta = eta = math.pi / 3
    rate, t_final = 0.1, 16
    init = InitialState(eta=eta, gamma=0.0)
    ref_coin = CoinAngles(theta)
    drifting = CoinField(
        lambda ns, t: tuple(np.full(len(ns), v) for v in (theta, 0.0, rate * t, 0.0)))
    ref_final = evolve(init, ref_coin, t_final)
    drift_final = evolve(init, drifting, t_final)
    for name, state in (("reference", ref_final), ("drifting", drift_final)):
        _write(cfg, f"fig3_{name}_t{t_final}.csv", lambda path: save_spinor_csv(state, path))
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
    _write(cfg, "fig3_report.json", lambda path: path.write_text(report.to_json() + "\n"))
    print(f"max modulus deviation {report.max_modulus_deviation:.3e}")
    print(f"phase map divergence {report.phase_map_divergence:.3e}")
    return EXIT_OK


@dataclass(frozen=True)
class _Command:
    help: str
    fields: tuple  # the run fields it takes besides outdir
    run: Callable[[RunConfig], int]
    tol: float | None = None  # default deviation gate
    aliases: tuple = ()  # (flag, field) pairs


_WALK = ("theta", "alpha", "beta", "chi", "eta", "gamma", "phi", "t_final")

_COMMANDS = {
    "evolve": _Command("step a walk and save the state",
                       _WALK + ("coin_file", "record"), _cmd_evolve),
    "closedform": _Command("evaluate the analytic solution and check it against stepping",
                           _WALK + ("method", "tol"), _cmd_closedform, tol=1e-10),
    "observables": _Command("position distribution vs stationary envelope and classical walk",
                            _WALK, _cmd_observables),
    "invariance": _Command("verify a phase-dressing family and write a JSON report",
                           _WALK + ("family", "beta1", "a", "phase_file", "tol"),
                           _cmd_invariance, tol=1e-11, aliases=(("--beta0", "beta"),)),
    "gauge": _Command("electric-field invariance residual under grid refinement",
                      ("pair", "domain", "resolutions", "min_factor"), _cmd_gauge),
    "figures": _Command("rebuild the data behind the standard figures", ("which",), _cmd_figures),
}


@functools.cache  # adding the options costs more than parsing, so build them once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwline",
        description="Discrete-time quantum walks on the line: simulation, "
        "closed form, phase dressings and their continuum gauge reading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file with run fields; explicit flags win")
        # every flag is parsed with its config-file value in _build_config,
        # so argparse keeps the text and None for a flag not given
        for key in ("outdir", *command.fields):
            f = _FIELDS[key]
            default = command.tol if key == "tol" else f.default
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            shown = "" if default is None else f" (default {default})"
            kind = {"action": "store_true", "default": None} if f.default is False else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f.metadata["help"] + shown, **kind)
        for flag, key in command.aliases:
            p.add_argument(flag, dest=key, help=f"alias for --{key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[cfg.command].run(cfg)
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
