"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function or method listed in
``SPANS`` by a timing wrapper, at every name in the ``qwline`` modules that
refers to it (``qwline.evolve``, ``qwline.evolution.evolve`` and
``qwline.cli.evolve`` are one function looked up three ways).  A span's
self time is its duration minus the time of the spans it encloses, so each
layer is charged only for its own work.  Values accumulate until ``take``
returns them as one round's figures.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import wraps

MIB = 1024.0 * 1024.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_bytes(metric, index, name):
    def work(args, kwargs, result):
        return {metric: os.path.getsize(_arg(args, kwargs, index, name))}
    return work


def _outdir_files(argv):
    argv = list(argv or [])
    if "--outdir" not in argv:
        return set()
    path = argv[argv.index("--outdir") + 1]
    return set(os.listdir(path)) if os.path.isdir(path) else set()


def _recording(args, kwargs):
    return bool(_arg(args, kwargs, 3, "record_trajectory", False))


def _always(args, kwargs):
    return True


# (module, attribute, self-time metric, call-count metric, work counter,
#  tracemalloc peak metric and when to take it)
SPANS = [
    ("kernels", "walk_step", "kernels.walk_step_s", "kernels.walk_step_calls",
     lambda a, k, r: {"kernels.step_sites": len(a[0])}, None),
    ("kernels", "lambda_fill", "kernels.lambda_fill_s", None,
     lambda a, k, r: {"kernels.lambda_fill_cells": r.size}, None),
    ("kernels", "lambda_spectral", "kernels.lambda_spectral_s",
     "kernels.lambda_spectral_calls", None, None),
    ("state", "SpinorField.__post_init__", "state.spinor_build_s", "state.spinor_builds",
     None, None),
    ("state", "localized_state", "state.spinor_build_s", None, None, None),
    ("state", "save_spinor_csv", "state.csv_write_s", None,
     _file_bytes("state.csv_bytes", 1, "path"), None),
    ("state", "load_spinor_csv", "state.csv_read_s", None,
     _file_bytes("state.csv_bytes", 0, "path"), None),
    ("coin", "CoinField.materialize", "coin.materialize_s", "coin.materialize_calls",
     None, None),
    ("coin", "load_coin_field_csv", "coin.csv_read_s", None,
     _file_bytes("coin.csv_read_bytes", 0, "path"), None),
    ("evolution", "evolve", "evolution.evolve_s", None, None,
     ("evolution.record_peak_mb", _recording)),
    ("evolution", "step_inhomogeneous", "evolution.evolve_s", "evolution.steps", None, None),
    ("evolution", "step_homogeneous", "evolution.evolve_s", None, None, None),
    ("closedform", "closed_form_amplitudes", "closedform.amplitudes_s", None, None, None),
    ("closedform", "one_step_amplitudes", "closedform.amplitudes_s", None, None, None),
    ("closedform", "lambda_explicit", "closedform.amplitudes_s", None, None, None),
    ("closedform", "lambda_table", "closedform.table_s", None, None, None),
    ("observables", "observe", "observables.observe_s", "observables.observe_calls",
     None, None),
    *(("observables", name, "observables.observe_s", None, None, None)
      for name in ("pmf", "chirality_probabilities", "magnetization", "mean_position")),
    *(("observables", name, "observables.reference_s", None, None, None)
      for name in ("stationary_pmf", "classical_pmf", "smoothed_pmf", "fitted_slope",
                   "ballistic_slope")),
    *(("observables", name, "observables.csv_write_s", None,
       _file_bytes("observables.csv_bytes", 0, "path"), None)
      for name in ("save_trajectory_csv", "save_comparison_csv", "save_pmf_csv")),
    *(("invariance", name, "invariance.verify_s", "invariance.verify_calls", None, None)
      for name in ("verify_quasi_invariance", "verify_exact_invariance")),
    *(("invariance", name, "invariance.verify_s", None, None, None)
      for name in ("transform_coin_field", "exact_transform", "quasi_invariant_phases",
                   "relative_phase_map")),
    ("gauge", "efield_invariance_residual", "gauge.residual_s", None,
     lambda a, k, r: {"gauge.residual_cells": r[1].size},
     ("gauge.alloc_peak_mb", _always)),
    ("gauge", "potentials_from_phase_pair", "gauge.potentials_s", None, None,
     ("gauge.alloc_peak_mb", _always)),
    *(("gauge", name, "gauge.potentials_s", None, None, None)
      for name in ("PotentialField.__post_init__", "finite_difference_transform",
                   "lattice_phases_from_smooth")),
    ("gauge", "potentials_from_transform", "gauge.sample_s", None,
     lambda a, k, r: {"gauge.sample_sites": r.a_t.size}, None),
    ("gauge", "electric_field", "gauge.efield_s", None, None, None),
    ("gauge", "save_potentials_csv", "gauge.csv_write_s", None,
     _file_bytes("gauge.csv_bytes", 1, "path"), None),
    ("gauge", "save_residual_csv", "gauge.csv_write_s", None,
     _file_bytes("gauge.csv_bytes", 0, "path"), None),
    ("cli", "main", "cli.main_s", "cli.commands", None, None),
]

# name -> unit, in the order the benchmark reports them
PER_LAYER = {
    "kernels.walk_step_s": "s", "kernels.walk_step_calls": "count",
    "kernels.step_sites": "count", "kernels.lambda_fill_s": "s",
    "kernels.lambda_fill_cells": "count", "kernels.lambda_spectral_s": "s",
    "kernels.lambda_spectral_calls": "count",
    "state.spinor_builds": "count", "state.spinor_build_s": "s",
    "state.csv_write_s": "s", "state.csv_read_s": "s", "state.csv_bytes": "B",
    "coin.materialize_s": "s", "coin.materialize_calls": "count",
    "coin.callable_evals": "count", "coin.csv_read_s": "s", "coin.csv_read_bytes": "B",
    "evolution.evolve_s": "s", "evolution.steps": "count", "evolution.record_peak_mb": "MiB",
    "closedform.amplitudes_s": "s", "closedform.table_s": "s",
    "observables.observe_s": "s", "observables.observe_calls": "count",
    "observables.reference_s": "s", "observables.csv_write_s": "s",
    "observables.csv_bytes": "B",
    "invariance.verify_s": "s", "invariance.verify_calls": "count",
    "gauge.residual_s": "s", "gauge.residual_cells": "count", "gauge.potentials_s": "s",
    "gauge.sample_s": "s", "gauge.sample_sites": "count", "gauge.efield_s": "s",
    "gauge.csv_write_s": "s", "gauge.csv_bytes": "B", "gauge.alloc_peak_mb": "MiB",
    "cli.main_s": "s", "cli.commands": "count", "cli.files_written": "count",
    "qwline.import_s": "s", "trace.round_s": "s",
}


class Tracer:
    def __init__(self):
        self.active = False
        # tracemalloc slows every allocation, so peaks are taken in the
        # first round only and the warm rounds' times stay undisturbed
        self.memory = True
        self._values = defaultdict(float)
        self._children = []  # time of enclosed spans, one entry per open span

    def count_eval(self) -> None:
        """Count one call of a benchmark-supplied coin or phase callable."""
        if self.active:
            self._values["coin.callable_evals"] += 1

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take(self) -> dict:
        """This round's figures; resets the accumulators."""
        out = {name: self._values.get(name, 0.0) for name in PER_LAYER}
        self._values.clear()
        return out

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qwline" or name.startswith("qwline."))]
        for mod_name, attr, time_metric, count_metric, work, peak in SPANS:
            owner = sys.modules[f"qwline.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), time_metric,
                                              count_metric, work, peak))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, time_metric, count_metric, work, peak)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        cli = sys.modules["qwline.cli"]
        main = cli.main

        @wraps(main)
        def counted_main(argv=None):
            if not self.active:
                return main(argv)
            before = _outdir_files(argv)
            try:
                return main(argv)
            finally:
                self._values["cli.files_written"] += len(_outdir_files(argv) - before)

        cli.main = counted_main

    def _wrap(self, fn, time_metric, count_metric, work, peak):
        values, children = self._values, self._children

        @wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tracing = (self.memory and peak is not None and peak[1](args, kwargs)
                       and not tracemalloc.is_tracing())
            children.append(0.0)
            start = time.perf_counter()
            if tracing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    top = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    values[peak[0]] = max(values[peak[0]], top)
                spent = time.perf_counter() - start
                inner = children.pop()
                values[time_metric] += spent - inner
                if children:
                    children[-1] += spent
            if count_metric:
                values[count_metric] += 1
            if work:
                for name, amount in work(args, kwargs, result).items():
                    values[name] += amount
            return result

        return span
