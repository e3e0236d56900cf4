"""Self-test of the benchmark, in one process, in about half a minute.

    python3 perfbench/selftest.py

1. One round of each workload passes every check.
2. The same round with one output entry per operation bumped (one
   amplitude off by 1e-8, one residual value off by 1e-5, ...) counts
   every operation as failed.
3. Two traced rounds of each workload still pass, fill the per-layer
   metrics of the layers the workload exercises, and agree on every count;
   the same pair with one count bumped is reported as not repeated.
4. ``BENCHMARK.json`` lists exactly the metrics and workloads the code reports.

Exits 0 when all of this holds, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from inputs import make_inputs
from rounds import WORKLOADS, Context
from tracer import PER_LAYER, Tracer

sys.path.insert(0, str(run.ROOT / "src"))
import qwline  # noqa: E402
import qwline.cli  # noqa: E402

SEED = 0

# per workload, layer metrics that a traced round must fill
EXERCISED = {
    "walk": ("kernels.walk_step_calls", "kernels.lambda_fill_cells",
             "kernels.lambda_spectral_calls", "state.spinor_builds", "state.csv_bytes",
             "evolution.steps", "evolution.record_peak_mb", "observables.observe_calls",
             "observables.csv_bytes", "cli.commands", "cli.files_written"),
    "dressing": ("coin.materialize_calls", "coin.callable_evals", "coin.csv_read_bytes",
                 "invariance.verify_calls", "evolution.steps", "cli.commands"),
    "gauge": ("gauge.residual_cells", "gauge.sample_sites", "gauge.csv_bytes",
              "gauge.alloc_peak_mb", "gauge.efield_s", "coin.callable_evals",
              "cli.commands"),
}


def bump(op, view) -> None:
    """Move the middle entry of ``view[op.key]`` by ``op.bump``."""
    arr = np.array(view[op.key], copy=True)
    arr.reshape(-1)[arr.size // 2] += op.bump
    view[op.key] = arr


def main() -> int:
    problems = []
    tracer = Tracer()
    inputs = make_inputs(SEED, counter=tracer.count_eval)
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT, prefix="selftest-"))
    try:
        contexts = {}
        for name, build in WORKLOADS.items():
            ctx = Context(qwline, qwline.cli, inputs, workdir, pause=tracer.paused)
            ctx.prepare(name)
            contexts[name] = ctx
            ops = build()
            clean = run.run_round(ctx, ops)
            problems += [f"{name}: clean round: {f}" for f in clean["failures"]]
            bumped = run.run_round(ctx, ops, perturb=bump)
            caught = {f.split(":")[0] for f in bumped["failures"]}
            missed = [op.name for op in ops if op.name not in caught]
            problems += [f"{name}: perturbed {m} passed its check" for m in missed]
            print(f"{name}: {len(ops)} operations, clean failures "
                  f"{len(clean['failures'])}, perturbed failures {len(caught)}/{len(ops)}")
        tracer.install()
        for name, ctx in contexts.items():
            traced = [run.run_round(ctx, WORKLOADS[name](), tracer) for _ in range(2)]
            problems += [f"{name}: traced round: {f}" for t in traced for f in t["failures"]]
            empty = [m for m in EXERCISED[name] if not traced[1]["layers"][m] > 0]
            problems += [f"{name}: traced round left {m} at 0" for m in empty]
            problems += [f"{name}: {m}" for m in run.layer_mismatches(traced)]
            metric = EXERCISED[name][0]
            bumped = {"layers": {**traced[1]["layers"],
                                 metric: traced[1]["layers"][metric] + 1}}
            if not run.layer_mismatches([traced[0], bumped]):
                problems.append(f"{name}: a bumped {metric} was not reported")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code's")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != names:
            problems.append(f"BENCHMARK.json {key} differs from the metrics reported")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
