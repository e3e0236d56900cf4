"""qwline benchmark: closed-loop rounds of library and CLI calls.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``qwline`` from its
``src`` directory.  A run starts ``WORKERS`` worker processes one after
another, never two at once; each imports the library, draws the
workload's inputs from the seed, and runs identical rounds until its share
of ``--seconds`` is used.  Every operation's output is checked.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer ones (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 8
WORKER_TIMEOUT_S = 150
# one thread per numeric library, so a run never uses more than one core
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
END_TO_END = {"setup_s": "s", "round_s": "s", "first_round_s": "s", "peak_rss_mb": "MiB"}


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a worker can time
    # itself from the instant the launcher started it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# worker: one process, setup then rounds
# ---------------------------------------------------------------------------

def run_round(ctx, ops, tracer=None, perturb=None) -> dict:
    """Attempt every operation once; time ``run`` only.

    Each operation's time is also reported scaled to the reference machine
    speed measured right after it (see speed.py).  ``perturb(op, view)``,
    used by the self-test, alters an operation's output before it is
    checked.
    """
    import speed

    ctx.tmp = Path(tempfile.mkdtemp(dir=ctx.workdir))
    ctx.results = {}
    times, scaled, failures = [], [], []
    try:
        for op in ops:
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                raw = op.run(ctx)
            except Exception as exc:  # a library fault is a failed operation
                raw, fault = None, f"{type(exc).__name__}: {exc}"
            else:
                fault = None
            times.append(time.perf_counter() - start)
            if tracer:
                tracer.active = False
            scaled.append(times[-1] * speed.factor(times[-1]))
            if fault is None:
                try:
                    view = op.view(ctx, raw)
                    if perturb:
                        perturb(op, view)
                    errs = op.check(ctx, view)
                except Exception as exc:  # output missing or malformed
                    errs = [f"{type(exc).__name__}: {exc}"]
                fault = "; ".join(errs) or None
            if fault:
                failures.append(f"{op.name}: {fault}")
            raw = view = None  # hold no output while the next operation runs
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    out = {"time": sum(times), "scaled": sum(scaled), "op_times": times,
           "attempted": len(ops), "failures": failures}
    if tracer:
        out["layers"] = tracer.take()
    return out


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import qwline
    import qwline.cli
    import_s = time.perf_counter() - start
    if not Path(qwline.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qwline imported from {qwline.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    import speed
    from inputs import make_inputs
    from rounds import WORKLOADS, Context
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    inputs = make_inputs(args.seed, counter=tracer.count_eval if tracer else None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        ctx = Context(qwline, qwline.cli, inputs, workdir,
                      pause=tracer.paused if tracer else None)
        ctx.prepare(args.workload)
        ops = WORKLOADS[args.workload]()
        setup_s = _clock() - args.spawned_at
        setup_scaled = setup_s * speed.factor(setup_s)
        if tracer:
            tracer.install()
        rounds = [run_round(ctx, ops, tracer)]
        if tracer:
            tracer.memory = False
        while len(rounds) < 2 or _clock() - args.spawned_at < args.budget:
            rounds.append(run_round(ctx, ops, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "import_s": import_s,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "backend": qwline.kernels.BACKEND},
    }))
    return 0


# ---------------------------------------------------------------------------
# launcher: workers one after another, then the medians
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout; ``unknown`` when it is not a git repository."""
    # the ceiling keeps git from taking HEAD of a repository around the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spawn(args, budget: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--budget", repr(budget)]
    env = {**os.environ, **THREAD_ENV}
    spawned_at = _clock()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(workers: list, trace: bool) -> dict:
    warm = [r for w in workers for r in w["rounds"][1:]]
    if not trace:
        values = {
            "setup_s": statistics.median(w["setup_scaled"] for w in workers),
            "round_s": statistics.median(r["scaled"] for r in warm),
            "first_round_s": statistics.median(w["rounds"][0]["scaled"] for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    from tracer import PER_LAYER

    out = {}
    for name, unit in PER_LAYER.items():
        if name == "qwline.import_s":
            value = statistics.median(w["import_s"] for w in workers)
        elif name == "trace.round_s":
            value = statistics.median(r["scaled"] for r in warm)
        elif unit == "MiB":  # tracemalloc peaks, taken in first rounds
            value = statistics.median(w["rounds"][0]["layers"][name] for w in workers)
        else:
            value = statistics.median(r["layers"][name] for r in warm)
        out[name] = {"value": value, "unit": unit}
    return out


def layer_mismatches(rounds: list) -> list:
    """Counts and byte counts that differ between traced ``rounds``.

    Rounds of one seed do the same work, so each of these must read the
    same in every one of them, in every worker.
    """
    from tracer import PER_LAYER

    out = []
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B"):
            seen = sorted({r["layers"][name] for r in rounds})
            if len(seen) > 1:
                out.append(f"{name} differs between rounds: {seen}")
    return out


def _raw(workers: list) -> dict:
    """The unscaled counterparts of the timed end-to-end metrics."""
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "round_s": statistics.median(r["time"] for w in workers for r in w["rounds"][1:]),
        "first_round_s": statistics.median(w["rounds"][0]["time"] for w in workers),
    }


def launch(args) -> int:
    if not (ROOT / "src" / "qwline" / "__init__.py").is_file():
        print(f"no qwline sources under {ROOT / 'src'}: run from a qwline checkout",
              file=sys.stderr)
        return 2
    budget = args.seconds / WORKERS
    workers = [_spawn(args, budget) for _ in range(WORKERS)]
    rounds = [r for w in workers for r in w["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    metrics = _metrics(workers, bool(args.trace))
    # per-layer counts are compared over the warm rounds of every worker
    mismatches = (layer_mismatches([r for w in workers for r in w["rounds"][1:]])
                  if args.trace else [])
    record = {
        "git_sha": _git_sha(), **workers[0]["versions"], "cpu_count": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "rounds": len(rounds),
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "layer_mismatches": mismatches,
        "metrics": metrics,
        "raw": _raw(workers),
        "per_worker": [{k: w[k] for k in ("setup_s", "setup_scaled", "import_s",
                                          "peak_rss_mb")}
                       | {"round_s": [r["time"] for r in w["rounds"]],
                          "round_scaled": [r["scaled"] for r in w["rounds"]],
                          "op_times": [r["op_times"] for r in w["rounds"]]}
                       | ({"layers": [r["layers"] for r in w["rounds"]]} if args.trace else {})
                       for w in workers],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for mismatch in mismatches:
        print(f"NOT REPEATED {mismatch}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  workers {WORKERS}  "
          f"rounds {len(rounds)}  attempted {attempted}  failed {len(failures)}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in record["raw"].items():
        print(f"{name + ' (unscaled)':32s} {value:.6g} s")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures and not mismatches, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("walk", "dressing", "gauge"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", dest="spawned_at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return worker(args) if args.worker else launch(args)


if __name__ == "__main__":
    sys.exit(main())
