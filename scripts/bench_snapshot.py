"""Distil benchmark run records into one committed ``BENCH_<n>.json``.

    python3 perfbench/run.py --workload walk --seed 1001 --seconds 30
    ...                                      # one run per workload, plus --trace 1 runs
    python3 scripts/bench_snapshot.py        # writes the next BENCH_<n>.json at the root

Reads the run records ``perfbench/run.py`` leaves in ``perfbench/out/``
(or the record files named on the command line), one per workload and
trace setting, all from the same git sha.  Keeps the sha, the versions,
each run's seed and size, the four end-to-end metrics of every untraced
run and the per-layer values of every traced one.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "perfbench" / "out"
VERSIONS = ("python", "numpy", "scipy", "backend", "cpu_count")
RUN = ("seed", "seconds", "workers", "rounds", "attempted", "failed")


def _next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def snapshot(records: list[dict]) -> dict:
    """The ``BENCH`` document for ``records``; raises ``ValueError`` on a mix."""
    if not records:
        raise ValueError("no run records")
    shas = {r["git_sha"] for r in records}
    if len(shas) != 1:
        raise ValueError(f"records come from several git shas: {sorted(shas)}")
    out = {"git_sha": shas.pop(),
           "versions": {k: records[0].get(k) for k in VERSIONS},
           "end_to_end": {}, "traced": {}}
    for r in sorted(records, key=lambda r: (r["trace"], r["workload"])):
        section = out["traced" if r["trace"] else "end_to_end"]
        if r["workload"] in section:
            raise ValueError(f"two {'traced' if r['trace'] else 'untraced'} records "
                             f"of workload {r['workload']}")
        entry = {k: r[k] for k in RUN}
        entry["correct"] = not r["failed"] and not r["layer_mismatches"]
        entry["metrics"] = {k: m["value"] for k, m in r["metrics"].items()}
        if not r["trace"]:
            entry["unscaled"] = r["raw"]
        section[r["workload"]] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="*", type=Path,
                    help="run record files (default: every record in perfbench/out)")
    ap.add_argument("--out", type=Path, help="output file (default: the next BENCH_<n>.json)")
    args = ap.parse_args(argv)
    paths = args.records or sorted(RECORDS.glob("*-seed*-trace*.json"))
    try:
        doc = snapshot([json.loads(p.read_text()) for p in paths])
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 2
    out = args.out or _next_path()
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} from {len(paths)} records at {doc['git_sha'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
