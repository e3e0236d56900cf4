import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


def _record(workload, trace, sha="abc123", failed=0):
    metrics = ({"coin.callable_evals": {"value": 402303.0, "unit": "count"}} if trace else
               {m: {"value": 0.5, "unit": "s"} for m in ("setup_s", "round_s", "first_round_s")}
               | {"peak_rss_mb": {"value": 42.0, "unit": "MiB"}})
    return {"git_sha": sha, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
            "backend": "numpy", "cpu_count": 2, "workload": workload, "seed": 7,
            "seconds": 30.0, "trace": trace, "workers": 8, "rounds": 40, "attempted": 280,
            "failed": failed, "layer_mismatches": [], "metrics": metrics,
            "raw": {"setup_s": 0.6, "round_s": 0.6, "first_round_s": 0.6},
            "per_worker": []}


def test_snapshot_keeps_metrics_layers_sha_and_versions(tmp_path):
    paths = []
    for workload, trace in (("walk", 0), ("dressing", 0), ("dressing", 1)):
        paths.append(tmp_path / f"{workload}-seed7-trace{trace}.json")
        paths[-1].write_text(json.dumps(_record(workload, trace, failed=int(workload == "walk"))))
    out = tmp_path / "BENCH_1.json"
    assert bench_snapshot.main([*map(str, paths), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["git_sha"] == "abc123"
    assert doc["versions"] == {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                               "backend": "numpy", "cpu_count": 2}
    assert sorted(doc["end_to_end"]) == ["dressing", "walk"]
    assert doc["end_to_end"]["dressing"]["metrics"]["round_s"] == 0.5
    assert doc["end_to_end"]["dressing"]["unscaled"]["round_s"] == 0.6
    assert [doc["end_to_end"][w]["correct"] for w in ("dressing", "walk")] == [True, False]
    assert doc["traced"]["dressing"]["metrics"] == {"coin.callable_evals": 402303.0}
    assert "per_worker" not in json.dumps(doc)


@pytest.mark.parametrize("records, why", [
    ([], "no run records"),
    ([_record("walk", 0), _record("gauge", 0, sha="def456")], "several git shas"),
    ([_record("walk", 0), _record("walk", 0)], "two untraced records of workload walk"),
])
def test_snapshot_refuses_a_mixed_set(records, why):
    with pytest.raises(ValueError, match=why):
        bench_snapshot.snapshot(records)
