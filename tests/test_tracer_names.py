"""The benchmark's tracer wraps library names it looks up by ``getattr``;
a deleted or renamed name would break every traced benchmark run."""

import importlib
import types
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_spans():
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.SPANS


def test_every_traced_name_resolves_in_qwline():
    spans = _tracer_spans()
    assert spans
    missing = []
    for mod_name, attr, *_ in spans:
        module = importlib.import_module(f"qwline.{mod_name}")
        try:
            reduce(getattr, attr.split("."), module)
        except AttributeError:
            missing.append(f"qwline.{mod_name}.{attr}")
    assert missing == []
