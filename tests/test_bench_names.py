"""The traced benchmark wraps library functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for qualname in list(spans.SPANNED) + list(spans.COUNTED):
        module, fn = qualname.split(".")
        if not callable(getattr(importlib.import_module(f"prefnet.{module}"), fn, None)):
            missing.append(qualname)
    assert missing == []
