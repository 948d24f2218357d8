"""The traced benchmark still finds every library name it wraps."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads", "checks"):
        sys.modules.pop(name, None)


def test_register_spans_resolves_every_wrapped_name(bench):
    spans, workloads = bench
    tracer = spans.Tracer()
    # Tracer.wrap looks up each name (proxsel.estimators.ols,
    # proxsel.cli.first_stage, ...), so a renamed or dropped one fails here.
    workloads.register_spans(tracer)
    assert tracer._patches
    for module, attr, original, _ in tracer._patches:
        assert getattr(module, attr) is original  # prepared, not installed
