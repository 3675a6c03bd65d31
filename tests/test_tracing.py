"""The benchmark's tracer wraps named call sites of the package
(``bench/spans.py``); a refactor that drops one of those names breaks
``bench/run.py --trace 1``, so installing the tracer is checked here."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_call_site_and_restores_it():
    spans = load_spans()
    before = spans.current_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = spans.current_attributes()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = spans.current_attributes()
    assert all(after[key] is before[key] for key in before)
