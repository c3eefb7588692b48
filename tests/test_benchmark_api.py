"""The benchmark in perfbench/ rebinds normaug functions by name; every name
it traces must exist, so a rename fails here and not only in the benchmark."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def bound():
        return [inspect.getattr_static(tracer._resolve(path), attr)
                for path, attr, _ in tracer.TARGETS]

    originals = bound()
    t = tracer.Tracer()
    try:
        t.install()
        assert all(now is not was for now, was in zip(bound(), originals))
    finally:
        t.restore()
    assert all(now is was for now, was in zip(bound(), originals))
