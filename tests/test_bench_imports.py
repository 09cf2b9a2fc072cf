"""The bench tracer still imports against this checkout of the package.

pytest collects only `tests/` (`testpaths`), so this is where a change
that deletes a name `bench/tracer.py` imports is caught.
"""

import importlib.util
from pathlib import Path

import numpy as np

from qheis import extremals, quaternions

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_bench_tracer_imports():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the two names it holds are the member-less placeholders, so only arrays count points
    assert tracer.GroupPoint is quaternions.GroupPoint
    assert tracer.SpherePoint is extremals.SpherePoint
    for cls in (tracer.GroupPoint, tracer.SpherePoint):
        assert not [k for k in vars(cls) if not k.startswith("__")]
    assert tracer._npoints((np.zeros((3, 7)),)) == 3
