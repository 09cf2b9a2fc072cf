"""The bench tracer and workloads still run against this checkout of the package.

pytest collects only `tests/` (`testpaths`), so this is where a change
that deletes a name `bench/tracer.py` imports, or a name the workload
graders read, is caught.
"""

import importlib.util
from pathlib import Path

import numpy as np

from qheis import extremals, quaternions
from qheis.jets import ScalarField

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_imports():
    tracer = _load("tracer")
    # the two names it holds are the member-less placeholders, so only arrays count points
    assert tracer.GroupPoint is quaternions.GroupPoint
    assert tracer.SpherePoint is extremals.SpherePoint
    for cls in (tracer.GroupPoint, tracer.SpherePoint):
        assert not [k for k in vars(cls) if not k.startswith("__")]
    assert tracer._npoints((np.zeros((3, 7)),)) == 3


def test_one_item_of_each_workload_passes_its_grader():
    workloads = _load("workloads")
    for name in workloads.NAMES:
        (item,) = workloads.make_inputs(name, 5, 1)
        checks = workloads.grade(name, item, workloads.run_item(name, item))
        assert checks, name
        failed = [c for c in checks if not workloads.passed(c[1], c[2])]
        assert failed == [], (name, failed)


def test_one_traced_item_of_each_workload_reads_every_count():
    # a `--trace 1` run reads these off what qheis returns; only that run
    # wraps every `__all__` function and reads `MinimizeResult.restarts`
    tracer_module, workloads = _load("tracer"), _load("workloads")
    jet_batch = ScalarField.jet_batch
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert ScalarField.jet_batch is not jet_batch
        for name in workloads.NAMES:
            (item,) = workloads.make_inputs(name, 5, 1)
            workloads.run_item(name, item)
    finally:
        tracer.uninstall()
    assert ScalarField.jet_batch is jet_batch
    counts = tracer.counts()
    assert counts["quadrature.search_restarts"] == 1
    assert counts["quadrature.search_nfev"] > 0
    assert counts["quadrature.mc_samples"] == workloads.MC_SAMPLES == 200_000
    assert counts["quadrature.levels"] > 0
    assert counts["audit.checks"] > 0
