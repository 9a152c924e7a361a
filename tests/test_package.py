"""Package structure: public names resolve, no module reaches into another
module's private names, and the benchmark's tracer finds what it wraps."""

import ast
import importlib
import importlib.util
import pathlib
import random
import sys

import tdbcsim

SRC = pathlib.Path(tdbcsim.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders
    assert all(hasattr(tdbcsim, name) for name in tdbcsim.__all__)


def test_module_exports_resolve():
    """Every name in each tdbcsim.<module>.__all__ exists on that module."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"tdbcsim.{path.stem}")
        assert module.__all__, path.name
        missing += [f"{path.stem}.{name}" for name in module.__all__
                    if not hasattr(module, name)]
    assert not missing, missing


def test_public_surface_does_not_grow():
    assert len(tdbcsim.__all__) <= 21


def _load_bench(name: str):
    """bench/<name>.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module

def test_traced_functions_resolve():
    """Every (layer, function) the traced benchmark run rebinds exists on
    tdbcsim.<layer>, as does the sampler method it wraps on its class."""
    traced = _load_bench("tracing").TRACED_FUNCTIONS
    assert traced
    missing = [f"{layer}.{name}" for layer, name in traced
               if not callable(getattr(importlib.import_module(f"tdbcsim.{layer}"), name, None))]
    assert not missing, missing
    assert callable(tdbcsim.FadingSampler.sample_block)


def test_benchmark_design_operations_check(monkeypatch, tmp_path):
    """One capped and one uncapped `design` operation of the benchmark run
    through the library and pass its checks: the benchmark pins the shapes
    it reads (a 3-tuple from policies_from_config whose end-node policies
    have .cutoff, OutageReport.p_out, UNBOUNDED not being a float)."""
    monkeypatch.setitem(sys.modules, "oracles", _load_bench("oracles"))
    workloads = _load_bench("workloads")
    rng = random.Random(0)
    params = []
    for capped in (True, False):
        design = None
        while design is None:
            design = workloads.draw_design(rng, (1 / 3, 2 / 3), (2.0, 0.5), 10.0, capped)
        params.append(design)
    workload = workloads.Workload(workloads.DESIGN, 0, str(tmp_path), params)
    capped, uncapped = workload.run(0), workload.run(1)
    assert capped[0] == uncapped[0] == "done"
    assert isinstance(capped[3], float) and uncapped[3] is None
    for design, result in zip(params, (capped, uncapped)):
        assert workloads.check_design(design, result) == []


def test_benchmark_figures_operation_checks(monkeypatch, tmp_path):
    """One `figures` operation of the benchmark (the default sweep at 1M
    trials, then power-gains) passes the benchmark's own correctness check,
    so a counting change that would fail it fails here first."""
    monkeypatch.setitem(sys.modules, "oracles", _load_bench("oracles"))
    workloads = _load_bench("workloads")
    workload = workloads.Workload(workloads.FIGURES, 5, str(tmp_path))
    codes, blobs = workload.collect(0, workload.run(0))
    assert workloads.check_figures(codes, blobs, workloads.sweep_reference()) == []
