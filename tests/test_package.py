"""Package structure: public names resolve, no module reaches into another
module's private names, numpy loads only where arrays are built, and the
benchmark's tracer finds what it wraps."""

import ast
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys

import tdbcsim
from conftest import load_bench
from tdbcsim import scenario_cli

SRC = pathlib.Path(tdbcsim.__file__).parent

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


def _private_sibling_reads(source: str, siblings: set[str]) -> list[str]:
    """The `_`-prefixed names of a sibling module that `source` reaches:
    imported from it (relatively or as tdbcsim.<module>), or read as an
    attribute of a sibling module it binds to a name."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = ["tdbcsim"] if node.level == 1 else []
            package = ".".join(relative + ([node.module] if node.module else []))
            if package.split(".")[0] != "tdbcsim":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{package}.{alias.name}")
                if package == "tdbcsim" and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("tdbcsim."))
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    return found


def test_cli_reaches_no_private_sibling_name():
    """The CLI reads its sibling modules through their public names only."""
    siblings = {path.stem for path in SRC.glob("*.py")}
    assert _private_sibling_reads("from .relay_policy import _least_gain", siblings)
    assert _private_sibling_reads("from tdbcsim.specfun import _G_ABOVE_8", siblings)
    assert _private_sibling_reads("from . import mc_engine\ndef f():\n    mc_engine._pairwise",
                                  siblings)
    assert _private_sibling_reads("import tdbcsim.mc_engine as m\nm._BLOCK_TRIALS", siblings)
    assert not _private_sibling_reads("from .mc_engine import simulate\nx._y", siblings)
    source = (SRC / "scenario_cli.py").read_text(encoding="utf-8")
    assert _private_sibling_reads(source, siblings) == []


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
    assert len(tdbcsim.__all__) <= 19


def _eager_numpy_imports(source: str) -> list[int]:
    """Lines of the imports of numpy that run when `source` loads as a
    module: those outside every function body and `if TYPE_CHECKING:`."""
    lines, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            stack += node.orelse
            continue
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
        stack += ast.iter_child_nodes(node)
    return lines


def test_numpy_is_not_imported_at_module_level():
    assert _eager_numpy_imports("try:\n    import numpy.random\nexcept ImportError:\n    pass")
    assert _eager_numpy_imports("class A:\n    from numpy import ndarray")
    assert not _eager_numpy_imports("if TYPE_CHECKING:\n    import numpy as np\n"
                                    "def f():\n    import numpy as np")
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if (lines := _eager_numpy_imports(path.read_text(encoding="utf-8")))}
    assert not offenders, f"numpy imported at module level (file: lines): {offenders}"


#: Code run both here and in a fresh interpreter: the calls of one `design`
#: operation of the benchmark on a capped and an uncapped configuration, and
#: the first array calls (scalar cycle powers, four fading draws, a
#: 2,000-trial simulation of both relays and their fixed-power baselines).
_PROBE = """
import dataclasses

import tdbcsim
from tdbcsim.outage_analytics import fpa_policy

CONFIGS = [tdbcsim.SystemConfig(1 / 3, 2 / 3, 2.0, 0.5, 1.0, 1.5, p_avg_relay)
           for p_avg_relay in (0.05, 100.0)]
FPA = tdbcsim.FpaConfig(1.0, 1.5, 2.0)


def design_calls():
    values = []
    for config in CONFIGS:
        relay = tdbcsim.policies_from_config(config)[2]
        values.append([relay.rho is None, tdbcsim.outage_opa(relay).p_out,
                       tdbcsim.avg_relay_power(relay), tdbcsim.outage_fpa(config, FPA)])
    return values


def array_calls():
    relays = [tdbcsim.policies_from_config(config)[2] for config in CONFIGS]
    reports = tdbcsim.simulate(relays, [fpa_policy(config, FPA) for config in CONFIGS],
                               2_000, seed=7)
    return {
        "cycle_powers": [float(p) for p in tdbcsim.cycle_powers(relays[0], 0.7, 1.3)],
        "sample_block": [c.tolist() for c in tdbcsim.FadingSampler(1, 0).sample_block(4)],
        "simulate": [dataclasses.astuple(report) for report in reports],
    }
"""

_FRESH_CHILD = _PROBE + """
import json, sys
from tdbcsim import scenario_cli

result = {"design": design_calls()}
scenario_cli.main(["power-gains", "--out", sys.argv[1]])
result["numpy_loaded"] = "numpy" in sys.modules
result.update(array_calls())
print(json.dumps(result))
"""


def test_fresh_interpreter_designs_without_numpy(tmp_path):
    """Policy design, the closed forms and power-gains run in a fresh
    interpreter without loading numpy; its first array calls then load it
    and agree with this process bit for bit, as does the CSV."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _FRESH_CHILD, str(tmp_path / "child.csv")],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result.pop("numpy_loaded") is False
    assert [unbounded for unbounded, *_ in result["design"]] == [False, True]
    probe = {}
    exec(_PROBE, probe)
    assert result == json.loads(json.dumps({"design": probe["design_calls"](),
                                            **probe["array_calls"]()}))
    assert scenario_cli.main(["power-gains", "--out", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


def test_traced_functions_resolve():
    """Every (layer, function) the traced benchmark run rebinds exists on
    tdbcsim.<layer>, as does the sampler method it wraps on its class."""
    traced = load_bench("tracing").TRACED_FUNCTIONS
    assert traced
    missing = [f"{layer}.{name}" for layer, name in traced
               if not callable(getattr(importlib.import_module(f"tdbcsim.{layer}"), name, None))]
    assert not missing, missing
    assert callable(tdbcsim.FadingSampler.sample_block)


def test_benchmark_design_operations_check(monkeypatch, tmp_path):
    """One capped and one uncapped `design` operation of the benchmark run
    through the library and pass its checks: the benchmark pins the shapes
    it reads (a 3-tuple from policies_from_config whose end-node policies
    have .cutoff, OutageReport.p_out, and an uncapped `rho` is `None`)."""
    monkeypatch.setitem(sys.modules, "oracles", load_bench("oracles"))
    workloads = load_bench("workloads")
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
    monkeypatch.setitem(sys.modules, "oracles", load_bench("oracles"))
    workloads = load_bench("workloads")
    workload = workloads.Workload(workloads.FIGURES, 5, str(tmp_path))
    codes, blobs = workload.collect(0, workload.run(0))
    assert workloads.check_figures(codes, blobs, workloads.sweep_reference()) == []
