"""Names that other code looks up in the package must exist.

`perfbench/spans.py` rebinds public functions of every layer module by
name, so renaming one of them breaks traced benchmark runs. Installing
and uninstalling the tracer here catches such a rename in the test suite.
Each module's `__all__` and the package's re-exports are checked the
same way, so deleting a function cannot leave a stale export behind,
and so is every name that a demo imports from the package; every demo
and the README's quick start also run to completion, which catches a
changed call shape.
A cold `import throttleid`, which the benchmark times, must not load
`multiprocessing`, which only the fork map needs, nor `mmap`, which no
module imports: fork-map tasks pass data back only as results. Every
`.npy` read passes `allow_pickle=False`, so no trajectory file is ever
unpickled, and every `.npy` file is written by one function,
`plant.write_npy`. Artifact
JSON has one writer, `plant.write_json`, and JSON has one reader,
`plant.read_json`; configs and model files are checked by one rule,
`plant._fits` and `plant._from_document`, defined nowhere else. No
caller, demo or quick start expands rows before taking their moments or
fitting: `raw_moments` expands them a chunk at a time, so no design
matrix is built whole. The rollout neither gathers nor expands a row:
its coefficients act on the history window as it lies in the buffer.
Both sweeps cross-validate through `tuning._cv_paths`, the one place
that draws test folds and takes their blocks.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import throttleid

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start() -> str:
    """The README's library example, its first python block."""
    return re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


def _bindings():
    return {name: dict(vars(mod)) for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith("throttleid")}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_import_skips_process_and_mmap_modules():
    # perfbench's setup_s includes a cold `import throttleid`; the fork
    # map imports multiprocessing when first called, and nothing imports mmap
    src = str(Path(throttleid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, throttleid\n"
            "print(sorted({'multiprocessing', 'mmap'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_npy_reads_never_unpickle():
    # a trajectory file holds data only: every `np.load` or `read_array`
    # call in the package passes allow_pickle=False, so no file it reads
    # is ever unpickled
    calls = [node for path in Path(throttleid.__file__).parent.rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith(("np.load", "numpy.load", "read_array"))]
    assert calls
    for call in calls:
        flags = [k.value for k in call.keywords if k.arg == "allow_pickle"]
        assert len(flags) == 1 and isinstance(flags[0], ast.Constant) \
            and flags[0].value is False, ast.unparse(call)


def test_no_module_imports_mmap():
    # fork-map tasks send their data back as results, so no module maps
    # memory that forked children write into
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    importers = {path.name for path in Path(throttleid.__file__).parent.rglob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if any(name.split(".")[0] == "mmap" for name in imported(node))}
    assert importers == set()


def test_span_tracer_installs_and_uninstalls():
    spans = _spans()
    before = _bindings()
    methods = dict(vars(spans.plant.PlantTrajectory))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for mod, attr in ((spans.rollout, "error_windows"), (spans.rollout, "timeseries_csv"),
                          (spans.pipeline, "cmd_validate"), (spans.plant, "simulate")):
            assert getattr(mod, attr) is not before[mod.__name__][attr]
    finally:
        tracer.uninstall()
    after = _bindings()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name
    assert all(vars(spans.plant.PlantTrajectory)[k] is v for k, v in methods.items())


def test_traced_fit_counts_solver_work():
    # the benchmark's per-layer solver metrics read the fitted model
    spans = _spans()
    gen = np.random.default_rng(0)
    X = gen.standard_normal((100, 8))
    Y = X[:, :3] @ gen.standard_normal((3, 2)) + 0.1 * gen.standard_normal((100, 2))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        spans.regression.fit_lasso(X, Y, 0.1, penalty_scale="sqrt-rows")
    finally:
        tracer.uninstall()
    assert tracer.calls("regression.fit_from_moments") == 1
    assert tracer.counts["regression.fit.sweeps"] > 0
    assert tracer.counts["regression.fit.nnz"] > 0


def test_exports_resolve():
    modules = {info.name: importlib.import_module(f"throttleid.{info.name}")
               for info in pkgutil.iter_modules(throttleid.__path__)}
    for name, mod in modules.items():
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (name, missing)
    # every name the package re-exports is public in its module
    tree = ast.parse(Path(throttleid.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert alias.name in modules[node.module].__all__, (node.module, alias.name)
                assert hasattr(throttleid, alias.name)


def test_demo_imports_resolve():
    # names each missing import, which a failed demo run shows only in
    # its traceback
    assert DEMOS
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "throttleid":
                mod = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(mod, a.name)]
                assert not missing, (path.name, node.module, missing)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a demo writes under its own directory, so a copy of it runs in tmp_path
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


def test_readme_quick_start_runs(tmp_path):
    # the README's library example runs as written against the sources
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", _quick_start()], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


def _enclosing(found):
    """(module, enclosing function) of every node of the package that `found` accepts."""
    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if found(node):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from walk(child, where)

    return {(path.stem, where) for path in Path(throttleid.__file__).parent.glob("*.py")
            for where in walk(ast.parse(path.read_text()), None)}


def _json_callers(attr):
    """(module, enclosing function) of every `json.<attr>(...)` call in the package."""
    return _enclosing(lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr == attr
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def test_one_json_writer():
    # artifact JSON is formatted in one place, so every file keeps the
    # same sorted, indented layout; the CLI's error line is the exception
    assert _json_callers("dumps") == {("plant", "write_json"), ("cli", "main")}


def test_one_npy_writer():
    # every array file, trajectory or time series, is written by
    # `plant.write_npy`, a slice at a time: no other call in the package
    # saves or writes an array or an array header
    savers = {"save", "savez", "savez_compressed", "savetxt", "tofile"}

    def name(node):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None) or ""

    assert _enclosing(lambda node: isinstance(node, ast.Call) and (
        name(node) in savers or name(node).startswith("write_array"))) == {("plant", "write_npy")}


def test_one_json_reader():
    # every JSON document is parsed in one place, and checked against its
    # fields by one rule, which configs and model files share
    assert _json_callers("loads") == {("plant", "read_json")}
    defined = {(path.stem, node.name) for path in Path(throttleid.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in ("_fits", "_from_document")}
    assert defined == {("plant", "_fits"), ("plant", "_from_document")}


def test_one_cv_path():
    # k-fold CV is written once: `tuning._cv_paths` alone draws the test
    # folds and takes their blocks, so no sweep has a fold loop of its own.
    # Every read of either name counts, a call or a function passed on
    for name in ("kfold_indices", "_block"):
        used = _enclosing(lambda node: isinstance(node, ast.Name) and node.id == name
                          and isinstance(node.ctx, ast.Load)
                          or isinstance(node, ast.Attribute) and node.attr == name)
        assert used == {("tuning", "_cv_paths")}, name


def _calls(node, name):
    """Every call in `node` of a function named `name`, bare or as an attribute."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and name in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_no_expanded_rows_reach_raw_moments():
    # an argument of raw_moments or fit_lasso must not hold an expand(...)
    # result, directly or through a name bound to one in the same file, in
    # the package, the demos or the README's quick start: both take the raw
    # inputs and the basis, and the kernel expands one chunk of rows at a time
    sources = [(path.name, path.read_text())
               for path in sorted(Path(throttleid.__file__).parent.glob("*.py")) + DEMOS]
    found = []
    for name, text in sources + [("README.md", _quick_start())]:
        tree = ast.parse(text)
        expanded = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                    and _calls(n.value, "expand") for t in n.targets if isinstance(t, ast.Name)}
        for call in _calls(tree, "raw_moments") + _calls(tree, "fit_lasso"):
            for arg in call.args + [kw.value for kw in call.keywords]:
                if _calls(arg, "expand") or any(isinstance(n, ast.Name) and n.id in expanded
                                                for n in ast.walk(arg)):
                    found.append((name, call.lineno))
    assert found == []


def test_rollout_neither_gathers_nor_expands():
    # the rollout folds the gather index and the basis into its window
    # coefficients once, so `rollout.py` calls no `take` and names no `expand`
    tree = ast.parse((Path(throttleid.__file__).parent / "rollout.py").read_text())
    names = lambda node: (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))
    found = [ast.unparse(node) for node in ast.walk(tree) if "expand" in names(node)
             or isinstance(node, ast.Call) and "take" in names(node.func)]
    assert found == []
