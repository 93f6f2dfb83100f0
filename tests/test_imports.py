"""Every imported name is used, every exported name is bound and every
definition and top-level assigned name is read: a small stand-in for a
linter's unused-import, undefined-export and dead-code checks.  Importing
the CLI loads no SciPy module and no ``numpy.polynomial``, and each
experiment loads only the SciPy subpackages it calls: one that calls none
loads no SciPy module."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sobolev_adjoint").glob("*.py"))
FILES = [p for p in MODULES if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unbound_exports(source: str) -> list[str]:
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            bound |= names
    return [name for name in exported if name not in bound]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unbound_export():
    assert unbound_exports("__all__ = ['f', 'g']\ndef f():\n    pass\n") == ["g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_exports_are_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def _references(node) -> Counter:
    # reads only: a name that is only ever assigned is not used
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    # top-level functions, classes and assigned names other than dunders, plus
    # the public methods of those classes: (label, name, defining node)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, name, node


def unreferenced_definitions(sources: list[str], users: list[str]) -> list[str]:
    """Definitions in ``sources`` that no name or attribute in ``sources`` or
    ``users`` reads, outside the definition itself (``__all__`` strings are
    not references)."""
    trees = [ast.parse(s) for s in sources]
    refs = sum((_references(t) for t in trees + [ast.parse(s) for s in users]),
               Counter())
    return [label for tree in trees for label, name, node in _definitions(tree)
            if refs[name] <= _references(node)[name]]


def test_scan_flags_an_unreferenced_definition():
    source = ("__all__ = ['dead', 'C']\n"
              "def dead(k):\n    return dead(k - 1) if k else 0\n"
              "def used():\n    pass\n"
              "class C:\n    @property\n    def size(self):\n        return 1\n"
              "    def _private(self):\n        pass\n"
              "    def read(self):\n        return used()\n")
    assert unreferenced_definitions([source], ["C().read()\n"]) == ["dead", "C.size"]


def test_scan_flags_an_unread_assignment():
    source = ("__version__ = '1'\n"
              "LIVE, _STALE = 1, 2\n"
              "_WRITTEN = None\n"
              "def f():\n    global _WRITTEN\n    _WRITTEN = LIVE\n")
    assert unreferenced_definitions([source], ["f()\n"]) == ["_STALE", "_WRITTEN"]


def test_every_definition_is_referenced():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert unreferenced_definitions([p.read_text(encoding="utf-8") for p in MODULES],
                                    [p.read_text(encoding="utf-8") for p in tests]) == []


def _literal(path: Path, name: str):
    """The literal assigned to the top-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_benchmark_hooks_exist():
    # perfbench wraps these by getattr: a renamed one would only fail a traced run
    bench = ROOT / "perfbench"
    hooks = [(mod, attr) for mod, attr, _ in _literal(bench / "tracing.py", "FUNCTIONS")]
    hooks += _literal(bench / "child.py", "ENTRY_POINTS")
    missing = [f"{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(f"sobolev_adjoint.{mod}"),
                                       attr, None))]
    for mod, cls, meth, _ in _literal(bench / "tracing.py", "METHODS"):
        owner = getattr(importlib.import_module(f"sobolev_adjoint.{mod}"), cls, None)
        if not callable(getattr(owner, meth, None)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert hooks and missing == []


def _loaded(code: str, cwd: Path, packages=("scipy",)) -> set[str]:
    """The modules of ``packages`` (``scipy`` and ``scipy.*`` by default)
    loaded after ``code`` runs in a fresh interpreter, read from the last
    line it prints."""
    code += ("\nimport sys; print(*[m for m in sys.modules"
             f" if m.split('.')[0] in {packages!r}])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=cwd,
                         check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # every scipy module is imported where a run first calls it, never at import
    assert _loaded("import sobolev_adjoint, sobolev_adjoint.cli", tmp_path) == set()


def test_cli_import_loads_no_thread_pool_or_logging(tmp_path):
    # the Radon products hand work to one plain thread: concurrent.futures,
    # and the logging it imports, would only add start-up time
    assert _loaded("import sobolev_adjoint.cli", tmp_path, ("concurrent", "logging")) == set()


def test_cli_import_and_a_radon_run_load_no_numpy_polynomial(tmp_path):
    # the kernel's Gauss-Legendre nodes are made on its first cell average
    (tmp_path / "run.cfg").write_text("experiment=RadonRecon\nn=16\nn_offsets=24\n"
                                      "n_angles=8\nseed=0\n")
    for code in ("import sobolev_adjoint.cli",
                 "import sobolev_adjoint.cli as cli\n"
                 "assert cli.main(['run', '--config', 'run.cfg', '--out', 'out']) == 0"):
        loaded = _loaded(code, tmp_path, ("numpy",))
        assert "numpy" in loaded
        assert [m for m in loaded if m.startswith("numpy.polynomial")] == []


_SUBPACKAGES = {"scipy.sparse", "scipy.special", "scipy.linalg", "scipy.fft"}


@pytest.mark.parametrize("experiment, config, used", [
    # the kernel route's K_nu; the discrete route factors its Grams with numpy
    ("CrossCheck1D", "n=128\ns=0.75\n", {"scipy.special"}),
    # at s = 1 (and 2) the kernel has a closed form: no Gamma, no K_nu
    ("CrossCheck1D", "n=128\ns=1\n", set()),
    # the order-1 solve runs on numpy.fft, and the gap check applies the form's bands
    ("AdjointSmoothing2D", "n=33\n", set()),
    ("selftest", None, set()),  # its cross check runs at s = 1
    # the Radon build and products load scipy's compiled sparse kernels alone
    ("RadonRecon", "n=16\nn_offsets=24\nn_angles=8\n", set()),
    ("KernelAsymptotics", "", {"scipy.special"}),
    ("NormEquivalence", "", set()),
], ids=["CrossCheck1D", "CrossCheck1D-s1", "AdjointSmoothing2D", "selftest", "RadonRecon",
        "KernelAsymptotics", "NormEquivalence"])
def test_experiments_load_only_the_scipy_they_use(experiment, config, used, tmp_path):
    args = ["selftest"]
    if config is not None:
        (tmp_path / "run.cfg").write_text(f"experiment={experiment}\n{config}seed=0\n")
        args = ["run", "--config", "run.cfg", "--out", "out"]
    loaded = _loaded(f"import sobolev_adjoint.cli as cli\n"
                     f"assert cli.main({args!r}) == 0", tmp_path)
    assert loaded & _SUBPACKAGES == used
    if not used:  # not even the scipy package itself
        assert loaded == set()
