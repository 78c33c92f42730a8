"""Checks of the package source, with the stdlib alone (no linter is needed
to run them), and of the benchmark tracer, which wraps package names."""

import ast
import pathlib
import subprocess
import sys

import monomod

PACKAGE = pathlib.Path(monomod.__file__).parent


def unused_imports(source):
    """The names bound by module-level imports of source that nothing in it
    reads, in order.  `import a.b` binds `a`; a name listed in `__all__`
    counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("import os.path\n"
              "from itertools import accumulate, compress\n"
              "from .linalg import Matrix as M\n"
              "__all__ = ['compress']\n"
              "def f():\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["accumulate", "M"]


def test_package_modules_import_nothing_unused():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path.read_text(encoding="utf-8"))]
        if names
    }
    assert found == {}


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps entry points of the package by name, so a
    # rename or deletion under src/ must fail here, not only in a traced
    # benchmark run; a fresh interpreter keeps the wrappers out of this one
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import spans\n"
            "spans.install(spans.Recorder())\n")
    r = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "perfbench")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
