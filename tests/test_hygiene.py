"""Source hygiene checks that need no linter: every import and private helper is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "occusid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (`from __future__` excluded)."""
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
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import math\nimport os\nfrom numpy import array, zeros\nprint(os.sep, zeros)\n"
    assert unused_imports(source) == ["array (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict) -> list[str]:
    """Module-level private names (`_x`, dunders excluded) that no module reads.

    sources maps a module name to its text. A name counts as read when any
    module loads it, reads it as an attribute, or imports it by name.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{module}: {name}" for module, name in defined if name not in used)


def test_checker_finds_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 3\n_unused_table = {}\ndef _helper():\n    return _LIMIT\n"
             "def _dead():\n    pass\nclass _Gone:\n    pass\n__all__ = []\n",
        "b": "from a import _helper\nimport a\nprint(_helper(), a._Gone)\n",
    }
    assert unreferenced_private_names(sources) == ["a: _dead", "a: _unused_table"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def outside_owner(sources: dict, token: str, owner: str, function: str) -> list[str]:
    """`module:line` of each line holding token in sources, outside the
    module-level function `function` of the module `owner`."""
    found = []
    for module, source in sorted(sources.items()):
        allowed = set()
        if module == owner:
            for node in ast.parse(source).body:
                if isinstance(node, ast.FunctionDef) and node.name == function:
                    allowed = set(range(node.lineno, node.end_lineno + 1))
        found += [f"{module}:{i}" for i, line in enumerate(source.splitlines(), start=1)
                  if token in line and i not in allowed]
    return found


def setflags_outside_freeze(sources: dict) -> list[str]:
    """`module:line` of each `setflags(` in sources outside trajectory._freeze.

    _freeze is the one place an array is made read-only: every value type
    stores _freeze of the arrays it keeps, so none freezes an array it shares.
    """
    return outside_owner(sources, "setflags(", "trajectory.py", "_freeze")


def test_checker_finds_setflags_outside_freeze():
    sources = {
        "trajectory.py": "def _freeze(a):\n    a.setflags(write=False)\n    return a\n"
                         "x.setflags(write=False)\n",
        "kernels.py": "def f(a):\n    a.setflags(write=False)\n",
    }
    assert setflags_outside_freeze(sources) == ["kernels.py:2", "trajectory.py:4"]


def test_only_freeze_calls_setflags():
    assert setflags_outside_freeze({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def exec_outside_stepper(sources: dict) -> list[str]:
    """`module:line` of each `exec(` in sources outside dynamics._stepper.

    _stepper is the one place code is generated: it compiles the RK4 loop of
    one state dimension from source built out of integers alone.
    """
    return outside_owner(sources, "exec(", "dynamics.py", "_stepper")


def test_checker_finds_exec_outside_stepper():
    sources = {
        "dynamics.py": "import functools\n@functools.cache\ndef _stepper(n):\n"
                       "    exec(f'x = {n}', {})\ndef integrate():\n    exec('y = 1')\n",
        "cli.py": "def main(text):\n    return exec(text)\n",
    }
    assert exec_outside_stepper(sources) == ["cli.py:2", "dynamics.py:6"]


def test_only_stepper_calls_exec():
    assert exec_outside_stepper({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_readme_minimal_example_runs(capsys):
    # the README's library example, run as written, so the doc cannot drift from the code
    readme = (SRC.parents[1] / "README.md").read_text()
    code = readme.split("Minimal example:\n\n```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-9
