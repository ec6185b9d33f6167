"""Whole-package guards: no dead names in the package, and the README's
library sketch runs against the top-level exports."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import idemalg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idemalg"


def _defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, and the methods of the
    top-level classes; dunder names are called by Python itself."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_package_name_is_used_somewhere_else():
    """Each name the package defines occurs as a word in src/, tests/ or
    perfbench/ more often than it is defined.  This gives only a lower
    bound on dead code: a name that is also a common word (`meet`, `pairs`)
    or that another definition shares slips through."""
    this = Path(__file__).resolve()
    words: Counter = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.resolve() != this:
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = Counter(name for path in sorted(PACKAGE.glob("*.py"))
                      for name in _defined_names(ast.parse(path.read_text(encoding="utf-8"))))
    dead = sorted(name for name, count in defined.items() if words[name] <= count)
    assert dead == []


def test_readme_library_sketch_runs():
    """The sketch runs, and the section names every top-level export."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    exported = [name for name, value in vars(idemalg).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
    assert exported
    assert [name for name in exported if f"`{name}`" not in section] == []
