"""Static checks over the package source, made with ``ast`` alone."""

import ast
from pathlib import Path

import atomswarm

PACKAGE = Path(atomswarm.__file__).parent


def _names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads.

    A name counts as read when the module loads it, names it in a string
    annotation such as ``-> "Configuration"``, or lists it in ``__all__``. The
    submodules a package ``__init__`` imports with ``from . import ...`` are
    its namespace, so they count as read too.
    """
    tree = ast.parse(path.read_text())
    imported = []
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            namespace = path.name == "__init__.py" and isinstance(node, ast.ImportFrom) and node.module is None
            if not namespace:
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_package_modules_import_nothing_they_do_not_use():
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) for name in unused_imports(path)]
    assert unused == []


def private_imports(path: Path) -> list[str]:
    """Underscore names a module imports from another atomswarm module."""
    return [
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("atomswarm"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_package_modules_import_no_private_name_from_each_other():
    private = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) for name in private_imports(path)]
    assert private == []


def test_the_private_import_check_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from collections import _chain\n"
        "from . import engine\n"
        "from .faults import _integer, fault_plan\n"
        "from atomswarm.harness import _replay\n"
    )
    assert private_imports(module) == ["faults._integer", "atomswarm.harness._replay"]


def test_the_unused_import_check_sees_through_annotations_and_all(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from typing import Mapping\n"
        "from fractions import Fraction\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Mapping') -> Fraction:\n"
        "    return loads(x)\n"
    )
    assert unused_imports(module) == ["os", "osp"]
