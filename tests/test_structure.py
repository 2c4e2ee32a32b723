"""Module boundaries of the package: its source read with ``ast``, its imports run."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import switchcap

PACKAGE = Path(switchcap.__file__).parent


def _sibling_private_imports(path: Path) -> list:
    """``(line, name)`` of each underscore name ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "switchcap":
                continue
            names = module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [
                part
                for alias in node.names
                if alias.name.split(".")[0] == "switchcap"
                for part in alias.name.split(".")
            ]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    offenders = {
        path.name: found for path in sources if (found := _sibling_private_imports(path))
    }
    assert offenders == {}


def test_check_sees_private_imports(tmp_path):
    # The check must catch each import form it guards against.
    source = tmp_path / "probe.py"
    source.write_text(
        "from .channels import _input_state, apply\n"
        "from switchcap.configs import _LEAF_MODELS\n"
        "from . import _private_module\n"
        "import switchcap._private_module\n"
        "from __future__ import annotations\n"
        "from numpy import _NoValue\n",
        encoding="utf-8",
    )
    names = [name for _, name in _sibling_private_imports(source)]
    assert names == ["_input_state", "_LEAF_MODELS", "_private_module", "_private_module"]


def _loads(node) -> list:
    """Every name ``node`` loads, as an ``ast.Name`` id or an ``ast.Attribute`` attr."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def _definitions(tree):
    """``(name, loads inside it)`` of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, Counter(_loads(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                yield from ((n.id, Counter()) for n in ast.walk(t) if isinstance(n, ast.Name))


def _unread_private_names(paths) -> list:
    """``(file, name)`` of each module-level ``_name`` in ``paths`` that none of them reads.

    A definition is a function, a class or an assigned name with one leading
    underscore; a read is a loaded name or attribute outside that definition.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = Counter(name for tree in trees.values() for name in _loads(tree))
    return [
        (path.name, name)
        for path, tree in trees.items()
        for name, own in _definitions(tree)
        if name.startswith("_") and not name.startswith("__") and reads[name] == own[name]
    ]


def test_every_private_name_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    assert _unread_private_names(sources) == []


def test_check_sees_unread_private_names(tmp_path):
    # Unread: a constant, a class, a function that only calls itself.
    source = tmp_path / "probe.py"
    source.write_text(
        "_UNREAD = 1\n"
        "_READ: int = 2\n"
        "__dunder__ = _READ\n"
        "class _Unused:\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _helper():\n    return 0\n"
        "def public():\n    return _helper() + probe._attribute\n"
        "def _attribute():\n    pass\n",
        encoding="utf-8",
    )
    assert _unread_private_names([source]) == [
        ("probe.py", "_UNREAD"), ("probe.py", "_Unused"), ("probe.py", "_recursive")
    ]


ROOT = Path(__file__).resolve().parent.parent

#: Exports no module under ``src/``, ``demos/`` or ``perfbench/`` reads, each kept
#: for the reason given.
UNREAD_EXPORTS = {
    "identity_channel": "catalog constructor, the noiseless end of the channel catalog",
    "pauli": "catalog constructor, the general Pauli channel of the catalog",
    "holevo_information": "the reference the classical objective is tested against, "
    "and the engine of a Holevo capacity on the full output",
    "target_marginal": "independent reference for the classical objective and the oracle",
    "effective_flip_probability": "independent reference for the classical closed forms",
}


def _all_names(tree) -> list:
    """The strings listed in the module-level ``__all__`` of ``tree``."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def _unread_exports(modules, readers) -> set:
    """Each name in an ``__all__`` of ``modules`` that no file in ``readers`` loads.

    A read is a loaded name or attribute outside the name's own definition
    in ``modules``; an import or an ``__all__`` entry alone is not a read.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in modules]
    exported = {name for tree in trees for name in _all_names(tree)}
    own = {name: loads for tree in trees for name, loads in _definitions(tree)}
    reads = Counter(
        name for path in readers for name in _loads(ast.parse(path.read_text(encoding="utf-8")))
    )
    return {name for name in exported if reads[name] == own.get(name, Counter())[name]}


def test_every_export_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = modules + sorted((ROOT / "demos").glob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert len(modules) > 1 and len(readers) > len(modules) + 3
    assert _unread_exports(modules, readers) == set(UNREAD_EXPORTS)
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(switchcap.__all__) == sorted(imported)


def test_check_sees_unread_exports(tmp_path):
    # Unread: an export never loaded, one that only calls itself, one only imported.
    module = tmp_path / "probe.py"
    module.write_text(
        '__all__ = ["read", "unread", "recursive", "imported", "attribute", "CONSTANT"]\n'
        "CONSTANT = 1\n"
        "def read():\n    return CONSTANT\n"
        "def unread():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def imported():\n    pass\n"
        "def attribute():\n    pass\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text(
        "import probe\n"
        "from probe import imported, read\n"
        "read()\n"
        "probe.attribute()\n",
        encoding="utf-8",
    )
    assert _unread_exports([module], [module, user]) == {"unread", "recursive", "imported"}


def _imported_modules(*args) -> set:
    """Every module ``python -X importtime *args`` imports, read from its stderr."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_no_capacity_run_imports_scipy():
    # Both solvers are numpy-only; a stray or a lazy scipy import would show here.
    library = _imported_modules(
        "-c",
        "import sys\n"
        "from switchcap import Family, SupermapKind, build_fixed, classical_capacity,"
        " quantum_capacity\n"
        "fixed = build_fixed(SupermapKind.COH_OF_COH, Family.DEPOLARIZING, 0.3)\n"
        "assert classical_capacity(fixed).converged and quantum_capacity(fixed).converged\n"
        "assert 'scipy' not in sys.modules\n",
    )
    cli = _imported_modules("-m", "switchcap.cli", "vacuum-sweep", "--p-steps", "1")
    for imported in (library, cli):
        assert {"numpy", "switchcap.infotheory"} <= imported
        assert not {name for name in imported if name.split(".")[0] == "scipy"}
