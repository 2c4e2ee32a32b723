"""Module boundaries of the package, checked on its source with ``ast``."""

import ast
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
