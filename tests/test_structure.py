"""Module boundaries of the package: its source read with ``ast``, its imports run."""

import ast
import os
import re
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


def _foreign_private_attributes(path: Path) -> list:
    """``(line, name)`` of each non-dunder ``x._name`` ``path`` loads but does not define.

    A definition is a function, method or class of that name, or a name or
    attribute stored under it, anywhere in the file. Such a read reaches
    into another module past :func:`_sibling_private_imports`.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and node.attr not in defined
    )


def test_no_module_reads_a_private_attribute_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    offenders = {
        path.name: found for path in sources if (found := _foreign_private_attributes(path))
    }
    assert offenders == {}


def test_check_sees_foreign_private_attributes(tmp_path):
    # Seen: a read of a private attribute the file does not define, called,
    # chained or stored through. Not seen: a method, a class, a module-level
    # name or an attribute the file stores, a dunder, and a store alone.
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "_TABLE = {}\n"
        "class Kind:\n"
        "    class _Inner:\n        pass\n"
        "    def _own(self):\n        return self._own, self._cache, self._Inner\n"
        "    def setup(self):\n        self._cache = {}\n"
        "def build(kind, probe):\n"
        "    kind._plan()\n"
        "    probe._TABLE, kind.__class__, kind.__mangled\n"
        "    kind._routes.flag = True\n"
        "    kind.stored = np.linalg._umath_linalg\n"
        "    kind._written = 1\n",
        encoding="utf-8",
    )
    assert _foreign_private_attributes(source) == [
        (11, "_plan"), (12, "__mangled"), (13, "_routes"), (14, "_umath_linalg")
    ]


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


#: Texts of the entry rules: only :mod:`switchcap.qmatrix` decides and words them.
STATE_RULE_TEXTS = ("matrix contains NaN or Inf entries", "not Hermitian", "below positivity floor")
ENTRY_RULE_TEXTS = STATE_RULE_TEXTS + (
    "expected a square matrix",
    "subsystem dimensions must be positive integers",
    # The CLI's own "--p-start and --p-end must lie in [0, 1]" has no ", got".
    "must lie in [0, 1], got",
)


def _raised_texts(paths, texts) -> dict:
    """``{text: names of the files in paths that raise it}``, for each of ``texts``.

    A file raises a text when a string constant inside one of its ``raise``
    statements, an f-string part included, contains it.
    """
    found = {text: set() for text in texts}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                for const in ast.walk(node):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        for text in texts:
                            if text in const.value:
                                found[text].add(path.name)
    return found


def test_state_rules_are_raised_by_qmatrix_alone():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    assert _raised_texts(sources, ENTRY_RULE_TEXTS) == {
        text: {"qmatrix.py"} for text in ENTRY_RULE_TEXTS
    }


def test_check_sees_raised_texts(tmp_path):
    # Seen: a plain string, an f-string part, a constant nested in a call. Not
    # seen: a docstring, and a text bound to a name outside the raise.
    source = tmp_path / "probe.py"
    source.write_text(
        '"""Raises when a matrix is not Hermitian."""\n'
        "MESSAGE = 'below positivity floor'\n"
        "def check(m, dev):\n"
        "    if m is None:\n"
        "        raise ValueError('matrix contains NaN or Inf entries')\n"
        "    if dev:\n"
        "        raise ValueError(f'matrix is not Hermitian (max deviation {dev:.3e})')\n"
        "    raise TypeError(str(MESSAGE))\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.py"
    other.write_text("raise RuntimeError(' '.join(['below positivity floor']))\n", encoding="utf-8")
    assert _raised_texts([source, other], STATE_RULE_TEXTS) == {
        "matrix contains NaN or Inf entries": {"probe.py"},
        "not Hermitian": {"probe.py"},
        "below positivity floor": {"other.py"},
    }


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


#: Parameters a cache in ``src/`` may be keyed on: the structure of a
#: configuration (its kind or tree), lengths, dimensions, and the seed and
#: restart count that fix the optimizer's starts. A key on ``p``, amplitudes
#: or channel contents would turn repeated estimates into lookups.
CACHE_KEYS = {"kind", "tree", "n", "d_control", "d_target", "seed", "restarts"}

#: Caches that decorate no function, each kept for the reason given.
LOCAL_CACHES = {
    ("cli.py", "cmd_validate"): "one build per (configuration, family, p), shared by the "
    "capacity types of one validate run and dropped when it returns",
}


def _caches(path) -> list:
    """``(function, parameters)`` of each ``functools`` cache in ``path``.

    A cache is ``functools.cache`` or ``functools.lru_cache``, reached through
    the module or imported by name. For a cache that decorates a function,
    called or not, ``function`` is that function and ``parameters`` its
    parameter names; for any other use ``parameters`` is ``None`` and
    ``function`` the function around it (``"<module>"`` outside any).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"cache", "lru_cache"}
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    direct = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in names
    }

    def is_cache(node):
        if isinstance(node, ast.Attribute) and node.attr in names:
            return isinstance(node.value, ast.Name) and node.value.id in modules
        return isinstance(node, ast.Name) and node.id in direct

    found, decorating = [], set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in child.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if is_cache(target):
                        a = child.args
                        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                        found.append((child.name, [p.arg for p in params if p is not None]))
                        decorating.add(target)
                visit(child, child.name)
            else:
                if is_cache(child) and child not in decorating:
                    found.append((where, None))
                visit(child, where)

    visit(tree, "<module>")
    return found


def test_every_cache_is_keyed_on_structure():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = [(path.name, function, params) for path in sources for function, params in _caches(path)]
    decorated = [(name, function, params) for name, function, params in found if params is not None]
    assert len(decorated) >= 4
    assert [case for case in decorated if not set(case[2]) <= CACHE_KEYS] == []
    assert {(name, function) for name, function, params in found if params is None} == set(
        LOCAL_CACHES
    )


def test_check_sees_caches(tmp_path):
    # Seen: either name, through the module or imported (renamed too), called
    # or bare, every kind of parameter, and a use that decorates nothing.
    source = tmp_path / "probe.py"
    source.write_text(
        "import functools\n"
        "from functools import cache, lru_cache as memo, partial\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def plan(tree):\n    pass\n"
        "@functools.cache\n"
        "def leaf(kind, p):\n    pass\n"
        "@memo\n"
        "def vacuum(n, /, amps, *, d_target):\n    pass\n"
        "@cache\n"
        "def anything(*args, **kwargs):\n    pass\n"
        "@partial(print)\n"
        "def plain(p):\n    pass\n"
        "def run(p):\n    return functools.cache(leaf)(p)\n"
        "shared = cache(plain)\n",
        encoding="utf-8",
    )
    assert _caches(source) == [
        ("plan", ["tree"]),
        ("leaf", ["kind", "p"]),
        ("vacuum", ["n", "amps", "d_target"]),
        ("anything", ["args", "kwargs"]),
        ("run", None),
        ("<module>", None),
    ]


def _einsum_arrays(path) -> list:
    """``(line, arrays)`` of each ``einsum`` call in ``path``, ``arrays`` its array operands.

    A call is ``einsum`` by name or as an attribute (``np.einsum``). With a
    subscripts string first, every later argument is an array; in the sublist
    form, ``einsum(a, [0, 1], b, [1, 2], [0, 2])``, every other argument is,
    starting with the first, and an output sublist may close the call.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        first = node.args[0] if node.args else None
        subscripts = isinstance(first, ast.Constant) and isinstance(first.value, str)
        arrays = len(node.args) - 1 if subscripts else len(node.args) // 2
        found.append((node.lineno, arrays))
    return found


def test_every_einsum_takes_at_most_two_arrays():
    # numpy runs an unoptimized einsum of three or more arrays as one nested
    # loop over every index; two arrays at most keep it a plain contraction.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = {path.name: _einsum_arrays(path) for path in sources}
    assert sum(map(len, found.values())) >= 2
    offenders = {
        name: wide for name, calls in found.items() if (wide := [c for c in calls if c[1] > 2])
    }
    assert offenders == {}


def test_check_sees_einsum_arrays(tmp_path):
    # Counted: subscripts with two and three arrays, through numpy or by name,
    # and the sublist form with one array (its output sublist closing the call
    # or not) and with three. Not counted: another function's call.
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "np.einsum('ij,jk->ik', a, b)\n"
        "einsum('aij,jk,alk->il', ks, rho, ks.conj())\n"
        "np.einsum(rho, [0, 1, 0, 2], [1, 2])\n"
        "np.einsum(rho, [0, 0])\n"
        "np.einsum(a, [0, 1], b, [1, 2], c, [2, 3], [0, 3])\n"
        "np.matmul(a, b)\n",
        encoding="utf-8",
    )
    assert _einsum_arrays(source) == [(3, 2), (4, 3), (5, 1), (6, 1), (7, 3)]


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


def test_source_parses_at_the_declared_python_floor():
    # Read with a regex: tomllib is new in Python 3.11, above the floor.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor is not None
    version = tuple(map(int, floor.groups()))
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
