"""Guard against program code that only the tests reach.

Every top-level function or class in ``src/etrlab``, public or private,
must be named somewhere the program or its fixed checks look it up:
another module of the package, another line of its own module, the
acceptance suite, or the benchmark (``perfbench/*.py``, which also probes
names as strings). Test files other than the acceptance suite do not
count, nor do ``__all__`` lists, so a helper kept alive only by its own
unit tests or a re-export fails here. The names the benchmark probes must
also exist: its probe installer skips a missing attribute without a word,
so a renamed function would otherwise read 0 calls and 0 seconds.

Every dataclass field and ``__slots__`` name in ``src/etrlab`` must be
read in the same places: loaded as an attribute or named in an identifier
string. A field that is only ever stored is state kept for nobody.

Every name a module imports must be used in it, unless its line is marked
``# noqa``: no linter runs on the package, so an import a deletion leaves
behind would otherwise stay.

The functions on a training step's or an evaluation's path call numpy's
ufuncs and array methods directly (``policy.masked_logprobs`` says why),
so none of them may call a Python-level wrapper that reaches the same C
code at a fixed extra cost.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etrlab"
OUTSIDE_READERS = [
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def top_level_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and identifier strings used in a tree.

    The subtree ``skip`` (a definition itself) and ``__all__`` assignments
    are left out.
    """
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreached_definitions(
    modules: dict[str, ast.Module], readers: list[ast.Module]
) -> list[str]:
    """``module.name`` of each top-level definition no module or reader names."""
    outside: set[str] = set()
    for tree in readers:
        outside |= referenced_names(tree)
    unreached = []
    for name, tree in modules.items():
        elsewhere = set(outside)
        for other, other_tree in modules.items():
            if other != name:
                elsewhere |= referenced_names(other_tree)
        for node in top_level_definitions(tree):
            if node.name not in elsewhere | referenced_names(tree, skip=node):
                unreached.append(f"{name}.{node.name}")
    return unreached


def test_every_definition_is_reached_outside_the_unit_tests():
    assert all(path.is_file() for path in OUTSIDE_READERS) and len(OUTSIDE_READERS) > 1
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [ast.parse(path.read_text()) for path in OUTSIDE_READERS]
    assert unreached_definitions(modules, readers) == []


def test_guard_flags_helpers_named_only_by_themselves_or_all():
    module = ast.parse(
        '__all__ = ["helper", "used", "probed"]\n'
        "def helper(n):\n    return helper(n - 1) if n else 0\n"
        "def used():\n    pass\n"
        "def probed():\n    pass\n"
        "def _private():\n    pass\n"
        "def _called():\n    pass\n"
        "class Spare:\n    pass\n"
        "def run():\n    return _called()\n"
    )
    caller = ast.parse("from a import used, run\nused()\nrun()\n")
    probe = ast.parse('getattr(a, "probed")\n')
    assert unreached_definitions({"a": module, "b": caller}, [probe]) == [
        "a.helper",
        "a._private",
        "a.Spare",
    ]
    assert unreached_definitions({"a": module}, []) == [
        "a.helper",
        "a.used",
        "a.probed",
        "a._private",
        "a.Spare",
        "a.run",
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_assignment_to(node: ast.AST, names: tuple[str, ...]) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in names for t in node.targets
    )


def declared_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, field)`` of each dataclass field and ``__slots__`` name."""
    fields = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if _is_dataclass(node) and isinstance(stmt, ast.AnnAssign):
                fields.append((node.name, stmt.target.id))
            elif _is_assignment_to(stmt, ("__slots__",)):
                slots = [c for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)]
                fields += [(node.name, c.value) for c in slots]
    return fields


def read_attributes(tree: ast.AST) -> set[str]:
    """Attribute loads and identifier strings, but ``__slots__`` and ``__all__``."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_assignment_to(node, ("__slots__", "__all__")):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.Class.field`` of each field no module or reader reads."""
    read: set[str] = set()
    for tree in [*modules.values(), *readers]:
        read |= read_attributes(tree)
    return [
        f"{name}.{cls}.{field}"
        for name, tree in modules.items()
        for cls, field in declared_fields(tree)
        if field not in read
    ]


def test_every_field_is_read_outside_the_unit_tests():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [ast.parse(path.read_text()) for path in OUTSIDE_READERS]
    assert ("groups", "GroupStats") in {
        (name, cls) for name, tree in modules.items() for cls, _ in declared_fields(tree)
    }
    assert unread_fields(modules, readers) == []


def test_field_guard_flags_fields_that_are_only_stored():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Stats:\n"
        "    kept: float\n"
        "    stored: float\n"
        "    probed: float = 0.0\n"
        "@dataclass\n"
        "class Log:\n"
        "    written: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "class Rows:\n"
        '    __slots__ = ("tokens", "spare")\n'
        "    def __init__(self, tokens):\n"
        "        self.tokens = tokens\n"
        "        self.spare = None\n"
        "def run(log):\n"
        "    log.written += 1\n"
        "    return Stats(kept=1.0, stored=2.0).kept, Rows(()).tokens\n"
    )
    probe = ast.parse('getattr(stats, "probed")\n')
    want = ["a.Stats.stored", "a.Log.written", "a.Rows.spare"]
    assert unread_fields({"a": module}, [probe]) == want
    assert unread_fields({"a": module}, []) == [
        "a.Stats.stored",
        "a.Stats.probed",
        "a.Log.written",
        "a.Rows.spare",
    ]


def probed_names(tree: ast.AST) -> list[tuple[str, str]]:
    """``(owner, attribute)`` of every ``Probe(owner, "attribute", ...)`` call."""
    return [
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Probe"
    ]


def unresolved_probes(tree: ast.AST) -> list[str]:
    """``owner.attribute`` of each probe whose attribute is missing on etrlab."""
    missing = []
    for owner, attr in probed_names(tree):
        module, *path = owner.split(".")
        obj = importlib.import_module(f"etrlab.{module}")
        for name in path:
            obj = getattr(obj, name)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    return missing


def test_every_probed_name_exists_on_etrlab():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    probed = probed_names(tree)
    assert ("trainer", "group_stats") in probed and ("autodiff.Record", "backward") in probed
    assert unresolved_probes(tree) == []


def test_probe_guard_flags_a_missing_name():
    tree = ast.parse(
        'Probe(trainer, "rollout_batch", "trainer.rollout")\n'
        'Probe(trainer, "no_such_name", "x")\n'
        'Probe(autodiff.Record, "no_such_method", "y")\n'
    )
    assert unresolved_probes(tree) == ["trainer.no_such_name", "autodiff.Record.no_such_method"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, but those on a ``# noqa`` line.

    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(bound)
    return unused


def test_every_import_is_used():
    unused = {
        path.stem: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_import_guard_flags_unused_names_and_skips_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "import json\n"
        "from . import policy as policy_mod\n"
        "from .a import (\n"
        "    used,\n"
        "    spare,\n"
        "    probed,  # noqa: F401\n"
        ")\n"
        "def f() -> np.ndarray:\n"
        "    return used(policy_mod, os)\n"
    )
    assert unused_imports(source) == ["json", "spare"]


# Functions on a training step's or an evaluation's path, by module, the
# draw producer's per-step work included; "Class.method" names a method.
STEP_PATH = {
    "groups": ["group_stats", "RolloutBatch.__post_init__", "RolloutBatch.lengths"],
    "objectives": [
        "macro_adjustment",
        "prepare_batch",
        "_distinct_rows",
        "evaluate_prepared",
    ],
    "policy": [
        "sample_groups",
        "sample_group",
        "grammar_table",
        "lockstep_setup",
        "draw_uniforms",
        "masked_logprobs",
        "embedding_one_hot",
        "logits_gradient",
    ],
    "tasks": ["answer_key", "verify_rows"],
    "trainer": [
        "step_setup",
        "rollout_batch",
        "train_step",
        "apply_gradient",
        "clip_grad_norm",
        "_SideWork.draws",
        "_SideWork.submit",
        "_SideWork.collect",
        "_SideWork.close",
        "run_training",
        "evaluate",
    ],
}
NUMPY_WRAPPERS = {
    "sum",
    "mean",
    "any",
    "all",
    "clip",
    "expand_dims",
    "flatnonzero",
    "cumsum",
    "repeat",
    "nonzero",
    "column_stack",
}
ARRAY_WRAPPERS = {"sum", "mean", "any", "all"}


def find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    """The definition of ``name`` ("function" or "Class.method") in a module."""
    scope: list[ast.stmt] = tree.body
    *owners, leaf = name.split(".")
    for owner in owners:
        classes = [n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner]
        if not classes:
            return None
        scope = classes[0].body
    found = [n for n in scope if isinstance(n, ast.FunctionDef) and n.name == leaf]
    return found[0] if found else None


def wrapper_calls(function: ast.AST) -> list[str]:
    """Calls in a function of ``np.<wrapper>`` or an array's ``.<wrapper>`` method."""
    calls = []
    for node in ast.walk(function):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and func.value.id == "np":
            if func.attr in NUMPY_WRAPPERS:
                calls.append(f"np.{func.attr}")
        elif func.attr in ARRAY_WRAPPERS:
            calls.append(f".{func.attr}")
    return calls


def test_step_path_calls_no_numpy_wrappers():
    found = {}
    for module, names in STEP_PATH.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for name in names:
            function = find_function(tree, name)
            assert function is not None, f"{module}.{name} is gone; update STEP_PATH"
            calls = wrapper_calls(function)
            if calls:
                found[f"{module}.{name}"] = calls
    assert found == {}


def test_wrapper_guard_flags_wrappers_and_methods_only():
    tree = ast.parse(
        "class Batch:\n"
        "    def check(self, x):\n"
        "        return np.all(x > 0) and x.any() and all(x)\n"
        "    def rows(self, x, g):\n"
        "        return np.repeat(x, g), x.repeat(g)\n"
        "def stats(x):\n"
        "    m = np.add.reduce(x) / x.size\n"
        "    return np.clip(x, 0, 1), x.sum(axis=0), np.expand_dims(m, -1), np.minimum(x, m)\n"
        "def layout(read, new):\n"
        "    r, p = np.nonzero(read)\n"
        "    q, c = read.nonzero()\n"
        "    index = np.cumsum(new) - 1, new.cumsum() - 1\n"
        "    return np.column_stack((r, p)), np.concatenate((q[:, None], c[:, None]), axis=1)\n"
    )
    assert wrapper_calls(find_function(tree, "Batch.check")) == ["np.all", ".any"]
    assert sorted(wrapper_calls(find_function(tree, "stats"))) == [
        ".sum", "np.clip", "np.expand_dims"
    ]
    assert wrapper_calls(find_function(tree, "Batch.rows")) == ["np.repeat"]
    assert sorted(wrapper_calls(find_function(tree, "layout"))) == [
        "np.column_stack", "np.cumsum", "np.nonzero"
    ]
    assert find_function(tree, "check") is None and find_function(tree, "Other.stats") is None
