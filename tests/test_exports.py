import ast
import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import archemo

MODULES = sorted(m.name for m in pkgutil.iter_modules(archemo.__path__))
ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
SRC_FILES = sorted(glob.glob(os.path.join(ROOT, "src", "archemo", "*.py")))
# the package's __init__ imports only to re-export
LINTED_FILES = sorted(
    [p for p in glob.glob(os.path.join(ROOT, "src", "archemo", "*.py"))
     if os.path.basename(p) != "__init__.py"]
    + glob.glob(os.path.join(ROOT, "tests", "*.py")) + DEMOS)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(f"archemo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"archemo.{name}.__all__ lists undefined names {missing}"


def _archemo_imports(path):
    """(module, name) for every archemo import of a file; name is None for `import m`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "archemo":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "archemo":
                    yield alias.name, None


def _resolve(node, names):
    """The archemo object a call's callee names (``f`` or ``f.attr...``), or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    obj = names[node.id]
    for attr in reversed(attrs):
        obj = getattr(obj, attr, None)
    return obj


def _stale_keywords(path):
    """``callee(keyword=)`` for every keyword a file passes to an archemo callable
    whose signature lacks it."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "archemo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)
    stale = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, names)
        if not callable(target):
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        stale += [f"{ast.unparse(node.func)}({kw.arg}=)" for kw in node.keywords
                  if kw.arg is not None and kw.arg not in params]
    return stale


def _assert_imports_resolve(path):
    imports = list(_archemo_imports(path))
    assert imports, f"{path} imports nothing from archemo"
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name or "__name__")]
    assert not missing, f"{os.path.basename(path)} imports undefined names {missing}"
    stale = _stale_keywords(path)
    assert not stale, f"{os.path.basename(path)} passes keywords its callees lack: {stale}"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    # the demos are not run by the suite, so a renamed function or a retired
    # keyword argument would go unnoticed
    _assert_imports_resolve(path)


@pytest.mark.parametrize("path", [p for p in BENCH_FILES if any(_archemo_imports(p))],
                         ids=os.path.basename)
def test_benchmark_imports_resolve(path):
    # a name or keyword the benchmark uses and the package retired would
    # otherwise surface only as a failed benchmark run
    _assert_imports_resolve(path)


def _unused_imports(path):
    """Names a file imports and never reads; a name listed in ``__all__`` is read."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", LINTED_FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{os.path.relpath(path, ROOT)} imports names it never reads: {unused}"


def _private_definitions(tree):
    """The underscore-prefixed names a module defines at its top level: functions,
    classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            continue
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_private_definition_is_only_read_outside_the_package():
    # a retired helper must not live on as code that only the tests read: every
    # private top-level name of src/archemo is read somewhere in src/archemo, by
    # name or as an attribute (g._NODE_INDEX)
    defined, read = {}, set()
    for path in SRC_FILES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for name in _private_definitions(tree):
            defined[name] = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(f"{path}:{name}" for name, path in defined.items() if name not in read)
    assert not unread, f"private names no package code reads: {unread}"


# a Sphinx-style cross-reference in a comment or docstring
DOC_REFERENCE = re.compile(r":(?:func|meth|class|data|attr):`([^`]+)`")


def _reference_resolves(module, ref):
    """Whether ``ref`` names an attribute of a package module (``forward.step_source``),
    a top-level name of ``module`` or an attribute of one (``ExperimentBank.stack``), or
    a member of a class that ``module`` defines (``implicit``)."""
    parts = ref.split(".")
    if parts[0] in MODULES and len(parts) > 1:
        obj, parts = importlib.import_module(f"archemo.{parts[0]}"), parts[1:]
    elif hasattr(module, parts[0]):
        obj = module
    else:
        return len(parts) == 1 and any(
            hasattr(cls, ref) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__)
    for attr in parts:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_docstring_references_resolve():
    # a docstring that still points at a retired or renamed name misleads its reader
    stale, count = [], 0
    for path in SRC_FILES:
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module("archemo" if name == "__init__" else f"archemo.{name}")
        with open(path) as fh:
            refs = DOC_REFERENCE.findall(fh.read())
        count += len(refs)
        stale += [f"{os.path.relpath(path, ROOT)}: {ref}" for ref in refs
                  if not _reference_resolves(module, ref)]
    assert count > 0
    assert not stale, f"references to undefined names: {stale}"


def test_no_constant_sequence_is_spelled_twice():
    # a list of names or labels written out in two places drifts apart when one is
    # edited: every tuple or list literal of three or more constants in src/archemo
    # appears once, and other places read it from there
    seen = {}
    for path in SRC_FILES:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) >= 3
                    and all(isinstance(e, ast.Constant) for e in node.elts)):
                key = tuple(e.value for e in node.elts)
                seen.setdefault(key, []).append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    repeated = {key: where for key, where in seen.items() if len(where) > 1}
    assert not repeated, f"constant sequences spelled out more than once: {repeated}"


def test_traced_functions_exist():
    # the benchmark's traced run rebinds each (module, function) of perfbench/tracer.py's
    # TRACED by name and reads Oracle.query_count; a deleted or renamed one fails that
    # run, not the suite
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    assert traced
    missing = [f"{module}.{func}" for module, func, _ in traced
               if not callable(getattr(importlib.import_module(f"archemo.{module}"), func, None))]
    assert not missing, f"traced functions the package no longer defines: {missing}"
    assert isinstance(inspect.getattr_static(archemo.Oracle, "query_count", None), property)
