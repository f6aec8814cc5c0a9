"""Rules over the package as a whole: its public surface, the one rule for
int arguments, the source conventions README states (no assert, no
unbounded lru_cache, no function that calls itself, no recurrence table
whose step reads another table, no TypeError raised outside exact), an
import that fills no cache, and a CLI import that loads neither typing nor
a stdlib module only some calls use."""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from collections.abc import Iterable, Sequence
from contextlib import redirect_stdout
from enum import Enum
from fractions import Fraction
from io import StringIO
from pathlib import Path

import powersumkit
from powersumkit import cli, combinatorics, exact, powersums, sequences, symfuncs, verify, zeta
from powersumkit.combinatorics import Parity
from powersumkit.powersums import Method

LAYERS = (exact, sequences, symfuncs, combinatorics, powersums, zeta, verify)


def test_package_surface_is_the_layers_all():
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(powersumkit, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    public = {name for name, value in vars(powersumkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for mod in LAYERS for name in mod.__all__}
    assert powersumkit.__version__


def _exported_code() -> dict:
    """code -> name of every exported function and of every method written
    in the body of an exported class, property getters included; __init__,
    __repr__ and __eq__, dataclass-generated methods, enums and exceptions
    are left out."""
    exported = {}
    for name, value in vars(powersumkit).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value):
            exported[value.__code__] = name
        elif isinstance(value, type) and not issubclass(value, (Enum, BaseException)):
            source = inspect.getsourcefile(value)
            for attr, member in vars(value).items():
                fn = member.fget if isinstance(member, property) else member
                if inspect.isfunction(fn) and attr not in ("__init__", "__repr__", "__eq__") \
                        and fn.__code__.co_filename == source:
                    exported.setdefault(fn.__code__, fn.__qualname__)
    return exported


def test_every_export_has_a_caller():
    """Every exported function and method is reached by `run_suite("all")`
    or a CLI subcommand, so verify or the CLI checks each one."""
    exported = _exported_code()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        verify.run_suite("all", 3, 4)
        with redirect_stdout(StringIO()):
            for argv in (["table", "--family", "central_V", "--rows", "3"],
                         ["powersum", "--k", "2", "--n", "3"],
                         ["verify", "--suite", "ones", "--k-max", "2", "--n-max", "2"],
                         ["zeta", "--k", "2"]):
                cli.main(argv)
    finally:
        sys.setprofile(None)
    assert len(exported) > 30
    assert sorted(name for code, name in exported.items() if code not in called) == []


INT_TYPES = (int, int | None)
NOT_INTS = (True, 2.0, Fraction(2))
# a valid argument for each parameter of a public function, so that a call
# fails only through the argument under test: by the parameter's type, or by
# its name for a str (a suite name, a sequence tag or a sigma/h family)
VALID = {int: 2, int | None: 2, Method: Method.BRUTE, Parity: Parity.EVEN,
         exact.Scalar: Fraction(1, 2), Iterable[exact.Scalar]: (1, 2), Sequence[Fraction]: [1]}
VALID_STR = {"name": "zeta", "tag": "naturals", "family": "ls1"}


def _accepts(call) -> bool:
    try:
        call()
    except TypeError:
        return False
    return True


def test_int_arguments_refuse_bools_floats_and_fractions():
    """Every int-annotated parameter of an exported function raises TypeError
    for a bool, a float or a Fraction."""
    accepted, covered = [], 0
    for name, fn in sorted(vars(powersumkit).items()):
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn, eval_str=True).parameters.values()
        kinds = [p.annotation for p in params]
        if not any(kind in INT_TYPES for kind in kinds):
            continue
        args = [VALID_STR[p.name] if p.annotation is str else VALID[p.annotation]
                for p in params]
        fn(*args)
        for i, kind in enumerate(kinds):
            if kind in INT_TYPES:
                covered += 1
                accepted += [f"{name} arg {i} = {bad!r}" for bad in NOT_INTS
                             if _accepts(lambda: fn(*args[:i], bad, *args[i + 1:]))]
    assert covered > 60  # 71 positions: the search found the surface, not nothing
    assert accepted == []


def _called_name(node: ast.expr) -> str | None:
    """`f` for a call of f or of m.f."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _unbounded_cache(node: ast.expr) -> bool:
    if _called_name(node) == "cache":
        return True
    if not isinstance(node, ast.Call) or _called_name(node.func) != "lru_cache":
        return False
    sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def _is_table(node: ast.AST) -> bool:
    """A function decorated with `recurrence` or `partial(recurrence, ...)`."""
    return isinstance(node, ast.FunctionDef) and any(
        _called_name(d) == "recurrence"
        or isinstance(d, ast.Call) and _called_name(d.func) == "partial"
        and bool(d.args) and _called_name(d.args[0]) == "recurrence"
        for d in node.decorator_list)


def test_source_follows_the_conventions():
    found = []
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(powersumkit.__file__).parent.glob("*.py"))}
    tables = {node.name for tree in trees.values() for node in ast.walk(tree) if _is_table(node)}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Assert):
                found.append(f"{where} assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_unbounded_cache(d) for d in node.decorator_list):
                    found.append(f"{where} lru_cache without a finite maxsize")
                if any(isinstance(call, ast.Call) and _called_name(call.func) == node.name
                       for call in ast.walk(node)):
                    found.append(f"{where} {node.name} calls itself")
                # a table's step reads only its own terms: what it derives
                # from another table goes into that table's term instead
                others = tables - {node.name} & {_called_name(n) for n in ast.walk(node)
                                                 if isinstance(n, (ast.Name, ast.Attribute))}
                if _is_table(node) and others:
                    found.append(f"{where} table {node.name} reads {sorted(others)}")
            elif isinstance(node, ast.Raise) and path.name != "exact.py" and node.exc \
                    and _called_name(getattr(node.exc, "func", node.exc)) == "TypeError":
                found.append(f"{where} raise TypeError outside exact.py")
    assert found == []


# imports every module of the package and builds the CLI's parser, then
# prints hits, misses and size of every module-level cache_info() callable
_IMPORT_ONLY = """
import importlib, json, pkgutil
import powersumkit, powersumkit.cli
mods = [powersumkit] + [importlib.import_module("powersumkit." + m.name)
                        for m in pkgutil.iter_modules(powersumkit.__path__)]
powersumkit.cli.build_parser()
print(json.dumps({f"{mod.__name__}.{name}": [info.hits, info.misses, info.currsize]
                  for mod in mods for name, value in vars(mod).items()
                  if callable(getattr(value, "cache_info", None))
                  for info in [value.cache_info()]}))
"""


def test_importing_the_cli_fills_no_cache():
    """A fresh interpreter that imports every module and builds the CLI's
    parser has read and filled no cache, so a process forked from it (as
    the benchmark forks its cold tasks) starts cold."""
    src = str(Path(powersumkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    caches = json.loads(proc.stdout)
    assert len(caches) >= 5  # four tables and the point cache
    assert {name: info for name, info in caches.items() if info != [0, 0, 0]} == {}


# the modules a fresh interpreter loads for `import powersumkit.cli` and
# build_parser(), beyond those that argparse, fractions and enum load there
# themselves; that baseline follows the interpreter's own import graph
_CLI_IMPORTS = """
import sys
import argparse, enum, fractions
before = set(sys.modules)
import powersumkit.cli
powersumkit.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _cli_imports(*flags: str) -> set:
    src = str(Path(powersumkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", _CLI_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "powersumkit.cli" in loaded
    return loaded


def test_importing_the_cli_loads_no_unused_stdlib():
    """dataclasses (with inspect), json and traceback serve only some calls,
    so the CLI imports them where they are used, not at start."""
    assert _cli_imports() & {"dataclasses", "inspect", "json", "traceback"} == set()


def test_importing_the_cli_loads_no_typing():
    """Annotations are builtin generics, `X | None` and collections.abc, so
    nothing loads typing.  Under -S no `site` module has loaded it first."""
    assert "typing" not in _cli_imports("-S")
