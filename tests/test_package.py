"""Rules over the package as a whole: its public surface, the one rule for
int arguments, and the source conventions README states (no assert, no
unbounded lru_cache, no function that calls itself, no TypeError raised
outside exact)."""

import ast
import inspect
import types
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import powersumkit
from powersumkit import combinatorics, exact, powersums, sequences, symfuncs, verify, zeta
from powersumkit.combinatorics import Parity
from powersumkit.powersums import Method
from powersumkit.sequences import SequenceSpec

LAYERS = (exact, sequences, symfuncs, combinatorics, powersums, zeta, verify)


def test_package_surface_is_the_layers_all():
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(powersumkit, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    public = {name for name, value in vars(powersumkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for mod in LAYERS for name in mod.__all__}
    assert powersumkit.__version__


INT_TYPES = (int, Optional[int])
NOT_INTS = (True, 2.0, Fraction(2))
# a valid argument for each parameter type of a public function, so that a
# call fails only through the argument under test
VALID = {int: 2, Optional[int]: 2, str: "zeta", Method: Method.BRUTE, Parity: Parity.EVEN,
         symfuncs.Vars: SequenceSpec("naturals", 2), Sequence[Fraction]: [1]}


def _accepts(call) -> bool:
    try:
        call()
    except TypeError:
        return False
    return True


def test_int_arguments_refuse_bools_floats_and_fractions():
    """Every int-annotated parameter of an exported function, and every int
    field of SequenceSpec, raises TypeError for a bool, a float or a Fraction."""
    accepted, covered = [], 0
    for name, fn in sorted(vars(powersumkit).items()):
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        kinds = [p.annotation for p in inspect.signature(fn, eval_str=True).parameters.values()]
        if not any(kind in INT_TYPES for kind in kinds):
            continue
        args = [VALID[kind] for kind in kinds]
        fn(*args)
        for i, kind in enumerate(kinds):
            if kind in INT_TYPES:
                covered += 1
                accepted += [f"{name} arg {i} = {bad!r}" for bad in NOT_INTS
                             if _accepts(lambda: fn(*args[:i], bad, *args[i + 1:]))]
    for field, kind in get_type_hints(SequenceSpec).items():
        if kind is int:
            covered += 1
            accepted += [f"SequenceSpec {field} = {bad!r}" for bad in NOT_INTS
                         if _accepts(lambda: SequenceSpec("naturals", **{field: bad}))]
    assert covered > 60  # 73 positions: the search found the surface, not nothing
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


def test_source_follows_the_conventions():
    found = []
    for path in sorted(Path(powersumkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Assert):
                found.append(f"{where} assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_unbounded_cache(d) for d in node.decorator_list):
                    found.append(f"{where} lru_cache without a finite maxsize")
                if any(isinstance(call, ast.Call) and _called_name(call.func) == node.name
                       for call in ast.walk(node)):
                    found.append(f"{where} {node.name} calls itself")
            elif isinstance(node, ast.Raise) and path.name != "exact.py" and node.exc \
                    and _called_name(getattr(node.exc, "func", node.exc)) == "TypeError":
                found.append(f"{where} raise TypeError outside exact.py")
    assert found == []
