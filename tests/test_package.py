"""Rules over the package as a whole: its public surface, and the source
conventions README states (no assert, no unbounded lru_cache, no function
that calls itself)."""

import ast
import types
from pathlib import Path

import powersumkit
from powersumkit import combinatorics, exact, powersums, sequences, symfuncs, verify, zeta

LAYERS = (exact, sequences, symfuncs, combinatorics, powersums, zeta, verify)


def test_package_surface_is_the_layers_all():
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(powersumkit, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    public = {name for name, value in vars(powersumkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for mod in LAYERS for name in mod.__all__}
    assert powersumkit.__version__


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
    assert found == []
