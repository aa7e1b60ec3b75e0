"""The library's names: those the benchmark tracer wraps exist, and every other one has a caller.

`perfbench/tracing.py` patches each `(module, attr)` of its WRAPPED table and
reads `spectral.dft_matrix.cache_info()`.  A library change that drops one of
those names would otherwise pass the suite and fail only in a traced
benchmark run.  The module is imported, never installed.

The other way round, a name in `src/qwave` that nothing in `src/` reads is
either dead or a test oracle, which belongs in `tests/oracles.py`.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "qwave"

# the tracer wraps these two and nothing in src/ calls them (ROADMAP item 4)
TRACED_ONLY = {"sim.depolarize_pair", "spectral.dft_matrix"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
    assert callable(tracing.spectral.dft_matrix.cache_info)


def _reads(tree: ast.AST) -> Counter:
    """How often `tree` reads each name, bare (`f`) or as an attribute (`x.f`)."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_library_name_has_a_caller_in_src():
    """Each definition must be read somewhere in src/ outside its own body.

    The match is by spelling, not by binding: a name that src/ reads as an
    attribute of something else passes, as a function `cost` once did beside
    `result.cost`.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = {
        name
        for module, tree in trees.items()
        for name, node in _definitions(module, tree)
        if reads[node.name] == _reads(node)[node.name]
    }
    assert unread == TRACED_ONLY, f"no caller in src/: {sorted(unread - TRACED_ONLY)}"
