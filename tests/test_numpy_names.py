"""The numpy names that src/ uses, pinned.

The package supports numpy 1.24, which the offline test run cannot load, so
a numpy name new to src/ fails this test until it is added to ``PINNED``
after checking that numpy 1.24 has it.  The walk collects every attribute
chain rooted at ``np`` with its prefixes: ``np.random.default_rng(...)``
adds ``random`` and ``random.default_rng``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PINNED = {
    "abs", "add", "add.at", "all", "arange", "argmax", "array", "asarray", "ascontiguousarray",
    "bincount", "concatenate", "cumsum", "diff", "dot", "empty",
    "errstate", "exp", "flatnonzero", "float64", "frombuffer", "full_like", "inf", "int32", "int64",
    "intp", "isfinite", "lexsort", "linalg", "linalg.norm", "linalg.qr", "log",
    "log1p", "matmul", "max", "maximum", "mean", "ndarray", "ones_like", "outer",
    "random", "random.Generator", "random.default_rng", "repeat",
    "searchsorted", "sort", "split", "stack", "tanh", "tile", "unique", "where", "zeros", "zeros_like",
}


def _trees():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files under {SRC}"
    return [(p, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in paths]


def _np_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "np":
            chain.reverse()
            names.update(".".join(chain[:k]) for k in range(1, len(chain) + 1))
    return names


def test_numpy_is_imported_only_as_np():
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module is None or node.module.split(".")[0] != "numpy", f"{path}: from {node.module} import"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "numpy":
                        assert (alias.name, alias.asname) == ("numpy", "np"), f"{path}: import {alias.name}"


def test_numpy_names_in_src_are_pinned():
    used = set().union(*(_np_names(tree) for _, tree in _trees()))
    assert used == PINNED, f"new: {sorted(used - PINNED)}, gone: {sorted(PINNED - used)}"
