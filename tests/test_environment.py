"""Every numpy and scipy name that `src/` uses, against a list kept here.

The pins and benchmarks were recorded on Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1, and pyproject.toml admits numpy >= 2.4 and scipy >= 1.17.
A name that only newer versions have would pass every test here and fail
on an install at the floors.  So a name that
`src/` starts to use fails this test until it is added to USED, with the
versions that have it said in CHANGES.md.  Names reached through array
methods or keyword arguments are not seen.
"""

import ast
from pathlib import Path

import mobiuswalk

ROOTS = ("numpy", "scipy")

# all present in numpy 2.4 and scipy 1.17
USED = {
    "numpy.abs", "numpy.add.at", "numpy.all", "numpy.allclose", "numpy.any",
    "numpy.arange", "numpy.argmax", "numpy.argmin", "numpy.argsort", "numpy.array",
    "numpy.array_equal", "numpy.asarray", "numpy.bincount", "numpy.bitwise_and",
    "numpy.bool_", "numpy.clip", "numpy.complex128", "numpy.compress",
    "numpy.concatenate", "numpy.count_nonzero", "numpy.cumprod", "numpy.cumsum",
    "numpy.diff", "numpy.divmod", "numpy.dot", "numpy.empty",
    "numpy.exp", "numpy.fft.rfft", "numpy.flatnonzero", "numpy.float64",
    "numpy.floor_divide", "numpy.full",
    "numpy.histogram", "numpy.int16", "numpy.int32", "numpy.int64",
    "numpy.int8", "numpy.lib.stride_tricks.sliding_window_view",
    "numpy.log", "numpy.log2", "numpy.maximum", "numpy.maximum.accumulate",
    "numpy.mean", "numpy.memmap", "numpy.min_scalar_type", "numpy.minimum", "numpy.multiply",
    "numpy.ndarray", "numpy.nonzero", "numpy.not_equal", "numpy.ones", "numpy.packbits",
    "numpy.pi", "numpy.random.default_rng", "numpy.repeat", "numpy.searchsorted",
    "numpy.sqrt", "numpy.sum", "numpy.uint16", "numpy.uint8", "numpy.unpackbits",
    "numpy.where", "numpy.zeros", "scipy.special.expi",
}


def used_names(path: Path) -> set[str]:
    """The dotted numpy and scipy names one module imports or reads."""
    tree = ast.parse(path.read_text())
    names, alias = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                if root in ROOTS:
                    alias[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ROOTS:
            names.update(f"{node.module}.{a.name}" for a in node.names)
    # the longest chain only: np.fft.rfft, not also np.fft
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in alias:
                names.add(".".join([alias[node.id], *reversed(parts)]))
    return names


def test_numpy_and_scipy_names_are_listed():
    src = Path(mobiuswalk.__file__).parent
    used = set().union(*(used_names(p) for p in src.glob("*.py")))
    assert used - USED == set(), "new names: list them and say which versions have them"
    assert USED - used == set(), "names no longer used: drop them from USED"
