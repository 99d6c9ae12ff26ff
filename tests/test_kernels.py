"""Backend parity: the compiled kernels must match the pure twin exactly."""

import random

import pytest

from treeirr import prufer_decode
from treeirr._kernels import _pykernels

cython_kernels = pytest.importorskip(
    "treeirr._kernels._ckernels", reason="compiled kernels not built"
)


def _flat(edges):
    flat = []
    for u, v in edges:
        flat.extend((u, v))
    return flat


def _trees_upto(n_max):
    from treeirr import all_trees

    for n in range(1, n_max + 1):
        for t in all_trees(n):
            yield t.n, t.flat_edges()


def test_backend_names():
    assert _pykernels.BACKEND == "python"
    assert cython_kernels.BACKEND == "cython"


def test_order_guards_match():
    for kernel in (_pykernels, cython_kernels):
        for fn in (kernel.level_sequences, kernel.canon_code, kernel.index_bundle):
            with pytest.raises(ValueError):
                fn(0) if fn is kernel.level_sequences else fn(0, [])


@pytest.mark.parametrize("n", range(1, 12))
def test_level_sequences_identical(n):
    assert _pykernels.level_sequences(n) == cython_kernels.level_sequences(n)


def test_canon_codes_identical():
    for n, flat in _trees_upto(9):
        assert _pykernels.canon_code(n, flat) == cython_kernels.canon_code(n, flat)


def test_index_bundles_identical():
    for n, flat in _trees_upto(9):
        assert _pykernels.index_bundle(n, flat) == cython_kernels.index_bundle(n, flat)


def test_large_star_and_path():
    # The compiled index_bundle still sums irr_T pair by pair, so it is a
    # second reference for the pure degree-class sum on large random trees.
    rng = random.Random(2000)
    star_edges = _flat((0, i) for i in range(1, 51))
    path_edges = _flat((i, i + 1) for i in range(60))
    cases = [(51, star_edges), (61, path_edges)]
    for n in (500, 1000, 2000):
        t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        cases.append((n, t.flat_edges()))
    for n, flat in cases:
        assert _pykernels.canon_code(n, flat) == cython_kernels.canon_code(n, flat)
        assert _pykernels.index_bundle(n, flat) == cython_kernels.index_bundle(n, flat)


def test_selection_env_override(monkeypatch):
    # The dispatcher honors TREEIRR_KERNELS at import; simulate both paths,
    # then restore whatever backend this session started with.
    import importlib
    import os
    import treeirr._kernels as kernels

    original = os.environ.get("TREEIRR_KERNELS")
    try:
        monkeypatch.setenv("TREEIRR_KERNELS", "python")
        assert importlib.reload(kernels).BACKEND == "python"
        monkeypatch.setenv("TREEIRR_KERNELS", "cython")
        assert importlib.reload(kernels).BACKEND == "cython"
    finally:
        if original is None:
            monkeypatch.delenv("TREEIRR_KERNELS", raising=False)
        else:
            monkeypatch.setenv("TREEIRR_KERNELS", original)
        importlib.reload(kernels)
