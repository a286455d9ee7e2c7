"""The on-disk fixture cache of conftest.py."""

from pathlib import Path

import numpy as np
import pytest
import scipy

import conftest


def test_cache_key_covers_the_fixture_sizes(tmp_path, monkeypatch):
    # the fixture sizes (N_NODES, DELTA, the FD grids, ...) are set in
    # conftest.py, so editing one must rename every pickle, as an edit of the
    # package does
    own = Path(conftest.__file__).read_bytes()
    edited = own.replace(b"\nN_NODES = 64\n", b"\nN_NODES = 48\n")
    assert edited != own
    assert conftest.cache_key(own) == conftest.cache_key(own)
    assert conftest.cache_key(edited) != conftest.cache_key(own)
    # and the pickles are named by the key of the file as it stands
    monkeypatch.setattr(conftest, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(conftest, "BUILD_TIMINGS", {})
    assert conftest._cached("probe", lambda: 1) == 1
    assert [p.name for p in tmp_path.iterdir()] == [f"probe_{conftest.cache_key(own)}.pkl"]


@pytest.mark.parametrize("change", ("numpy", "scipy", "blas threads"))
def test_cache_key_covers_the_libraries_and_blas_threads(change, monkeypatch):
    # a pickle holds numbers of one numpy, scipy and BLAS thread count: the
    # README promises byte-identical reruns only at a fixed thread count
    own = Path(conftest.__file__).read_bytes()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    before = conftest.cache_key(own)
    if change == "numpy":
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    elif change == "scipy":
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".post1")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert conftest.cache_key(own) != before
