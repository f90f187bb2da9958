import os

# one BLAS thread, as perfbench/run.py sets, before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import random

import pytest

from bdtk.arith import INF, Supernatural


@pytest.fixture
def S2():
    return Supernatural({2: INF})


@pytest.fixture
def S23():
    return Supernatural({2: INF, 3: 1})


@pytest.fixture
def S6():
    return Supernatural({2: INF, 3: INF})


@pytest.fixture
def rng():
    return random.Random(20240817)
