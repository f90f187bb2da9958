import random
from fractions import Fraction

import pytest

from bdtk import corpus as cp
from bdtk.compact import (
    CompactMatrix,
    k_add,
    k_adjoint,
    k_dK,
    k_mn_norm,
    k_mul,
    k_rho,
    k_scale,
    k_units,
)
from bdtk.scalars import Scalar


def test_matrix_unit_relations():
    assert k_mul(k_units(0, 1), k_units(1, 2)).equal(k_units(0, 2))
    assert k_mul(k_units(0, 1), k_units(0, 2)).is_zero()
    assert k_adjoint(k_units(3, 5)).equal(k_units(5, 3))


def test_algebra_operations():
    c = k_units(1, 1)
    assert k_add(c, k_scale(-1, c)).is_zero()
    assert k_adjoint(k_adjoint(c)).equal(c)
    assert k_scale(Fraction(1, 2), c).entries[(1, 1)] == Scalar.from_fraction(
        Fraction(1, 2)
    )


def test_mul_matches_dense(rng):
    import numpy as np

    for _ in range(25):
        c1 = cp.rand_compact(rng)
        c2 = cp.rand_compact(rng)
        W = max(c1.support_bound(), c2.support_bound())
        d = k_mul(c1, c2).to_numpy(range(W), range(W))
        d_oracle = c1.to_numpy(range(W), range(W)) @ c2.to_numpy(range(W), range(W))
        assert np.abs(d - d_oracle).max() < 1e-12


def test_dK_examples():
    assert k_dK(k_units(4, 4)).is_zero()
    assert k_dK(k_units(1, 0)).equal(k_units(1, 0))


def test_dK_leibniz_exact(rng):
    for _ in range(100):
        c1 = cp.rand_compact(rng, nnz=4)
        c2 = cp.rand_compact(rng, nnz=4)
        lhs = k_dK(k_mul(c1, c2))
        rhs = k_add(k_mul(k_dK(c1), c2), k_mul(c1, k_dK(c2)))
        assert lhs.equal(rhs)
        assert lhs.is_exact


def test_mn_norm_examples():
    assert abs(k_mn_norm(k_units(0, 0), 3, 4) - 1.0) < 1e-12
    for s in range(5):
        assert abs(k_mn_norm(k_units(0, s), 0, 2) - (1 + s) ** 2) < 1e-12


def test_mn_norm_recursion(rng):
    for _ in range(50):
        c = cp.rand_compact(rng)
        for M in range(3):
            for N in range(3):
                lhs = k_mn_norm(c, M + 1, N)
                rhs = k_mn_norm(c, M, N) + k_mn_norm(k_dK(c), M, N)
                assert abs(lhs - rhs) <= 1e-9 * (1 + lhs)


@pytest.mark.parametrize("M,N", [(3000, 0), (0, 3000), (1000, 100)])
def test_mn_norm_out_of_double_range(M, N):
    # binom(3000, 1500) and 2^3000 have no double value, and at (1000, 100)
    # the term binom(1000, 500) 2^100 is past the largest one
    with pytest.raises(ValueError, match="overflows double precision"):
        k_mn_norm(k_units(2, 1), M, N)


def test_rho_examples():
    diag = CompactMatrix({(2, 2): Fraction(3, 4), (0, 0): 1})
    assert k_rho(diag, Fraction(1, 3)).equal(diag)
    assert k_rho(k_units(1, 0), Fraction(1, 2)).equal(k_scale(-1, k_units(1, 0)))


def test_rho_multiplicative(rng):
    for _ in range(100):
        c1 = cp.rand_compact(rng, nnz=4)
        c2 = cp.rand_compact(rng, nnz=4)
        th = rng.random()
        lhs = k_rho(k_mul(c1, c2), th)
        rhs = k_mul(k_rho(c1, th), k_rho(c2, th))
        assert lhs.equal(rhs)


def test_rho_exact_at_small_rationals():
    c = k_units(3, 1)
    out = k_rho(c, Fraction(1, 3))
    assert out.is_exact
    assert out.entries[(3, 1)] == Scalar.root_of_unity(2, 3)
