import random
from fractions import Fraction

import pytest

from bdtk import corpus as cp
from bdtk.bd import bd_element, bd_equal, bd_m, bd_v
from bdtk.bdt import bdt_add, bdt_equal, bdt_from_compact, bdt_one, bdt_scale, bdt_u, toeplitz
from bdtk.compact import CompactMatrix, k_units
from bdtk.derivations import (
    der_apply,
    der_as_callable,
    der_check_covariance,
    der_component,
    der_component_bound,
    der_covariant_data,
    der_leibniz_residual,
    der_reconstruct,
    derivation,
)
from bdtk.errors import ReconstructionMismatchError, UnsupportedDerivationError
from bdtk.scalars import Scalar
from bdtk.ulc import ulc

from .oracles import der_component_quadrature


def test_apply_examples(S23):
    S = S23
    d = derivation(S, gamma=1)
    assert bdt_equal(der_apply(d, bdt_u(S, 1)), bdt_u(S, 1))
    d = derivation(S, 0, None, k_units(0, 0))
    out = der_apply(d, bdt_u(S, 1))
    assert out.symbol.is_zero()
    assert out.compact.entries == {(1, 0): out.compact.entries[(1, 0)]}
    assert out.compact.entries[(1, 0)] == Scalar.from_int(-1)
    # every derivation kills the unit
    d = cp.rand_derivation(random.Random(0), S)
    assert der_apply(d, bdt_one(S)).is_zero()


def test_leibniz_residual_zero(S23, rng):
    for _ in range(20):
        d = cp.rand_derivation(rng, S23, n_bands=2)
        a1 = cp.rand_bdt(rng, S23, n_bands=2)
        a2 = cp.rand_bdt(rng, S23, n_bands=2)
        assert der_leibniz_residual(d, a1, a2, 64) == 0.0


def test_component_examples(S23):
    S = S23
    d = derivation(S, gamma=Fraction(3, 2))
    assert der_apply(der_component(d, 1), bdt_u(S, 1)).is_zero()
    comp0 = der_component(d, 0)
    assert comp0.gamma == Scalar.from_fraction(Fraction(3, 2))
    f = ulc([1, Fraction(1, 2)])
    d = derivation(S, 0, bd_element(S, {1: f}), None)
    comp = der_component(d, 1)
    assert bd_equal(comp.x.symbol, bd_element(S, {1: f}))
    assert der_apply(der_component(d, 2), bdt_u(S, 1)).is_zero()


def test_component_sum_reproduces(S23, rng):
    for _ in range(20):
        d = cp.rand_derivation(rng, S23, n_bands=2)
        a = cp.rand_bdt(rng, S23, n_bands=2)
        B = der_component_bound(d)
        total = None
        for n in range(-B, B + 1):
            t = der_apply(der_component(d, n), a)
            total = t if total is None else bdt_add(total, t)
        assert bdt_equal(total, der_apply(d, a))


def test_component_quadrature_oracle(S23, rng):
    for _ in range(6):
        d = cp.rand_derivation(rng, S23, n_bands=2)
        a = cp.rand_bdt(rng, S23, n_bands=2)
        B = der_component_bound(d)
        for n in (-2, 0, 1, B):
            got = der_component_quadrature(der_as_callable(d), n, B, a)
            want = der_apply(der_component(d, n), a)
            assert bdt_equal(got, want)


def test_covariance(S23, rng):
    S = S23
    a = cp.rand_bdt(rng, S, n_bands=2)
    d1 = derivation(S, 0, None, k_units(1, 0))
    assert der_check_covariance(d1, 1, a, [Fraction(1, 3), 0.25, 0.7]) <= 1e-12
    dk = derivation(S, gamma=1)
    # exact rational samples keep the residual exactly zero; float ones leave
    # phase roundoff only
    assert der_check_covariance(dk, 0, a, [Fraction(1, 5), Fraction(2, 7)]) == 0.0
    assert der_check_covariance(dk, 0, a, [0.33]) <= 1e-12
    for _ in range(10):
        d = cp.rand_derivation(rng, S, n_bands=2)
        B = der_component_bound(d)
        n = rng.randint(-B, B)
        comp = der_component(d, n)
        assert der_check_covariance(comp, n, a, [0.3, 0.77]) <= 1e-10


def test_covariant_data(S23):
    S = S23
    c = CompactMatrix({(2, 0): Fraction(1, 2), (3, 1): Fraction(-1, 3), (1, 1): 5})
    d = derivation(S, 0, None, c)
    comp = der_covariant_data(d, 2)
    assert comp.n == 2
    assert comp.beta == {0: Scalar.from_fraction(Fraction(1, 2)),
                         1: Scalar.from_fraction(Fraction(-1, 3))}
    with pytest.raises(UnsupportedDerivationError):
        der_covariant_data(derivation(S, gamma=1), 0)


def test_reconstruct_examples(S23):
    S = S23
    # d = [P00, .]
    c = k_units(0, 0)
    got = der_reconstruct(der_as_callable(derivation(S, 0, None, c)), 2, S)
    assert got.equal(c) and got.entries.keys() == {(0, 0)}
    # d = [U^2 beta(K), .] with finite beta
    c2 = CompactMatrix({(2 + k, k): Fraction(k + 1, 3) for k in range(4)})
    got2 = der_reconstruct(der_as_callable(derivation(S, 0, None, c2)), 3, S)
    assert got2.equal(c2)
    # zero derivation
    got3 = der_reconstruct(lambda a: bdt_scale(0, a), 2, S)
    assert got3.is_zero()


def test_reconstruct_exact_roundtrip(S23, rng):
    for _ in range(25):
        c = cp.rand_compact(rng, nnz=rng.randint(1, 6))
        d = derivation(S23, 0, None, c)
        B = der_component_bound(d)
        got = der_reconstruct(der_as_callable(d), B, S23)
        assert got.is_exact
        assert got.entries.keys() == c.entries.keys()
        assert all(got.entries[k] == v for k, v in c.entries.items())


def test_reconstruct_rejects_noncompact_range(S23):
    S = S23
    d = derivation(S, 0, bd_element(S, {1: ulc([1])}), None)  # [T(V), .]
    with pytest.raises(UnsupportedDerivationError):
        der_reconstruct(der_as_callable(d), 2, S)


def test_reconstruct_mismatch_detection(S23):
    S = S23

    def not_a_derivation(a):
        out = der_apply(derivation(S, 0, None, k_units(0, 0)), a)
        # corrupt linearity: add a fixed compact offset for shifts
        if not a.symbol.is_zero() and 1 in a.symbol.bands:
            out = bdt_add(out, bdt_from_compact(S, k_units(3, 3)))
        return out

    with pytest.raises((ReconstructionMismatchError, UnsupportedDerivationError)):
        der_reconstruct(not_a_derivation, 2, S)


def test_ideal_preservation_and_quotient(S23, rng):
    from bdtk.bd import bd_add, bd_delta_L, bd_mul, bd_scale, bd_sub
    from bdtk.bdt import tau

    for _ in range(15):
        d = cp.rand_derivation(rng, S23, n_bands=2)
        ka = bdt_from_compact(S23, cp.rand_compact(rng, nnz=3))
        assert der_apply(d, ka).symbol.is_zero()
        a = cp.rand_bdt(rng, S23, n_bands=2)
        lhs = tau(der_apply(d, a))
        rhs = bd_add(
            bd_scale(d.gamma, bd_delta_L(tau(a))),
            bd_sub(bd_mul(d.x.symbol, tau(a)), bd_mul(tau(a), d.x.symbol)),
        )
        assert bd_equal(lhs, rhs)
