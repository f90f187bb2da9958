import random
from fractions import Fraction

import numpy as np
import pytest

from bdtk import corpus as cp
from bdtk.bd import (
    bd_add,
    bd_adjoint,
    bd_apply,
    bd_delta_L,
    bd_element,
    bd_equal,
    bd_fourier,
    bd_m,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_rho,
    bd_scale,
    bd_sub,
    bd_symbol,
    bd_truncation_smax,
    bd_v,
    bd_zero,
)
from bdtk.scalars import Scalar
from bdtk.ulc import ulc, ulc_equal, ulc_shift, ulc_sup_norm

from .oracles import window_gap, window_matrix


def test_mul_examples(S23):
    S = S23
    f = ulc([Fraction(1, 2), 2, Fraction(-1, 3)])
    g = ulc([3, Fraction(1, 4), 1])
    # (V m_f)(V m_g) = V^2 m_{(f o phi) g}
    got = bd_mul(bd_element(S, {1: f}), bd_element(S, {1: g}))
    from bdtk.ulc import ulc_mul

    assert bd_equal(got, bd_element(S, {2: ulc_mul(ulc_shift(f, 1), g)}))
    b = cp.rand_bd(random.Random(5), S)
    assert bd_equal(bd_mul(b, bd_one(S)), b)
    # (V + V^{-1})^2 = V^2 + 2 + V^{-2}
    vpv = bd_add(bd_v(S, 1), bd_v(S, -1))
    sq = bd_mul(vpv, vpv)
    assert bd_equal(sq, bd_add(bd_add(bd_v(S, 2), bd_v(S, -2)), bd_scale(2, bd_one(S))))


def test_mul_window_oracle(S23, rng):
    for _ in range(40):
        b1 = cp.rand_bd(rng, S23)
        b2 = cp.rand_bd(rng, S23)
        prod = bd_mul(b1, b2)
        pad = b1.bandwidth + b2.bandwidth
        big = window_matrix(b1, -16 - pad, 16 + pad).matmul(
            window_matrix(b2, -16 - pad, 16 + pad)
        )
        inner = range(-16, 16)
        assert big.restrict(inner, inner).equal(bd_apply(prod, inner))


def test_adjoint(S23):
    S = S23
    assert bd_equal(bd_adjoint(bd_v(S, 1)), bd_v(S, -1))
    f = ulc([Scalar.from_fraction(1, 2), Scalar.from_fraction(-1, 3)])
    from bdtk.ulc import ulc_conj

    assert bd_equal(bd_adjoint(bd_m(S, f)), bd_m(S, ulc_conj(f)))
    # ((V m_f)^*)(V m_f) = m_{|f|^2}
    vmf = bd_element(S, {1: f})
    got = bd_mul(bd_adjoint(vmf), vmf)
    absf2 = ulc([v.abs2() for v in f.values])
    assert bd_equal(got, bd_m(S, absf2))


def test_adjoint_involutive(S23, rng):
    for _ in range(50):
        b = cp.rand_bd(rng, S23)
        assert bd_equal(bd_adjoint(bd_adjoint(b)), b)


def test_delta_L(S23, rng):
    S = S23
    f = ulc([1, Fraction(2, 3)])
    assert bd_delta_L(bd_m(S, f)).is_zero()
    assert bd_equal(bd_delta_L(bd_element(S, {3: f})), bd_scale(3, bd_element(S, {3: f})))
    for _ in range(100):
        b1 = cp.rand_bd(rng, S)
        b2 = cp.rand_bd(rng, S)
        lhs = bd_delta_L(bd_mul(b1, b2))
        rhs = bd_add(bd_mul(bd_delta_L(b1), b2), bd_mul(b1, bd_delta_L(b2)))
        assert bd_equal(lhs, rhs)


def test_fourier_read_off(S23):
    S = S23
    f = ulc([2, 3])
    b = bd_element(S, {1: f})
    assert ulc_equal(bd_fourier(b, 1), f)
    assert bd_fourier(b, 0).is_zero()


def test_fourier_quadrature_oracle(S23, rng):
    S = S23
    for _ in range(10):
        b = cp.rand_bd(rng, S, n_bands=rng.randint(2, 7))
        B = b.bandwidth
        G = 2 * B + 1
        for n in list(b.bands) + [B + 1]:
            acc = bd_zero(S)
            for j in range(G):
                th = Fraction(j, G)
                term = bd_mul(bd_v(S, -n), bd_rho(b, th))
                term = bd_scale(Scalar.root_of_unity(-n * j, G), term)
                acc = bd_add(acc, term)
            acc = bd_scale(Fraction(1, G), acc)
            assert ulc_equal(bd_fourier(acc, 0), bd_fourier(b, n))


def test_rho(S23, rng):
    S = S23
    f = ulc([1, Fraction(1, 2)])
    assert bd_equal(bd_rho(bd_m(S, f), 0.37), bd_m(S, f))
    assert bd_equal(bd_rho(bd_v(S, 1), Fraction(1, 2)), bd_scale(-1, bd_v(S, 1)))
    for _ in range(100):
        b1 = cp.rand_bd(rng, S, n_bands=2)
        b2 = cp.rand_bd(rng, S, n_bands=2)
        th = rng.random()
        assert window_gap(bd_rho(bd_mul(b1, b2), th),
                          bd_mul(bd_rho(b1, th), bd_rho(b2, th))) <= 1e-12 * 300


def test_rho_norm_invariance(S23, rng):
    for _ in range(15):
        b = cp.rand_bd(rng, S23)
        tol = 1e-8
        n1 = bd_norm(b, tol)
        n2 = bd_norm(bd_rho(b, Fraction(1, 7)), tol)
        assert abs(n1 - n2) <= 2 * tol


def test_symbol_examples(S23):
    S = S23
    sym = bd_symbol(bd_v(S, 1))
    assert sym.period == 1
    assert np.allclose(sym.at_many(np.array([0.25]))[0], [[np.exp(0.5j * np.pi)]])
    f = ulc([1, 2])
    sym = bd_symbol(bd_m(S, f))
    assert np.allclose(sym.at_many(np.array([0.3]))[0], np.diag([1.0, 2.0]))
    # period-2 shift: m_f V sends column s to row s+1 with value f(s+1),
    # so the corner wrap entry carries z
    sym2 = bd_symbol(bd_mul(bd_m(S, f), bd_v(S, 1)))
    assert sym2.period == 2
    z = np.exp(2j * np.pi * 0.2)
    B = sym2.at_many(np.array([0.2]))[0]
    assert abs(B[1, 0] - 2) < 1e-12 and abs(B[0, 1] - z) < 1e-12


def test_norm_examples(S23):
    S = S23
    assert abs(bd_norm(bd_v(S, 5), 1e-10) - 1.0) <= 1e-10
    f = ulc([1, -2, Fraction(5, 2)])
    assert abs(bd_norm(bd_m(S, f), 1e-9) - ulc_sup_norm(f)) <= 1e-9
    vpv = bd_add(bd_v(S, 1), bd_v(S, -1))
    assert abs(bd_norm(vpv, 1e-8) - 2.0) <= 1e-8
    with pytest.raises(ValueError):
        bd_norm(vpv, 0.0)


def test_p_norm_examples(S23):
    S = S23
    f = ulc([1, Fraction(-3, 2)])
    for P in range(4):
        assert abs(bd_p_norm(bd_m(S, f), P, 1e-9) - ulc_sup_norm(f)) <= 1e-8
    assert abs(bd_p_norm(bd_v(S, 1), 1, 1e-9) - 2.0) <= 1e-8


def test_p_norm_recursion(S23, rng):
    for _ in range(15):
        b = cp.rand_bd(rng, S23, n_bands=2)
        P = rng.randint(0, 2)
        tol = 1e-9
        lhs = bd_p_norm(b, P + 1, tol)
        rhs = bd_p_norm(b, P, tol) + bd_p_norm(bd_delta_L(b), P, tol)
        assert abs(lhs - rhs) <= 1e-6


def test_apply_examples(S23):
    S = S23
    m = bd_apply(bd_v(S, 1), range(-3, 4))
    assert all(m.get(k + 1, k) == Scalar.from_int(1) for k in range(-3, 3))
    f = ulc([1, 2])
    m = bd_apply(bd_m(S, f), range(0, 4))
    assert [m.get(s, s).gauss_parts()[0] for s in range(4)] == [1, 2, 1, 2]


def test_truncation_below_norm_and_monotone(S23, rng):
    for _ in range(8):
        b = cp.rand_bd(rng, S23)
        nrm = bd_norm(b, 1e-6)
        vals = [bd_truncation_smax(b, N) for N in (64, 256, 1024)]
        assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(2))
        assert vals[-1] <= nrm + 1e-6


def test_truncation_matches_dense_window_at_small_sizes(S23, rng):
    # the banded Gram solver serves windows no wider than the band span too
    for _ in range(40):
        b = cp.rand_bd(rng, S23)
        for N in range(1, 2 * b.bandwidth + 3):
            window = range(-(N // 2), N - N // 2)
            A = bd_apply(b, window).to_numpy(window, window)
            dense = float(np.linalg.svd(A, compute_uv=False)[0])
            assert abs(bd_truncation_smax(b, N) - dense) <= 1e-12 * dense


def test_p_norm_out_of_double_range(S23):
    # binom(1100, 550) has no double value
    with pytest.raises(ValueError, match="overflows double precision"):
        bd_p_norm(bd_add(bd_scale(3, bd_one(S23)), bd_v(S23, 1)), 1100, 1e-9)


def test_relation_as_matrices(S23, rng):
    S = S23
    for _ in range(20):
        f = cp.rand_ulc(rng, S)
        lhs = bd_mul(bd_mul(bd_v(S, -1), bd_m(S, f)), bd_v(S, 1))
        rhs = bd_m(S, ulc_shift(f, 1))
        w = range(-32, 32)
        assert bd_apply(lhs, w).equal(bd_apply(rhs, w))


def test_submultiplicativity(S23, rng):
    for _ in range(10):
        b1 = cp.rand_bd(rng, S23, n_bands=2)
        b2 = cp.rand_bd(rng, S23, n_bands=2)
        P = rng.randint(0, 3)
        tol = 1e-9
        lhs = bd_p_norm(bd_mul(b1, b2), P, tol)
        r1, r2 = bd_p_norm(b1, P, tol), bd_p_norm(b2, P, tol)
        assert lhs <= r1 * r2 + 1e-6 * (1 + r1 + r2)
