import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from bdtk import bloch
from bdtk import corpus as cp
from bdtk.bd import (
    bd_add,
    bd_apply,
    bd_element,
    bd_equal,
    bd_m,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_scalar,
    bd_scale,
    bd_sub,
    bd_symbol,
    bd_v,
    bd_zero,
)
from bdtk.bdt import (
    bdt_add,
    bdt_equal,
    bdt_from_compact,
    bdt_mul,
    bdt_one,
    bdt_scale,
    bdt_u,
    bdt_window_numpy,
    tau,
    toeplitz,
)
from bdtk.bloch import certified_sup_smax
from bdtk.calculus import (
    bd_exp,
    bd_invert,
    bdt_invert,
    check_exp_bound_b,
    check_exp_bound_c,
    k_exp,
    smooth_calc,
)
from bdtk.compact import CompactMatrix, k_units
from bdtk.errors import NotInvertibleError, ToleranceUnreachableError
from bdtk.scalars import Scalar
from bdtk.ulc import ulc, ulc_eval, ulc_refine

from .oracles import exp_power_series, window_gap


def test_invert_shift_exact(S23):
    cert = bd_invert(bd_v(S23, 1), 1e-10, 4)
    assert bd_equal(cert.value, bd_v(S23, -1))
    assert cert.residual_bound == 0.0


def test_invert_diagonal(S23):
    f = ulc([Fraction(2), Fraction(5, 2), Fraction(-3)])
    cert = bd_invert(bd_m(S23, f), 1e-12, 4)
    vals = [v.to_complex() for v in ulc_refine(cert.value.bands[0], 3)]
    assert max(abs(v - w) for v, w in zip(vals, [0.5, 0.4, -1 / 3])) == 0
    assert cert.residual_bound <= 1e-12


def test_invert_neumann_oracle(S23):
    b = bd_add(bd_scalar(S23, 2), bd_v(S23, 1))
    cert = bd_invert(b, 1e-9, 40)
    assert cert.residual_bound <= 1e-9
    for k in range(10):
        got = cert.value.bands.get(k)
        v = got.values[0].to_complex() if got else 0.0
        assert abs(v - (-1) ** k * 2.0 ** (-k - 1)) < 1e-9


def test_invert_not_invertible(S23):
    with pytest.raises(NotInvertibleError):
        bd_invert(bd_sub(bd_v(S23, 1), bd_one(S23)), 1e-6, 8)
    with pytest.raises(NotInvertibleError):
        bd_invert(bd_zero(S23), 1e-6, 8)


def test_invert_twice_roundtrip(S23, rng):
    for _ in range(10):
        b, _ = cp.rand_invertible_bd(rng, S23)
        c1 = bd_invert(b, 1e-8, 64)
        c2 = bd_invert(c1.value, 1e-8, 128)
        diff = bd_sub(c2.value, b)
        d = 0.0 if diff.is_zero() else bd_norm(diff, 1e-10)
        assert d <= (c1.residual_bound + c2.residual_bound) * (1 + bd_norm(b, 1e-9)) ** 2 + 1e-8


def test_bdt_invert_rank_one(S23):
    a = bdt_add(toeplitz(bd_scalar(S23, 2)), bdt_from_compact(S23, k_units(0, 0)))
    cert = bdt_invert(a, 1e-10, [32, 64])
    x = cert.value
    assert abs(x.symbol.bands[0].values[0].to_complex() - 0.5) < 1e-12
    assert abs(x.compact.entries[(0, 0)].to_complex() + 1 / 6) < 1e-10


def test_bdt_invert_index_obstruction(S23):
    with pytest.raises(NotInvertibleError):
        bdt_invert(bdt_u(S23, -1), 1e-8, [32, 64, 128])
    with pytest.raises(NotInvertibleError):
        bdt_invert(bdt_u(S23, 1), 1e-8, [32, 64, 128])


def test_bdt_invert_toeplitz(S23):
    b = bd_add(bd_add(bd_scalar(S23, 5), bd_scale(2, bd_v(S23, 1))), bd_scale(2, bd_v(S23, -1)))
    cert = bdt_invert(toeplitz(b), 1e-8, [64, 128, 256])
    assert cert.residual_bound <= 1e-8
    A = bdt_window_numpy(toeplitz(b), 300, 300)
    X = bdt_window_numpy(cert.value, 300, 300)
    assert np.abs((A @ X - np.eye(300))[:40, :40]).max() < 1e-8


def test_residual_certificates_sound(S23, rng):
    # ||b x - 1|| <= ||b|| * residual_bound, checked on a large two-sided
    # window of the exactly assembled defect (windows are compressions)
    for _ in range(10):
        b, w = cp.rand_invertible_bd(rng, S23)
        cert = bd_invert(b, 1e-8, 48)
        defect = bd_sub(bd_mul(b, cert.value), bd_one(S23))
        if defect.is_zero():
            continue
        window = range(-128, 128)
        smax = np.linalg.svd(bd_apply(defect, window).to_numpy(window, window),
                             compute_uv=False)[0]
        assert smax <= bd_norm(b, 1e-9) * cert.residual_bound + 1e-9


def test_exp_zero_and_diagonal(S23):
    cert = bd_exp(bd_zero(S23), 1e-12, 4)
    assert cert.residual_bound == 0.0 and bd_equal(cert.value, bd_one(S23))
    f = ulc([Fraction(1, 2), Fraction(-1, 3)])
    cert = bd_exp(bd_m(S23, f), 1e-11, 8)
    vals = [v.to_complex() for v in ulc_refine(cert.value.bands[0], 2)]
    assert abs(vals[0] - np.exp(0.5j)) < 1e-11
    assert abs(vals[1] - np.exp(-1j / 3)) < 1e-11


def test_exp_bessel_bands(S23):
    b = bd_add(bd_v(S23, 1), bd_v(S23, -1))
    cert = bd_exp(b, 1e-10, 24)
    for n in range(-6, 7):
        got = cert.value.bands.get(n)
        v = got.values[0].to_complex() if got else 0.0
        assert abs(v - (1j) ** n * scipy.special.jv(n, 2.0)) < 1e-10


def test_exp_residual_sound_against_power_series(S23, rng):
    for _ in range(6):
        b = cp.rand_selfadjoint_bd(rng, S23, n_bands=2, top=3)
        from bdtk.calculus import exp_band_reach

        cert = bd_exp(b, 1e-8, exp_band_reach(b))
        oracle, tail = exp_power_series(b)
        diff = bd_sub(cert.value, oracle)
        d = 0.0 if diff.is_zero() else bd_norm(diff, 1e-10)
        assert d <= cert.residual_bound + tail + 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_bad_tolerance_rejected(S23, tol):
    b = bd_add(bd_scalar(S23, 3), bd_v(S23, 1))
    h = bd_add(bd_v(S23, 1), bd_v(S23, -1))
    calls = [lambda: bd_norm(b, tol), lambda: bd_p_norm(b, 1, tol),
             lambda: certified_sup_smax(bd_symbol(b), tol), lambda: bd_invert(b, tol, 8),
             lambda: bdt_invert(toeplitz(b), tol, [64]), lambda: bd_exp(h, tol, 8),
             lambda: smooth_calc(toeplitz(h), {0: 1.0}, 1.0, tol)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_exp_requires_selfadjoint(S23):
    with pytest.raises(ValueError):
        bd_exp(bd_v(S23, 1), 1e-6, 8)


def test_k_exp(S23):
    assert bdt_equal(k_exp(CompactMatrix({}), S23), bdt_one(S23))
    e = k_exp(CompactMatrix({(0, 0): math.pi}), S23)
    assert abs(e.compact.entries[(0, 0)].to_complex() + 2.0) < 1e-12
    assert bd_equal(e.symbol, bd_one(S23))


def test_k_exp_unitary_on_block(S23, rng):
    for _ in range(20):
        c = cp.rand_selfadjoint_compact(rng, top=6)
        e = k_exp(c, S23)
        W = max(c.support_bound(), e.compact.support_bound(), 1)
        block = e.compact.to_numpy(range(W), range(W)) + np.eye(W)
        assert np.abs(block @ block.conj().T - np.eye(W)).max() < 1e-12


def test_smooth_calc_constant(S23):
    a = toeplitz(bd_scalar(S23, Fraction(1, 2)))
    res = smooth_calc(a, {0: 3.0}, 1.0, 1e-9)
    assert bdt_equal(res.value, bdt_add(bdt_from_compact(S23, CompactMatrix({})),
                                        bdt_scale(3, bdt_one(S23))))


def test_smooth_calc_diagonal_oracle(S23):
    g = ulc([Fraction(1, 2), Fraction(-1, 4)])
    a = toeplitz(bd_m(S23, g))
    coeffs = {1: 0.5, -1: 0.5}  # cos
    res = smooth_calc(a, coeffs, 2 * math.pi, 1e-7)
    out = res.value
    assert out.compact.smax() <= 1e-7
    vals = [v.to_complex() for v in ulc_refine(out.symbol.bands[0], 2)]
    for v, x in zip(vals, [0.5, -0.25]):
        assert abs(v - math.cos(x)) <= 1e-7


def test_smooth_calc_projection_cosine(S23):
    c = CompactMatrix({(0, 0): math.pi})
    a = bdt_from_compact(S23, c)
    res = smooth_calc(a, {1: 0.5, -1: 0.5}, 2 * math.pi, 1e-6)
    got = res.value
    assert abs(got.compact.entries[(0, 0)].to_complex() + 2.0) < 1e-6
    assert window_gap(got.symbol, bd_one(S23)) <= 1e-7
    # matches the block-exponential composition
    e_plus = k_exp(c, S23)
    e_minus = k_exp(CompactMatrix({(0, 0): -math.pi}), S23)
    oracle = bdt_add(bdt_scale(0.5, e_plus), bdt_scale(0.5, e_minus))
    assert window_gap(got, oracle) <= 1e-6


def test_smooth_calc_duhamel_consistency(S23, rng):
    b = cp.rand_selfadjoint_bd(rng, S23, n_bands=2, top=2)
    c = cp.rand_selfadjoint_compact(rng, nnz=3, top=2)
    a = bdt_add(toeplitz(b), bdt_from_compact(S23, c))
    res = smooth_calc(a, {1: 1.0}, 2 * math.pi, 1e-4)
    sym_direct = bd_exp(b, 1e-8, 64)
    diff = bd_sub(tau(res.value), sym_direct.value)
    d = 0.0 if diff.is_zero() else bd_norm(diff, 1e-9)
    assert d <= res.residual_bound + sym_direct.residual_bound + 1e-9


def test_check_exp_bounds_examples(S23):
    assert check_exp_bound_b(bd_zero(S23), 2).passed
    f = ulc([Fraction(1, 2), Fraction(-2)])
    res = check_exp_bound_b(bd_m(S23, f), 3)
    assert res.passed and res.lhs_lower <= 1 + 1e-6
    assert check_exp_bound_c(CompactMatrix({}), 2).passed
    res = check_exp_bound_c(CompactMatrix({(0, 0): math.pi}), 2)
    assert res.passed


def test_check_exp_bound_sweeps(S23, rng):
    for _ in range(8):
        b = cp.rand_selfadjoint_bd(rng, S23, n_bands=2, top=4)
        assert check_exp_bound_b(b, rng.randint(0, 3)).passed
    for _ in range(8):
        c = cp.rand_selfadjoint_compact(rng)
        assert check_exp_bound_c(c, rng.randint(0, 3)).passed


def test_bd_exp_builds_each_grid_once(monkeypatch):
    # a case that runs all three rounds: each round's finer grid is the next
    # round's base, so the grids built are distinct
    rng = random.Random(3)
    b = cp.rand_selfadjoint_bd(rng, cp.DEFAULT_S, n_bands=rng.randint(1, 3), top=8)
    read_bands = bloch.symbol_samples_to_bands
    built = []

    def spy(samples, max_band):
        built.append(samples.shape[0])
        return read_bands(samples, max_band)

    monkeypatch.setattr(bloch, "symbol_samples_to_bands", spy)
    with pytest.raises(ToleranceUnreachableError):
        bd_exp(b, 1e-10, 24)
    assert len(built) >= 4
    assert len(built) == len(set(built)), built


@pytest.mark.parametrize("sizes", [[0], [64, 0]])
def test_bdt_invert_rejects_sizes_below_one(S23, sizes):
    a = bdt_add(toeplitz(bd_add(bd_scalar(S23, 2), bd_v(S23, 1))),
                bdt_from_compact(S23, k_units(0, 0)))
    with pytest.raises(ValueError):
        bdt_invert(a, 1e-8, sizes)
