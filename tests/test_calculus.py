import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from bdtk import bloch, calculus
from bdtk import corpus as cp
from bdtk.bd import (
    bd_add,
    bd_adjoint,
    bd_apply,
    bd_band_values,
    bd_element,
    bd_equal,
    bd_m,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_rho,
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
from bdtk.compact import CompactMatrix, k_scale, k_units
from bdtk.errors import NotInvertibleError, ToleranceUnreachableError
from bdtk.scalars import Scalar
from bdtk.serialize import dumps, encode_element
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
    A = bdt_window_numpy(toeplitz(b), 300)
    X = bdt_window_numpy(cert.value, 300)
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


def _spy(monkeypatch, module, name):
    """Record the calls of module.name (their positional arguments)."""
    real = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_bd_invert_builds_one_candidate(S23, monkeypatch):
    # max_band 24 truncates the Neumann series of (2 + V)^{-1} at 2^-25, above
    # tol: the one candidate is certified and the call raises
    calls = _spy(monkeypatch, calculus, "_grid_candidate")
    with pytest.raises(ToleranceUnreachableError):
        bd_invert(bd_add(bd_scalar(S23, 2), bd_v(S23, 1)), 1e-8, 24)
    assert len(calls) == 1


def test_bdt_invert_widens_the_symbol_inverse(S23, monkeypatch):
    # the first band budgets of T(2 + V) fall short: bdt_invert doubles
    # max_band until the symbol inverse certifies, on one symbol whose
    # invertibility is certified once
    budgets = _spy(monkeypatch, calculus, "_candidate_grid")
    windings = _spy(monkeypatch, bloch, "det_winding")
    cert = bdt_invert(toeplitz(bd_add(bd_scalar(S23, 2), bd_v(S23, 1))), 1e-8, [64, 128, 256])
    assert cert.residual_bound <= 1e-8
    assert [args[0] for args in budgets] == [12, 24, 48]
    assert len(windings) == 1


def test_bd_exp_builds_one_grid(monkeypatch):
    # a failing call exponentiates the symbol once, at 2G angles, and reads
    # the bands back from the G-point and the 2G-point grid
    rng = random.Random(3)
    b = cp.rand_selfadjoint_bd(rng, cp.DEFAULT_S, n_bands=rng.randint(1, 3), top=8)
    expi = _spy(monkeypatch, calculus, "_expi")
    read = _spy(monkeypatch, bloch, "symbol_samples_to_bands")
    with pytest.raises(ToleranceUnreachableError):
        bd_exp(b, 1e-10, 24)
    G = bloch.grid_size(256, 8 * (24 // b.period + 2))
    assert [H.shape[0] for H, in expi] == [2 * G]
    assert [samples.shape[0] for samples, _ in read] == [G, 2 * G]


@pytest.mark.parametrize("sizes", [[0], [64, 0]])
def test_bdt_invert_rejects_sizes_below_one(S23, sizes):
    a = bdt_add(toeplitz(bd_add(bd_scalar(S23, 2), bd_v(S23, 1))),
                bdt_from_compact(S23, k_units(0, 0)))
    with pytest.raises(ValueError):
        bdt_invert(a, 1e-8, sizes)


def test_candidate_grid_never_aliases():
    # bd_invert reads bands |n| <= max_band of period l back from G angles and
    # bd_exp from G and 2G; the widest wrap power ceil(max_band / l) must stay
    # within (G - 1) // 2 for the read-back to hold no folded-in terms
    for l in range(1, 1025):
        max_band = np.arange(1, 1025)
        wrap = np.maximum(-(-max_band // l), (max_band + l - 1) // l)
        G = np.array([calculus._candidate_grid(int(m), l) for m in max_band])
        assert np.all(wrap <= (G - 1) // 2)
        assert np.all(wrap <= (2 * G - 1) // 2)


def _t2_plus_vstar(S):
    # T(2 + V^*) + P_{20,20} / 64: every size below 21 misses the compact
    # entry, so r < 1 but the bound stays far above 1e-9
    b = bd_add(bd_scalar(S, 2), bd_v(S, -1))
    return bdt_add(toeplitz(b), bdt_from_compact(S, k_scale(Fraction(1, 64), k_units(20, 20))))


@pytest.mark.parametrize("sizes", [[8], [8, 12, 16]])
def test_bdt_invert_reports_its_best_bound_above_tol(S23, sizes):
    with pytest.raises(ToleranceUnreachableError, match="best certified bound"):
        bdt_invert(_t2_plus_vstar(S23), 1e-9, sizes)


def test_bdt_invert_certifies_each_symbol_norm_once(S23, monkeypatch):
    # the symbol inverse certifies the candidate norm at each max_band it
    # tries (12, 24, 48) and the defect at 12 and 24; at 48 the defect's band
    # sups sum below tol.  bdt_invert bounds the left defect by its band sups
    # and reuses the bounds on ||b~|| and the right defect, certifying
    # neither again, at any of the 3 sizes that reach r < 1
    calls = _spy(monkeypatch, bloch, "certified_sup_smax")
    with pytest.raises(ToleranceUnreachableError):
        bdt_invert(_t2_plus_vstar(S23), 1e-9, [8, 12, 16])
    assert len(calls) == 5


def test_bdt_invert_raises_when_the_symbol_inverse_misses_tol(S23):
    # 101/100 + V is invertible, but the bands of its inverse decay only like
    # (100/101)^n: max_band 12, 24 and 48 all leave a tail above tol
    b = bd_add(bd_scalar(S23, Fraction(101, 100)), bd_v(S23, 1))
    with pytest.raises(ToleranceUnreachableError, match="symbol inverse did not reach tolerance"):
        bdt_invert(toeplitz(b), 1e-8, [64])


@pytest.mark.parametrize("seed", range(6))
def test_bdt_exp_estimate_reaches_tol_and_holds(seed):
    # T(h) (+ a self-adjoint compact on odd seeds) for h = (b + b^*)/2 with
    # bands 3 and 4 of period 12, at scale 2 pi / 8: each returned estimate is
    # above the gap to e^{i scale a} taken from an 800-wide window's corner
    rng = random.Random(seed)
    S = cp.DEFAULT_S
    b = bd_element(S, {n: ulc([cp.rand_scalar(rng, 4) / 20 for _ in range(12)]) for n in (3, 4)})
    a = toeplitz(bd_scale(Fraction(1, 2), bd_add(b, bd_adjoint(b))))
    if seed % 2:
        a = bdt_add(a, bdt_from_compact(S, cp.rand_selfadjoint_compact(rng, nnz=3, top=2)))
    scale = 2 * math.pi / 8
    A = bdt_window_numpy(a, 800) * scale
    exact = calculus._expi((A + A.conj().T) / 2)[:200, :200]
    for tol in (1e-4, 1e-6):
        e, residual = calculus.bdt_exp(a, scale, tol)
        assert residual <= tol
        gap = float(np.linalg.svd(bdt_window_numpy(e, 200) - exact, compute_uv=False)[0])
        assert gap <= residual


def test_array_defects_match_the_scalar_oracle():
    # 40 seeded invertible elements, Gaussian-rational or rotated by an
    # irrational angle (float-tagged), periods dividing 12, with candidates
    # read at max_band 4 (defects near 1e-3) to 32 (near round-off)
    S = cp.DEFAULT_S
    rng = random.Random(24)
    thetas = np.arange(4096) / 4096
    for k in range(40):
        b, _ = cp.rand_invertible_bd(rng, S)
        if k % 2:
            b = bd_rho(b, 0.1234567)
        l, max_band = b.period, rng.choice([4, 8, 32])
        b_rows = bd_band_values(b, np.arange(l))
        G = calculus._candidate_grid(max_band, l)
        samples = np.linalg.inv(bd_symbol(b).at_many(np.arange(G) / G))
        ns, rows, _ = calculus._grid_candidate(samples, max_band, 1e-14)
        x = calculus._wrap(S, ns, rows)
        # the per-value wrap of earlier versions is the oracle of the one-wrap path
        old = bd_element(S, {int(n): ulc([Scalar.from_complex(z) for z in vals])
                             for n, vals in zip(ns, rows)})
        assert dumps(encode_element(x)) == dumps(encode_element(old))
        for b_first in (True, False):
            defect, rho = calculus._defect_rows(b_rows, ns, rows, b_first)
            exact = bd_sub(bd_mul(b, x) if b_first else bd_mul(x, b), bd_one(S))
            want = bd_band_values(exact, np.arange(l))
            err = sum(float(np.abs(defect.get(n, 0) - want.get(n, 0)).max())
                      for n in defect.keys() | want.keys())
            assert err <= rho
            # a tol above the band-sup sum returns the sum itself
            s = calculus._norm_bound(defect, math.inf, rho)
            grid = np.linalg.svd(bd_symbol(exact).at_many(thetas), compute_uv=False)[:, 0]
            assert s >= grid.max()


@pytest.mark.parametrize("l", [1, 3, 12])
def test_norm_bound_of_one_band_is_its_sup(l, monkeypatch):
    # ||V^n m_f|| = sup|f|: the bound on a float-tagged monomial is its band
    # sup, certified by no symbol norm.  It is at least the exact sup of the
    # doubles and within 8u of the largest sigma_max on 4,096 angles,
    # relatively; the SVD itself overshoots the exact sup by up to 7.6u here
    calls = _spy(monkeypatch, bloch, "certified_sup_smax")
    rng = random.Random(l)
    for n in (-2, 1, 5):
        zs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(l)]
        b = bd_element(cp.DEFAULT_S, {n: ulc([Scalar.from_complex(z) for z in zs])})
        s = calculus._norm_bound(bd_band_values(b, np.arange(l)), 1e-12)
        assert all(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 <= Fraction(s) ** 2 for z in zs)
        thetas = np.arange(4096) / 4096
        top = float(np.linalg.svd(bd_symbol(b).at_many(thetas), compute_uv=False)[:, 0].max())
        assert abs(s - top) <= 8.0 * calculus._U * top
    assert not calls


def test_bd_exp_wraps_only_the_returned_values(monkeypatch):
    rng = random.Random(5)
    b = cp.rand_selfadjoint_bd(rng, cp.DEFAULT_S, n_bands=2, top=4)
    reach = calculus.exp_band_reach(b)
    real = Scalar.from_complex
    calls = []

    def spy(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(Scalar, "from_complex", staticmethod(spy))
    cert = bd_exp(b, 1e-8, reach)
    assert len(calls) == sum(len(f.values) for f in cert.value.bands.values()) > 0


@pytest.mark.parametrize("seed", range(4))
def test_bd_invert_with_a_tiny_defect_certifies_only_the_candidate_norm(S23, seed, monkeypatch):
    # 2 + V/2 + (seeded perturbations): at max_band 64 the defect's band sups
    # sum far below the defect tolerance, so its norm is not certified
    rng = random.Random(seed)
    b = bd_add(bd_scalar(S23, 2), bd_scale(Fraction(1, 2), bd_v(S23, 1)))
    b = bd_add(b, bd_m(S23, ulc([Fraction(rng.randint(-4, 4), 16) for _ in range(6)])))
    calls = _spy(monkeypatch, bloch, "certified_sup_smax")
    bd_invert(b, 1e-8, 64)
    assert [args[1] for args in calls] == [1e-8]
