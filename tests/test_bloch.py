import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bdtk import bloch
from bdtk import corpus as cp
from bdtk.bd import bd_delta_L_power, bd_element, bd_norm, bd_symbol
from bdtk.errors import ToleranceUnreachableError
from bdtk.scalars import Scalar
from bdtk.serialize import decode_bd
from bdtk.ulc import ulc


def _dense_smax(sym, G):
    return bloch._smax_batch(sym.at_many(np.arange(G) / G))


def _assert_within_dense_grid_bounds(sym, r, tol, G=2 ** 12):
    # a posteriori: sup <= grid max + L h / 2 for the Lipschitz bound
    # L = 2 pi sum_w |w| ||C_w||_2 of theta -> sigma_max(sum_w C_w e^{2 pi i w theta})
    grid_max = float(np.max(_dense_smax(sym, G)))
    L = 2 * np.pi * sum(abs(w) * np.linalg.norm(C, 2) for w, C in sym.coeffs.items())
    assert r >= grid_max - tol
    assert r <= grid_max + L / (2 * G) + tol


# z^6 det(lam^2 I - B^* B), scaled, for the symbol of delta_L^2 b below at
# lam = 54.6133272252, as an FFT over 16 roots of unity returns it.  Only the
# powers 2, 6 and 10 are nonzero; the rest is round-off.
LEVEL_POLY = np.array([
    8.7736284608378570e-19 + 5.4964015695642796e-19j,
    2.0804247126845168e-18 + 9.7509573013994048e-19j,
    -8.9128250655924257e-05 + 9.8661265826369580e-05j,
    -1.7160500431529042e-18 + 1.1899873816895074e-18j,
    6.3667660546151284e-19 - 1.6982463010085303e-18j,
    -1.3051205418120397e-18 - 4.8505085055592740e-18j,
    2.6561710817618790e-04 - 7.9296554911652263e-20j,
    1.6431195229957841e-18 + 3.8549531200315667e-18j,
    -1.7674805002655013e-18 + 1.8356022793171580e-19j,
    -1.4902462596769041e-18 + 4.1445987517332465e-18j,
    -8.9128250655924393e-05 - 9.8661265826368306e-05j,
    2.2639333227524292e-18 - 4.4531660262524003e-18j,
    2.5344104872020291e-19 + 9.6777375304124317e-19j,
])


def test_roundoff_end_coefficients_do_not_hide_crossings():
    # Kept as a leading coefficient, the 5e-18 term at z^11 leaves a root
    # near 1e13 and the companion matrix then misplaces the unimodular roots
    # by ~1e-6, past delta, so the level would read as uncrossed.
    clean = np.where(np.abs(LEVEL_POLY) > 1e-10, LEVEL_POLY, 0)[2:11]
    expected = sorted((np.angle(np.roots(clean[::-1])) / (2 * np.pi)) % 1.0)
    angles, _ = bloch.circle_root_angles(LEVEL_POLY, 1e-16, bloch.CROSSING_DELTA)
    assert len(angles) == len(expected) == 8
    assert np.allclose(angles, expected, atol=1e-9)


def test_one_census_serves_the_level_test_and_the_winding(S23, monkeypatch):
    # det_winding and the level test both count roots through
    # circle_root_angles, each with its own window
    deltas = []
    census = bloch.circle_root_angles

    def spy(poly, noise, delta):
        deltas.append(delta)
        return census(poly, noise, delta)

    monkeypatch.setattr(bloch, "circle_root_angles", spy)
    # |band 0| >= 2 > |band 1|, so B is invertible with winding 0
    sym = bd_symbol(bd_element(S23, {0: ulc([3, 2]), 1: ulc([1, Fraction(1, 2)])}))
    assert bloch.det_winding(sym) == 0
    assert deltas == [bloch.INVERTIBILITY_DELTA]
    deltas.clear()
    bloch.certified_sup_smax(sym, 1e-9)
    assert deltas and set(deltas) == {bloch.CROSSING_DELTA}


def test_level_crossings_found_below_the_sup():
    b = decode_bd({"S": [[2, "inf"], [3, 1]], "bands": [
        [-2, {"period": 3, "values": [[7, 9, 15, 13], [-5, 12, -1, 3], [-6, 1, 3, 14]]}],
        [2, {"period": 3, "values": [[-12, 11, -8, 5], [11, 1, 1, 3], [-12, 11, -9, 1]]}],
    ]})
    x = bd_delta_L_power(b, 2)
    sym = bd_symbol(x)
    lower = float(np.max(_dense_smax(sym, 2 ** 16)))
    lam = 54.6133272252
    assert lower > lam
    assert bloch._level_root_angles(sym, lam, bloch._gram_coeffs(sym))
    assert bd_norm(x, 1e-10) >= lower - 1e-10


# b1 of case-085 in the seed-7 norm-axioms corpus: bands -2, 1 and 4, period 6
_CASE_085_B1 = {"S": [[2, "inf"], [3, 1]], "bands": [
    [-2, {"period": 1, "values": [[-1, 10, -7, 6]]}],
    [1, {"period": 6, "values": [[-10, 9, -1, 4], [1, 3, 1, 6], [-2, 3, -7, 10],
                                 [-2, 5, -13, 16], [-9, 11, -2, 5], [2, 3, 3, 2]]}],
    [4, {"period": 2, "values": [[-1, 1, 16, 9], [10, 13, 1, 2]]}],
]}


@pytest.mark.parametrize("j,tol", [(3, 6.25e-11), (4, 3.125e-11), (5, 1.5625e-11)])
def test_crossings_placed_off_the_circle_are_evaluated(j, tol):
    # At the first level np.roots places the two crossings of delta_L^3 b1
    # about 6e-7 off the circle (1e-4 to 1e-3 for delta_L^5).  Read as "no
    # root on the circle", that level certified a norm 3.6e-4 below the sup.
    x = bd_delta_L_power(decode_bd(_CASE_085_B1), j)
    grid_max = float(np.max(_dense_smax(bd_symbol(x), 2 ** 14)))
    assert bd_norm(x, tol) >= grid_max - tol


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_sup_off_every_seed_grid(S2, tol):
    # b = 1 + (z V + conj(z) V^*) / 2 with z = e^{2 pi i / 512}: its symbol
    # 1 + cos(2 pi (theta + 1/512)) has sup exactly 2, attained at 511/512,
    # which neither a 32- nor a 256-point grid contains
    z = Scalar.root_of_unity(1, 512)
    half = Scalar.from_fraction(Fraction(1, 2))
    b = bd_element(S2, {0: ulc([Scalar.from_int(1)]), 1: ulc([z * half]),
                        -1: ulc([z.conj() * half])})
    assert abs(bd_norm(b, tol) - 2.0) <= tol


def test_sup_smax_within_dense_grid_bounds(S23, rng):
    for _ in range(12):
        sym = bd_symbol(cp.rand_bd(rng, S23, n_bands=rng.randint(1, 3)))
        _assert_within_dense_grid_bounds(sym, bloch.certified_sup_smax(sym, 1e-9), 1e-9)


def test_level_test_above_degree_512(S23, monkeypatch):
    # bands 0, +-200 and 3 at period 4 are wrap powers up to 50, so B^* B has
    # wrap powers up to 100 and each level polynomial
    # z^400 det(lam^2 I - B^* B) has degree 800
    rng = random.Random(0)
    b = bd_element(S23, {n: ulc([Scalar.from_fraction(Fraction(rng.randint(-8, 8), 4),
                                                      Fraction(rng.randint(-8, 8), 4))
                                 for _ in range(4)])
                         for n in (0, 200, -200, 3)})
    sym = bd_symbol(b)
    census_degrees = []
    census = bloch.circle_root_angles

    def spy(poly, noise, delta):
        census_degrees.append(len(poly) - 1)
        return census(poly, noise, delta)

    monkeypatch.setattr(bloch, "circle_root_angles", spy)
    start = time.perf_counter()
    r = bloch.certified_sup_smax(sym, 1e-6)
    elapsed = time.perf_counter() - start
    _assert_within_dense_grid_bounds(sym, r, 1e-6)
    assert max(census_degrees) > 512
    assert elapsed < 10.0


def test_census_memory_follows_the_band_span(S23):
    # bands -1, 0 and 1 at period 128: det B(z) has powers in [-1, 1] and each
    # level determinant powers in [-2, 2], so their FFTs take 8 and 16 points.
    # FFTs sized by the nominal degree 2 l D would take 512 and 2048 points of
    # 128 x 128 matrices, about 0.5 and 1 GiB.
    rng = random.Random(7)

    def band(lo, hi):
        return ulc([Scalar.from_fraction(Fraction(rng.choice([1, -1]) * rng.randint(lo, hi), 4),
                                         Fraction(rng.randint(-2, 2), 4))
                    for _ in range(128)])

    # |band 0| >= 2 > |band 1| + |band -1|, so B is invertible with winding 0
    sym = bd_symbol(bd_element(S23, {0: band(8, 16), 1: band(0, 2), -1: band(0, 2)}))
    results, peaks = [], []
    tracemalloc.start()
    try:
        for call in (lambda: bloch.certified_sup_smax(sym, 1e-6), lambda: bloch.det_winding(sym)):
            tracemalloc.reset_peak()
            results.append(call())
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 256 * 2 ** 20, peaks
    _assert_within_dense_grid_bounds(sym, results[0], 1e-6, G=256)
    assert results[1] == 0


def test_inconclusive_root_test_gives_no_certificate(monkeypatch):
    b = decode_bd({"S": [[2, "inf"], [3, 1]], "bands": [
        [1, {"period": 2, "values": [[1, 1, 0, 1], [2, 1, 0, 1]]}],
        [-1, {"period": 2, "values": [[3, 1, 0, 1], [1, 2, 0, 1]]}],
    ]})
    sym = bd_symbol(b)
    monkeypatch.setattr(bloch, "_level_root_angles", lambda *args: None)
    with pytest.raises(ToleranceUnreachableError, match="did not converge"):
        bloch.certified_sup_smax(sym, 1e-9)


def _read_back_by_cells(samples, max_band):
    # the per-cell read-back that symbol_samples_to_bands replaced: one
    # (band, residue) pair at a time, all-zero bands left out
    G, l, _ = samples.shape
    C = np.fft.fft(samples, axis=0) / G
    out = {}
    for n in range(-max_band, max_band + 1):
        vals = np.zeros(l, dtype=complex)
        ok = False
        for r in range(l):
            rp = (r + n) % l
            w = (r + n - rp) // l
            if abs(w) > (G - 1) // 2:
                continue
            vals[r] = C[w % G, rp, r]
            ok = True
        if ok and np.any(vals != 0):
            out[n] = vals
    return out


@pytest.mark.parametrize("G", [256, 512])
@pytest.mark.parametrize("l", [1, 2, 3, 5, 12])
def test_read_back_matches_the_cell_loop(l, G):
    gen = np.random.default_rng(1000 * l + G)
    noisy = gen.standard_normal((G, l, l)) + 1j * gen.standard_normal((G, l, l))
    noisy[:, 0, l - 1] = 0.0
    noisy[:, l - 1, 0] = complex(-0.0, -0.0)
    # samples constant in theta: every wrap power but 0 reads back as a zero
    flat = np.broadcast_to(gen.standard_normal((l, l)) + 0j, (G, l, l)).copy()
    flat[:, 0, 0] = complex(-0.0, 0.0)
    zero_rows = 0
    for samples in (noisy, flat):
        for max_band in (1, l, 3 * l + 1, 7 * l):
            ns, values = bloch.symbol_samples_to_bands(samples, max_band)
            want = _read_back_by_cells(samples, max_band)
            assert ns.tolist() == list(range(-max_band, max_band + 1))
            assert values.shape == (2 * max_band + 1, l)
            for n, row in zip(ns.tolist(), values):
                if n in want:
                    assert row.tobytes() == want[n].tobytes()
                else:
                    assert not np.any(row)
                    zero_rows += 1
    assert zero_rows > 0
