import json
import random
from fractions import Fraction

import pytest

from bdtk import bloch, calculus, index
from bdtk import corpus as cp
from bdtk import serialize as ser
from bdtk.arith import Supernatural, INF
from bdtk.bd import bd_element, bd_m, bd_mul, bd_one, bd_scale, bd_sub, bd_symbol, bd_v
from bdtk.bdt import (
    bdt_add,
    bdt_adjoint,
    bdt_equal,
    bdt_from_compact,
    bdt_mul,
    bdt_one,
    bdt_scale,
    bdt_u,
    toeplitz,
)
from bdtk.cli import cli_dispatch
from bdtk.compact import k_scale, k_units
from bdtk.errors import NotFredholmError, NotInvertibleError, UnstableIndexError
from bdtk.index import fredholm_index, k0_demo, winding
from bdtk.scalars import Scalar
from bdtk.ulc import ulc
from bdtk.verify import det_winding_by_phase


def _invertible_ulc(rng, period):
    vals = [
        Scalar.from_fraction(Fraction(rng.choice([1, -1]) * rng.randint(2, 6), 2),
                             Fraction(rng.randint(-1, 1), 4))
        for _ in range(period)
    ]
    return ulc(vals)


def test_index_of_shift(S23):
    r = fredholm_index(bdt_u(S23, 1))
    assert r.index == -1
    assert r.stabilized
    assert all(ker == 0 and coker == 1 for (_, ker, coker) in r.kernel_dims)


def test_index_of_identity(S23):
    assert fredholm_index(bdt_one(S23)).index == 0


def test_index_of_monomials(S23, rng):
    for n in range(-4, 5):
        f = _invertible_ulc(rng, rng.choice([1, 2, 3, 4, 6]))
        b = bd_element(S23, {n: f})
        assert fredholm_index(toeplitz(b)).index == -n


def test_exact_kernel_example(S23):
    f = ulc([Fraction(3, 2), -2, 1, Fraction(5, 4), 1, -1])
    a = toeplitz(bd_element(S23, {-2: f}))
    r = fredholm_index(a)
    assert r.index == 2
    assert all(ker == 2 and coker == 0 for (_, ker, coker) in r.kernel_dims)


def test_not_fredholm(S23):
    with pytest.raises(NotFredholmError):
        # symbol V - 1 vanishes on the circle
        fredholm_index(bdt_add(bdt_u(S23, 1), bdt_scale(-1, bdt_one(S23))))
    with pytest.raises(NotFredholmError):
        fredholm_index(bdt_from_compact(S23, k_units(0, 0)))


def test_schedule_validation(S23):
    with pytest.raises(ValueError):
        fredholm_index(bdt_u(S23, 1), schedule=(64, 128))


def test_compact_perturbation_invariance(S23, rng):
    for _ in range(8):
        b, w = cp.rand_invertible_bd(rng, S23)
        a = toeplitz(b)
        base = fredholm_index(a, schedule=(64, 128, 256)).index
        assert base == -w
        c = k_scale(Fraction(1, 16), cp.rand_compact(rng, nnz=3, top=4))
        pert = fredholm_index(bdt_add(a, bdt_from_compact(S23, c)),
                              schedule=(64, 128, 256)).index
        assert pert == base


def test_index_additivity(S23, rng):
    pool = [cp.rand_invertible_bd(rng, S23) for _ in range(6)]
    idx = {}
    for j, (b, w) in enumerate(pool):
        idx[j] = fredholm_index(toeplitz(b), schedule=(64, 128, 256)).index
        assert idx[j] == -w
    for _ in range(12):
        j1, j2 = rng.randrange(6), rng.randrange(6)
        prod = bdt_mul(toeplitz(pool[j1][0]), toeplitz(pool[j2][0]))
        assert fredholm_index(prod, schedule=(64, 128, 256)).index == idx[j1] + idx[j2]


def test_winding_examples(S23):
    assert winding(bd_v(S23, 1)) == 1
    f = ulc([Fraction(3, 2), -2, 1])
    assert winding(bd_m(S23, f)) == 0
    assert winding(bd_element(S23, {-3: f})) == -3
    with pytest.raises(NotInvertibleError):
        winding(bd_sub(bd_v(S23, 1), bd_one(S23)))
    with pytest.raises(NotInvertibleError):  # the value underflows to 0.0
        winding(bd_element(S23, {1: ulc([Fraction(1, 10 ** 400)])}))


def test_winding_index_cross_oracle(S23, rng):
    pool = [cp.rand_invertible_bd(rng, S23)[0] for _ in range(6)]
    for b in pool:
        assert winding(b) == det_winding_by_phase(bd_symbol(b))
    for _ in range(10):
        b1, b2 = rng.choice(pool), rng.choice(pool)
        b12 = bd_mul(b1, b2)
        w = det_winding_by_phase(bd_symbol(b12))
        assert winding(b12) == w
        prod = bdt_mul(toeplitz(b1), toeplitz(b2))
        assert fredholm_index(prod, schedule=(64, 128, 256)).index == -w


def test_winding_of_spans_off_the_diagonal(S23):
    # the census reads z^(-a) det B(z), [a, b] the band span of B, and adds a
    # back: check it against the phase count on spans wholly above band 0
    # (a > 0), wholly below it (b < 0) and across it.  One dominant band w,
    # |f_w| >= 1, plus two bands of sup norm below 1/2 each: the winding is w.
    rng = random.Random(5)
    periods = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    spans = [(1, 6), (-6, -1), (-6, 6)]
    for case in range(3 * len(periods)):
        l = periods[case // 3]
        lo, hi = spans[case % 3]
        w = rng.randint(lo, hi)
        bands = {w: _invertible_ulc(rng, l)}
        for n in rng.sample(range(lo, hi + 1), 2):
            bands.setdefault(n, ulc([Scalar.from_fraction(Fraction(rng.randint(-1, 1), 4),
                                                          Fraction(rng.randint(-1, 1), 4))
                                     for _ in range(l)]))
        sym = bd_symbol(bd_element(S23, bands))
        assert bloch.det_winding(sym) == det_winding_by_phase(sym) == w, (l, sorted(bands))


def test_winding_of_scaled_period_64_symbols(S23):
    # det B of a period-64 symbol scaled by s is s^64 det B: 2^(+-1280) lies
    # outside double range, so the census reads determinants relative to the
    # largest sample.  Scaling moves no root, and band 0 dominates (|f_0| >= 1,
    # bands +-1 of sup norm 1/4), so the winding stays 0.  The phase oracle
    # reads the same scaled determinants through slogdet's sign.
    rng = random.Random(64)
    b = bd_element(S23, {0: _invertible_ulc(rng, 64),
                         1: ulc([Fraction(rng.randint(-1, 1), 4) for _ in range(64)]),
                         -1: ulc([Fraction(rng.randint(-1, 1), 4) for _ in range(64)])})
    for s in (Fraction(1, 2 ** 20), 2 ** 20):
        bs = bd_scale(s, b)
        assert winding(bs) == 0
        assert det_winding_by_phase(bd_symbol(bs)) == 0
        assert fredholm_index(toeplitz(bs), schedule=(64, 128, 256)).index == 0


def test_winding_above_degree_512(S23, monkeypatch):
    # bands +-264 at period 12 are wrap powers +-22, so z^264 det B(z) has
    # degree 528 with end coefficients far above round-off, and all 528 of its
    # zeros go through one companion-matrix census.  B is diagonal; each
    # residue where band 264 dominates band -264 adds 22 to the winding
    # number, each other residue subtracts 22.
    rng = random.Random(12)

    def band(moduli):
        return ulc([Scalar.from_fraction(Fraction(rng.choice([1, -1])) * m,
                                         Fraction(rng.randint(-1, 1), 16))
                    for m in moduli])

    big = [Fraction(2)] * 8 + [Fraction(1, 2)] * 4
    b = bd_element(S23, {264: band(big), 0: band([Fraction(1, 16)] * 12),
                         -264: band([1 / m for m in big])})
    census_degrees = []
    census = bloch._circle_roots

    def spy(p, delta):
        census_degrees.append(len(p) - 1)
        return census(p, delta)

    monkeypatch.setattr(bloch, "_circle_roots", spy)
    assert winding(b) == det_winding_by_phase(bd_symbol(b)) == 22 * (8 - 4)
    assert census_degrees == [528]  # one census, of the full degree


def test_one_determinant_census_per_call(S23, monkeypatch):
    # invertibility and the winding number come from one root census, so
    # z^(-a) det B(z) of the caller's symbol is built once per call
    symbols, det_polys = [], []
    for mod in (index, calculus):
        def spy_symbol(b, to_symbol=mod.bd_symbol):
            symbols.append(to_symbol(b))
            return symbols[-1]
        monkeypatch.setattr(mod, "bd_symbol", spy_symbol)
    det_poly = bloch._laurent_det_poly

    def spy_poly(coeff_mats, l):
        det_polys.extend(s for s in symbols if s.coeffs is coeff_mats)
        return det_poly(coeff_mats, l)

    monkeypatch.setattr(bloch, "_laurent_det_poly", spy_poly)
    b = bd_element(S23, {1: ulc([2, -3, Fraction(5, 2)]), -1: ulc([Fraction(1, 4), 0, 1])})
    for call in (lambda: fredholm_index(toeplitz(b), schedule=(64, 128, 256)),
                 lambda: winding(b), lambda: calculus.bd_invert(b, 1e-6, 16)):
        symbols.clear()
        det_polys.clear()
        call()
        assert len(symbols) == len(det_polys) == 1


def test_wrong_count_fails_the_cross_check(tmp_path, capsys, monkeypatch, S23):
    monkeypatch.setattr(bloch, "det_winding", lambda sym: 0)
    with pytest.raises(UnstableIndexError):
        fredholm_index(bdt_u(S23, 1))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(ser.encode_bdt(bdt_u(S23, 1))))
    assert cli_dispatch(["index", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UNSTABLE"


def test_k0_demo(S23):
    rep = k0_demo(S23)
    assert rep["index_of_shift_generator"] == -1
    assert rep["index_generates_k0_of_compacts"]
    assert all(row["additive"] for row in rep["index_additivity"])
    member = {row["q"]: row["member"] for row in rep["gs_membership"]}
    assert member["1/2"] and member["5/6"]
    assert not member["1/9"]
    assert all(row["trivial_in_quotient"] for row in rep["quotient_demo"])
    v = bdt_u(S23, 1)
    assert not bdt_equal(bdt_mul(v, bdt_adjoint(v)), bdt_one(S23))  # e_00 is needed
    S2 = Supernatural({2: INF})
    member2 = {row["q"]: row["member"] for row in k0_demo(S2)["gs_membership"]}
    assert member2["3/8"] and not member2["1/3"]


def test_fredholm_index_rejects_sizes_below_one(S23):
    a = bdt_add(bdt_u(S23, 1), bdt_add(bdt_one(S23), bdt_one(S23)))  # T(2 + V)
    with pytest.raises(ValueError):
        fredholm_index(a, (0, 1, 2))
