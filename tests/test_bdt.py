from fractions import Fraction

from bdtk import corpus as cp
from bdtk.bd import (
    bd_adjoint,
    bd_delta_L,
    bd_element,
    bd_equal,
    bd_m,
    bd_mul,
    bd_one,
    bd_v,
)
from bdtk.bdt import (
    BdtElement,
    bdt,
    bdt_add,
    bdt_adjoint,
    bdt_component_range,
    bdt_dK,
    bdt_equal,
    bdt_fourier,
    bdt_from_compact,
    bdt_mul,
    bdt_one,
    bdt_rho,
    bdt_scale,
    bdt_truncate,
    bdt_u,
    correction,
    tau,
    toeplitz,
)
from bdtk.compact import CompactMatrix, k_rho, k_scale, k_units
from bdtk.scalars import Scalar
from bdtk.ulc import ulc, ulc_eval

from .oracles import toeplitz_product_window, window_gap


def test_toeplitz_basics(S23, rng):
    S = S23
    assert bdt_equal(toeplitz(bd_one(S)), bdt_one(S))
    for n in range(4):
        assert bdt_equal(toeplitz(bd_v(S, n)), bdt_u(S, n))
    for _ in range(20):
        b = cp.rand_bd(rng, S)
        assert bd_equal(tau(toeplitz(b)), b)
        assert bdt_equal(bdt_adjoint(toeplitz(b)), toeplitz(bd_adjoint(b)))


def test_tau_kernel_and_multiplicativity(S23, rng):
    S = S23
    assert tau(bdt_from_compact(S, k_units(2, 5))).is_zero()
    for _ in range(100):
        a1 = cp.rand_bdt(rng, S)
        a2 = cp.rand_bdt(rng, S)
        assert bd_equal(tau(bdt_mul(a1, a2)), bd_mul(tau(a1), tau(a2)))


def test_correction_examples(S23):
    S = S23
    assert correction(bd_v(S, 1), bd_v(S, -1)).equal(k_scale(-1, k_units(0, 0)))
    assert correction(bd_v(S, -1), bd_v(S, 1)).is_zero()
    f = ulc([1, Fraction(1, 2)])
    g = ulc([Fraction(2, 3), 3])
    assert correction(bd_m(S, f), bd_m(S, g)).is_zero()
    # nonnegative x nonnegative bands never produce corrections
    b1 = bd_element(S, {0: f, 2: g})
    b2 = bd_element(S, {1: g, 3: f})
    assert correction(b1, b2).is_zero()


def test_correction_truncation_oracle(S23, rng):
    S = S23
    for _ in range(60):
        b1 = cp.rand_bd(rng, S)
        b2 = cp.rand_bd(rng, S)
        window = b1.bandwidth + b2.bandwidth + 8
        got = correction(b1, b2)
        oracle = toeplitz_product_window(b1, b2, window).sub(
            bdt_truncate(toeplitz(bd_mul(b1, b2)), window)
        )
        assert got.restrict(range(window), range(window)).equal(oracle)
        assert got.is_exact


def test_correction_support_bound(S23, rng):
    for _ in range(40):
        b1 = cp.rand_bd(rng, S23)
        b2 = cp.rand_bd(rng, S23)
        C = correction(b1, b2)
        bounds = C.support_bounds()
        if bounds is not None:
            assert bounds[1] < b1.bandwidth + b2.bandwidth
            assert bounds[3] < b2.bandwidth


def test_shift_product_identities(S23):
    S = S23
    lhs = bdt_mul(bdt_u(S, 1), bdt_u(S, -1))
    assert bdt_equal(lhs, bdt_add(bdt_one(S), bdt_from_compact(S, k_scale(-1, k_units(0, 0)))))
    assert bdt_equal(bdt_mul(bdt_u(S, -1), bdt_u(S, 1)), bdt_one(S))


def test_product_truncation_exactness(S23, rng):
    S = S23
    for _ in range(60):
        a1 = cp.rand_bdt(rng, S)
        a2 = cp.rand_bdt(rng, S)
        prod = bdt_mul(a1, a2)
        pad = a1.symbol.bandwidth + a2.symbol.bandwidth
        N = 12
        t = bdt_truncate(a1, N + pad).matmul(bdt_truncate(a2, N + pad))
        assert bdt_truncate(prod, N).equal(t.restrict(range(N), range(N)))


def test_dK(S23, rng):
    S = S23
    f = ulc([1, Fraction(5, 3)])
    assert bdt_dK(toeplitz(bd_m(S, f))).is_zero()
    assert bdt_equal(bdt_dK(bdt_u(S, 1)), bdt_u(S, 1))
    for _ in range(100):
        a1 = cp.rand_bdt(rng, S, n_bands=2)
        a2 = cp.rand_bdt(rng, S, n_bands=2)
        lhs = bdt_dK(bdt_mul(a1, a2))
        rhs = bdt_add(bdt_mul(bdt_dK(a1), a2), bdt_mul(a1, bdt_dK(a2)))
        assert bdt_equal(lhs, rhs)
    b = cp.rand_bd(rng, S)
    assert bdt_equal(bdt_dK(toeplitz(b)), toeplitz(bd_delta_L(b)))


def test_fourier_components(S23, rng):
    S = S23
    f = ulc([2, Fraction(1, 4)])
    a = toeplitz(bd_element(S, {1: f}))
    assert bdt_equal(bdt_fourier(a, 1), a)
    p = bdt_from_compact(S, k_units(2, 0))
    assert bdt_equal(bdt_fourier(p, 2), p)
    assert bdt_fourier(p, 1).is_zero()


def test_fourier_quadrature_oracle(S23, rng):
    S = S23
    for _ in range(5):
        a = cp.rand_bdt(rng, S)
        B = bdt_component_range(a)
        G = 2 * B + 1
        for n in range(-B, B + 1):
            acc = None
            for j in range(G):
                th = Fraction(j, G)
                term = bdt_scale(Scalar.root_of_unity(-n * j, G), bdt_rho(a, th))
                acc = term if acc is None else bdt_add(acc, term)
            acc = bdt_scale(Fraction(1, G), acc)
            # the quadrature average collapses to the n-th component
            assert bdt_equal(acc, bdt_fourier(a, n))


def test_truncate_examples(S23):
    S = S23
    t = bdt_truncate(bdt_u(S, 1), 3)
    assert t.entries.keys() == {(1, 0), (2, 1)}
    f = ulc([1, Fraction(7, 2)])
    t = bdt_truncate(toeplitz(bd_m(S, f)), 4)
    assert all(t.get(s, s) == ulc_eval(f, s) for s in range(4))


def test_rho(S23, rng):
    S = S23
    f = ulc([1, Fraction(1, 3)])
    a = toeplitz(bd_m(S, f))
    assert bdt_equal(bdt_rho(a, 0.77), a)
    assert bdt_equal(bdt_rho(bdt_u(S, 1), Fraction(1, 2)), bdt_scale(-1, bdt_u(S, 1)))
    for _ in range(30):
        a1 = cp.rand_bdt(rng, S, n_bands=2)
        a2 = cp.rand_bdt(rng, S, n_bands=2)
        th = rng.random()
        lhs = bdt_rho(bdt_mul(a1, a2), th)
        rhs = bdt_mul(bdt_rho(a1, th), bdt_rho(a2, th))
        assert window_gap(lhs, rhs) <= 1e-9


def test_projection_relations_at_truncation(S23, rng):
    S = S23
    p0 = bdt_from_compact(S, k_units(0, 0))
    for _ in range(20):
        f = cp.rand_ulc(rng, S)
        mf = toeplitz(bd_m(S, f))
        left = bdt_mul(mf, p0)
        right = bdt_mul(p0, mf)
        scaled = bdt_scale(ulc_eval(f, 0), p0)
        assert bdt_equal(left, scaled) and bdt_equal(right, scaled)
        assert bdt_truncate(left, 8).equal(bdt_truncate(scaled, 8))


def _float_tagged(a):
    """a with every value float-tagged."""
    def tag(v):
        return Scalar.from_complex(v.to_complex())
    return BdtElement(
        bd_element(a.S, {n: ulc([tag(v) for v in f.values]) for n, f in a.symbol.bands.items()}),
        CompactMatrix({k: tag(v) for k, v in a.compact.entries.items()}))


def test_equality_rule_on_mixed_containers(S23):
    # containers compare entry by entry with Scalar ==, a missing entry
    # counting as zero: exact against exact is structural, anything
    # float-tagged is within 1e-12, whatever else the container holds
    x = bdt(bd_element(S23, {0: ulc([1, Fraction(1, 3)]), -2: ulc([Fraction(-5, 7)])}),
            CompactMatrix({(0, 1): Fraction(2, 3), (2, 2): Scalar.from_fraction(1, -1)}))
    xf = _float_tagged(x)
    assert bdt_equal(x, xf) and bdt_equal(xf, x)

    def band(n, *values):
        return toeplitz(bd_element(S23, {n: ulc(values)}))

    def entry(k, s, value):
        return bdt_from_compact(S23, CompactMatrix({(k, s): value}))

    for eps, equal in ((1e-9, False), (1e-13, True)):
        assert bdt_equal(x, bdt_add(xf, band(0, eps, 0))) is equal
        assert bdt_equal(x, bdt_add(xf, entry(0, 1, eps))) is equal
    assert bdt_equal(x, bdt_add(xf, band(3, 1e-13)))
    assert bdt_equal(x, bdt_add(xf, entry(5, 5, 1e-13)))
    tiny = Fraction(1, 10 ** 13)
    assert not bdt_equal(x, bdt_add(x, band(3, tiny)))
    assert not bdt_equal(x, bdt_add(x, entry(5, 5, tiny)))
    # two exact values 1e-13 apart differ, even next to a float-tagged one
    assert not bdt_equal(band(0, Fraction(1, 3), 0.5), band(0, Fraction(1, 3) + tiny, 0.5))
    assert not bdt_equal(bdt_add(entry(0, 0, 0.5), entry(1, 1, Fraction(1, 3))),
                         bdt_add(entry(0, 0, 0.5), entry(1, 1, Fraction(1, 3) + tiny)))
