"""Independent oracles used by the tests: truncated-window linear algebra,
roots-of-unity quadrature of derivation components, power-series summation
and Fraction-dict cyclotomic arithmetic, kept apart from the library's own
computation paths."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from bdtk.bd import BdElement, bd_element, bd_sup_coefficient_norm
from bdtk.bdt import BdtElement, bdt_add, bdt_rho, bdt_scale, bdt_truncate, toeplitz
from bdtk.scalars import Scalar, cyclotomic_polynomial
from bdtk.sparse import ScalarMatrix
from bdtk.ulc import ulc, ulc_eval


def window_matrix(b: BdElement, lo: int, hi: int) -> ScalarMatrix:
    """Two-sided window matrix built directly from the band functions."""
    ent = {}
    for n, f in b.bands.items():
        for s in range(lo, hi):
            k = s + n
            if lo <= k < hi:
                v = ulc_eval(f, s)
                if not v.is_zero():
                    ent[(k, s)] = v
    return ScalarMatrix(ent)


def window_gap(x, y) -> float:
    """Largest entry gap between two band elements on the two-sided window
    [-32, 32), or between two BDT elements on the Toeplitz corner [0, N),
    N >= 32 covering both compact supports."""
    N = 32
    if isinstance(x, BdtElement):
        N = max(N, x.compact.support_bound(), y.compact.support_bound())
        w = range(N)
        mx, my = bdt_truncate(x, N), bdt_truncate(y, N)
    else:
        w = range(-N, N)
        mx, my = window_matrix(x, -N, N), window_matrix(y, -N, N)
    return float(np.max(np.abs(mx.to_numpy(w, w) - my.to_numpy(w, w))))


def toeplitz_product_window(b1: BdElement, b2: BdElement, window: int) -> ScalarMatrix:
    """T(b1) T(b2) restricted to [0, window)^2, exactly (padding absorbs the
    truncation boundary)."""
    pad = b1.bandwidth + b2.bandwidth + 1
    N = window + pad
    t1 = bdt_truncate(toeplitz(b1), N)
    t2 = bdt_truncate(toeplitz(b2), N)
    return t1.matmul(t2).restrict(range(window), range(window))


def der_component_quadrature(d_callable, n: int, band_limit: int, a: BdtElement) -> BdtElement:
    """Roots-of-unity average (1/G) sum_j e^{2 pi i n j / G} rho_{-j/G} d rho_{j/G}(a),
    G = 2 band_limit + 1; exact for band-limited derivations and exact inputs."""
    G = 2 * band_limit + 1
    acc = None
    for j in range(G):
        th = Fraction(j, G)
        term = bdt_rho(d_callable(bdt_rho(a, th)), -th)
        term = bdt_scale(Scalar.root_of_unity(n * j, G), term)
        acc = term if acc is None else bdt_add(acc, term)
    return bdt_scale(Fraction(1, G), acc)


def exp_power_series(b: BdElement, terms: int | None = None) -> tuple[BdElement, float]:
    """e^{ib} summed as a power series, with the rigorous tail bound
    ||b||^{K+1}/(K+1)! * e^{||b||} (using the coefficient-mass upper bound for
    ||b||).

    The series is summed on complex band arrays at the common period l, with
    the shift rule (V^n m_f)(V^m m_g) = V^{n+m} m_{(f o phi^m) g}, where
    (f o phi^m)(s) = f(s + m); the sum becomes an element once, at the end."""
    nrm = bd_sup_coefficient_norm(b) * (2 * b.bandwidth + 1)
    if terms is None:
        terms = max(24, int(3 * nrm) + 20)
    l = b.period
    ib = {n: 1j * np.array([ulc_eval(f, s).to_complex() for s in range(l)])
          for n, f in b.bands.items()}
    acc = {0: np.ones(l, dtype=complex)}
    term = dict(acc)
    for k in range(1, terms + 1):
        nxt: dict[int, np.ndarray] = {}
        for n, f in term.items():
            for m, g in ib.items():
                nxt[n + m] = nxt.get(n + m, 0) + np.roll(f, -m) * g / k
        term = nxt
        for n, f in term.items():
            acc[n] = acc.get(n, 0) + f
    tail = nrm ** (terms + 1) / math.factorial(terms + 1) * math.exp(nrm)
    return bd_element(b.S, {n: ulc([Scalar.from_complex(complex(z)) for z in f])
                            for n, f in acc.items()}), tail


# --------------------------------------------------------------------------
# Scalar reference: the Fraction-dict arithmetic that Scalar's integer
# numerators over one denominator replaced.  A value is (n, {k: Fraction})
# in the same canonical form, built by the same steps, so Scalar must give
# the same terms in the same order (to_complex sums them in that order).
# --------------------------------------------------------------------------

def ref_canonicalize(n: int, terms: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    while True:
        merged: dict[int, Fraction] = {}
        for k, c in terms.items():
            if c:
                k %= n
                merged[k] = merged.get(k, Fraction(0)) + c
        terms = {k: c for k, c in merged.items() if c}
        if not terms:
            return 1, {}
        if n == 1:
            return 1, terms
        phi = cyclotomic_polynomial(n)
        deg = len(phi) - 1
        if max(terms) >= deg:
            dense = [Fraction(0)] * n
            for k, c in terms.items():
                dense[k] = c
            for e in range(n - 1, deg - 1, -1):
                c = dense[e]
                if c:
                    dense[e] = Fraction(0)
                    for i in range(deg):
                        if phi[i]:
                            dense[e - deg + i] -= c * phi[i]
            terms = {k: c for k, c in enumerate(dense) if c}
            if not terms:
                return 1, {}
        g = 0
        for k in terms:
            g = math.gcd(g, k)
        g = math.gcd(g, n)
        if g > 1:
            n //= g
            terms = {k // g: c for k, c in terms.items()}
            continue
        if n % 2 == 0 and (n // 2) % 2 == 1:
            m = n // 2
            new: dict[int, Fraction] = {}
            for k, c in terms.items():
                if k % 2 == 0:
                    kk, cc = (k // 2) % m, c
                else:
                    kk, cc = (k * (m + 1) // 2) % m, -c
                new[kk] = new.get(kk, Fraction(0)) + cc
            n, terms = m, new
            continue
        return n, terms


def _ref_gauss(re: Fraction, im: Fraction) -> tuple[int, dict[int, Fraction]]:
    if im:
        return 4, ({1: im, 0: re} if re else {1: im})
    return 1, ({0: re} if re else {})


def _ref_parts(x):
    n, t = x
    return (t.get(0, Fraction(0)), t.get(1, Fraction(0))) if n in (1, 4) else None


def _ref_lift(x, L: int) -> dict[int, Fraction]:
    n, t = x
    return {k * (L // n): c for k, c in t.items()}


def ref_add(x, y):
    g, h = _ref_parts(x), _ref_parts(y)
    if g is not None and h is not None:
        return _ref_gauss(g[0] + h[0], g[1] + h[1])
    L = math.lcm(x[0], y[0])
    t = _ref_lift(x, L)
    for k, c in _ref_lift(y, L).items():
        t[k] = t.get(k, Fraction(0)) + c
    return ref_canonicalize(L, t)


def ref_mul(x, y):
    g, h = _ref_parts(x), _ref_parts(y)
    if g is not None and h is not None:
        return _ref_gauss(g[0] * h[0] - g[1] * h[1], g[0] * h[1] + g[1] * h[0])
    L = math.lcm(x[0], y[0])
    b = _ref_lift(y, L)
    t: dict[int, Fraction] = {}
    for k1, c1 in _ref_lift(x, L).items():
        for k2, c2 in b.items():
            k = (k1 + k2) % L
            t[k] = t.get(k, Fraction(0)) + c1 * c2
    return ref_canonicalize(L, t)


def ref_conj(x):
    n, t = x
    return ref_canonicalize(n, {(n - k) % n: c for k, c in t.items()})


def ref_inverse(x):
    """1/x; outside Q(i) by solving (x * u = 1 mod Phi_n) as a linear system
    over Q in the power basis, by Gauss-Jordan elimination."""
    g = _ref_parts(x)
    if g is not None:
        d = g[0] * g[0] + g[1] * g[1]
        return _ref_gauss(g[0] / d, -g[1] / d)
    n, t = x
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1

    def times_zeta_power(j):
        dense = [Fraction(0)] * (deg + j)
        for k, c in t.items():
            dense[k + j] += c
        for e in range(len(dense) - 1, deg - 1, -1):
            c = dense[e]
            dense[e] = Fraction(0)
            for i in range(deg):
                dense[e - deg + i] -= c * phi[i]
        return dense[:deg]

    cols = [times_zeta_power(j) for j in range(deg)]
    rows = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
    for col in range(deg):
        piv = next(r for r in range(col, deg) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(deg):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return ref_canonicalize(n, {k: rows[k][deg] for k in range(deg) if rows[k][deg]})


def ref_to_complex(x) -> complex:
    n, t = x
    z = 0j
    for k, c in t.items():
        z += float(c) * cmath.exp(2j * cmath.pi * k / n)
    return z


def ref_encode(x):
    g = _ref_parts(x)
    if g is not None:
        return [g[0].numerator, g[0].denominator, g[1].numerator, g[1].denominator]
    n, t = x
    return {"order": n, "terms": [[k, c.numerator, c.denominator] for k, c in sorted(t.items())]}
