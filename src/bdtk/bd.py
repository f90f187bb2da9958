"""The dense finitely-supported part of the smooth Bunce-Deddens algebra:
finite band sums b = sum_n V^n m_{f_n} with ULC coefficients.

Band arithmetic is exact (the shift relation V^{-1} m_f V = m_{f o phi} is
applied symbolically); operator norms are certified through the Bloch symbol
and the graded P-norms are binomial sums of norms of powers of the band
derivation delta_L."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .arith import Supernatural, sn_divides
from .scalars import Scalar, phase_scalar
from .sparse import ScalarMatrix
from .ulc import (
    UlcFunction,
    ulc,
    ulc_add,
    ulc_conj,
    ulc_equal,
    ulc_eval,
    ulc_mul,
    ulc_scale,
    ulc_shift,
    ulc_sup_norm,
)

_ZERO_ULC = ulc([0])


@dataclass(frozen=True, eq=False)
class BdElement:
    S: Supernatural
    bands: dict[int, UlcFunction]  # canonical: no zero bands; never mutated

    @property
    def period(self) -> int:
        return math.lcm(*(f.period for f in self.bands.values()))

    @property
    def bandwidth(self) -> int:
        return max((abs(n) for n in self.bands), default=0)

    @property
    def is_exact(self) -> bool:
        return all(f.is_exact for f in self.bands.values())

    def is_zero(self) -> bool:
        return not self.bands

    def __repr__(self) -> str:
        return f"BdElement(bands={sorted(self.bands)})"


def bd_element(S: Supernatural, bands: dict[int, UlcFunction]) -> BdElement:
    """Canonical constructor: drops zero bands, checks the period lattice."""
    b = BdElement(S, {int(n): f for n, f in bands.items() if not f.is_zero()})
    if not sn_divides(b.period, S):
        raise ValueError(f"combined period {b.period} does not divide the ambient S")
    return b


def bd_zero(S: Supernatural) -> BdElement:
    return BdElement(S, {})


def bd_scalar(S: Supernatural, z) -> BdElement:
    return bd_element(S, {0: ulc([z])})


def bd_one(S: Supernatural) -> BdElement:
    return bd_scalar(S, 1)


def bd_v(S: Supernatural, n: int = 1) -> BdElement:
    """The shift power V^n."""
    return bd_element(S, {n: ulc([1])})


def bd_m(S: Supernatural, f: UlcFunction) -> BdElement:
    """The multiplication operator m_f."""
    return bd_element(S, {0: f})


def _check_same_s(b1: BdElement, b2: BdElement):
    if b1.S != b2.S:
        raise ValueError("elements live over different supernatural numbers")


def bd_add(b1: BdElement, b2: BdElement) -> BdElement:
    _check_same_s(b1, b2)
    acc = dict(b1.bands)
    for n, f in b2.bands.items():
        acc[n] = ulc_add(acc[n], f) if n in acc else f
    return bd_element(b1.S, acc)


def bd_scale(z, b: BdElement) -> BdElement:
    z = Scalar.from_number(z)
    if z.is_zero():
        return bd_zero(b.S)
    return bd_element(b.S, {n: ulc_scale(z, f) for n, f in b.bands.items()})


def bd_sub(b1: BdElement, b2: BdElement) -> BdElement:
    return bd_add(b1, bd_scale(-1, b2))


def bd_mul(b1: BdElement, b2: BdElement) -> BdElement:
    """Band convolution with the shift rule (V^n m_f)(V^m m_g) = V^{n+m} m_{(f o phi^m) g}."""
    _check_same_s(b1, b2)
    acc: dict[int, UlcFunction] = {}
    for n, f in b1.bands.items():
        for m, g in b2.bands.items():
            h = ulc_mul(ulc_shift(f, m), g)
            k = n + m
            acc[k] = ulc_add(acc[k], h) if k in acc else h
    return bd_element(b1.S, acc)


def bd_adjoint(b: BdElement) -> BdElement:
    """(V^n m_f)^* = V^{-n} m_{conj(f) o phi^{-n}}."""
    return bd_element(
        b.S, {-n: ulc_shift(ulc_conj(f), -n) for n, f in b.bands.items()}
    )


def bd_delta_L(b: BdElement) -> BdElement:
    """The band derivation: delta_L(V^n m_f) = n V^n m_f."""
    return bd_delta_L_power(b, 1)


def bd_delta_L_power(b: BdElement, j: int) -> BdElement:
    if j == 0:
        return b
    return bd_element(b.S, {n: ulc_scale(n ** j, f) for n, f in b.bands.items()})


def bd_fourier(b: BdElement, n: int) -> UlcFunction:
    """The n-th band coefficient f_n (zero function when absent)."""
    return b.bands.get(n, _ZERO_ULC)


def bd_rho(b: BdElement, theta) -> BdElement:
    """Gauge automorphism: band n picks up e^{2 pi i n theta}.

    Rational theta with a small denominator keeps exact root-of-unity phases;
    other angles float-tag the result."""
    return bd_element(
        b.S, {n: ulc_scale(phase_scalar(n, theta), f) for n, f in b.bands.items()}
    )


def bd_equal(b1: BdElement, b2: BdElement) -> bool:
    """ulc_equal band by band, a missing band counting as zero."""
    _check_same_s(b1, b2)
    return all(ulc_equal(b1.bands.get(n, _ZERO_ULC), b2.bands.get(n, _ZERO_ULC))
               for n in b1.bands.keys() | b2.bands.keys())


def bd_is_selfadjoint(b: BdElement) -> bool:
    return bd_equal(b, bd_adjoint(b))


def bd_positive_part(b: BdElement) -> BdElement:
    return bd_element(b.S, {n: f for n, f in b.bands.items() if n >= 0})


def bd_apply(b: BdElement, window: range) -> ScalarMatrix:
    """Matrix of b on the two-sided basis restricted to the window:
    entry (k, s) = f_{k-s}(s)."""
    ent: dict[tuple[int, int], Scalar] = {}
    for n, f in b.bands.items():
        for s in window:
            k = s + n
            if k in window:
                v = ulc_eval(f, s)
                if not v.is_zero():
                    ent[(k, s)] = v
    return ScalarMatrix(ent)


def bd_band_values(b: BdElement, positions: np.ndarray) -> dict[int, np.ndarray]:
    """Band n -> the complex values f_n(k) at the integer positions k
    (Euclidean remainder); the one place where band Scalars become arrays."""
    return {n: np.array([v.to_complex() for v in f.values])[positions % f.period]
            for n, f in b.bands.items()}


def bd_symbol(b: BdElement) -> bloch.SymbolMatrix:
    """The l x l Bloch symbol B(z) = sum_n W(z)^n F_n of the element."""
    l = b.period
    return bloch.symbol_from_bands(l, bd_band_values(b, np.arange(l)))


def bd_norm(b: BdElement, tol: float) -> float:
    """Operator norm on the two-sided sequence space, certified within tol."""
    bloch.check_tol(tol)
    if b.is_zero():
        return 0.0
    return bloch.certified_sup_smax(bd_symbol(b), tol)


def bd_p_norm(b: BdElement, P: int, tol: float) -> float:
    """sum_{j<=P} binom(P, j) ||delta_L^j b||, each norm certified with budget
    tol / 2^{j+1} (total error at most tol * 2^P); ValueError past double range."""
    bloch.check_tol(tol)
    if P < 0:
        raise ValueError("P must be nonnegative")
    total = 0.0
    try:
        for j in range(P + 1):
            total += math.comb(P, j) * bd_norm(bd_delta_L_power(b, j), tol / 2 ** (j + 1))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"the P-norm at P = {P} overflows double precision")
    return total


def bd_sup_coefficient_norm(b: BdElement) -> float:
    """max_n sup|f_n| (cheap upper-bound building block)."""
    return max((ulc_sup_norm(f) for f in b.bands.values()), default=0.0)


def bd_truncation_smax(b: BdElement, N: int) -> float:
    """Largest singular value of the N x N window centered at the origin;
    converges to the norm from below as N grows (windows are compressions).

    Computed as the top eigenvalue of the banded Hermitian Gram matrix A^H A
    via the LAPACK banded solver, which is exact and fast at desk scale."""
    if b.is_zero():
        return 0.0
    # imported here, not at module level: scipy.linalg adds about 0.3 s to
    # the 0.2 s of `import bdtk`, which every CLI call would pay
    import scipy.linalg as sla

    cols = bd_band_values(b, np.arange(N) - N // 2)
    u = 2 * b.bandwidth
    band = np.zeros((u + 1, N), dtype=complex)
    for n1, a1 in cols.items():
        for n2, a2 in cols.items():
            k = n1 - n2
            if k < 0:
                continue
            lo_i = max(0, -n1)
            hi_i = min(N - k, N - n1)
            if hi_i <= lo_i:
                continue
            i = np.arange(lo_i, hi_i)
            band[u - k, i + k] += np.conj(a1[i]) * a2[i + k]
    top = sla.eig_banded(band, lower=False, eigvals_only=True,
                         select="i", select_range=(N - 1, N - 1))
    return float(np.sqrt(max(top[0].real, 0.0)))
