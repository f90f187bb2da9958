"""The smooth Bunce-Deddens-Toeplitz algebra in canonical form a = T(b) + c.

T is the compression of a two-sided band operator to the nonnegative basis;
tau is the quotient onto the symbol.  The canonical pair (b, c) is unique, so
products are computed symbolically: the symbol multiplies as in the band
algebra, and the compact correction T(b1)T(b2) - T(b1 b2) is produced in
closed form by reducing monomials U^a M_h (U^*)^b with the wrap rule
U M_h U^* = M_{h o phi^{-1}} - h(-1) P_00, each step emitting one matrix
unit.  Numeric truncation is never used to build elements; it remains an
independent testing oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import Supernatural
from .bd import (
    BdElement,
    bd_add,
    bd_adjoint,
    bd_apply,
    bd_band_values,
    bd_delta_L,
    bd_element,
    bd_equal,
    bd_fourier,
    bd_mul,
    bd_one,
    bd_rho,
    bd_scale,
    bd_v,
    bd_zero,
)
from .compact import (
    CompactMatrix,
    k_add,
    k_adjoint,
    k_dK,
    k_diagonal_part,
    k_diagonal_range,
    k_mul,
    k_rho,
    k_scale,
    k_zero,
)
from .scalars import Scalar
from .sparse import ScalarMatrix
from .ulc import ulc_eval, ulc_mul, ulc_shift


@dataclass(frozen=True, eq=False)
class BdtElement:
    symbol: BdElement
    compact: CompactMatrix

    @property
    def S(self) -> Supernatural:
        return self.symbol.S

    @property
    def is_exact(self) -> bool:
        return self.symbol.is_exact and self.compact.is_exact

    def is_zero(self) -> bool:
        return self.symbol.is_zero() and self.compact.is_zero()

    def __repr__(self) -> str:
        return f"BdtElement(bands={sorted(self.symbol.bands)}, compact={len(self.compact.entries)})"


def bdt(symbol: BdElement, compact: CompactMatrix | None = None) -> BdtElement:
    return BdtElement(symbol, compact if compact is not None else k_zero())


def toeplitz(b: BdElement) -> BdtElement:
    """The Toeplitz lift T(b); tau(toeplitz(b)) = b."""
    return BdtElement(b, k_zero())


def tau(a: BdtElement) -> BdElement:
    """The quotient map onto the band algebra (kernel = compacts)."""
    return a.symbol


def bdt_from_compact(S: Supernatural, c: CompactMatrix) -> BdtElement:
    return BdtElement(bd_zero(S), c)


def bdt_one(S: Supernatural) -> BdtElement:
    return BdtElement(bd_one(S), k_zero())


def bdt_u(S: Supernatural, n: int = 1) -> BdtElement:
    """U^n for n >= 0, (U^*)^{-n} for n < 0."""
    return toeplitz(bd_v(S, n))


def bdt_add(a1: BdtElement, a2: BdtElement) -> BdtElement:
    return BdtElement(bd_add(a1.symbol, a2.symbol), k_add(a1.compact, a2.compact))


def bdt_scale(z, a: BdtElement) -> BdtElement:
    return BdtElement(bd_scale(z, a.symbol), k_scale(z, a.compact))


def bdt_adjoint(a: BdtElement) -> BdtElement:
    """(T(b) + c)^* = T(b^*) + c^* since T commutes with adjoints."""
    return BdtElement(bd_adjoint(a.symbol), k_adjoint(a.compact))


def correction(b1: BdElement, b2: BdElement) -> CompactMatrix:
    """T(b1) T(b2) - T(b1 b2) as an exact finite-support matrix.

    Only pairs (band n >= 1 of b1) x (band m <= -1 of b2) contribute: with
    q = -m and h = f_n * (g_m o phi^q), reducing U^n M_h (U^*)^q emits
    -h(-j) P_{n-j, q-j} for j = 1..min(n, q)."""
    ent: dict[tuple[int, int], Scalar] = {}
    for n, f in b1.bands.items():
        if n < 1:
            continue
        for m, g in b2.bands.items():
            if m > -1:
                continue
            q = -m
            h = ulc_mul(f, ulc_shift(g, q))
            for j in range(1, min(n, q) + 1):
                key = (n - j, q - j)
                v = -ulc_eval(h, -j)
                if key in ent:
                    ent[key] = ent[key] + v
                else:
                    ent[key] = v
    return CompactMatrix(ent)


def toeplitz_times_compact(b: BdElement, c: CompactMatrix) -> CompactMatrix:
    """T(b) c, exact: T(b)[k, s] = f_{k-s}(s) against the finite support."""
    ent: dict[tuple[int, int], Scalar] = {}
    for (s, t), v in c.entries.items():
        for n, f in b.bands.items():
            k = s + n
            if k < 0:
                continue
            w = ulc_eval(f, s) * v
            if not w.is_zero():
                key = (k, t)
                ent[key] = ent[key] + w if key in ent else w
    return CompactMatrix(ent)


def compact_times_toeplitz(c: CompactMatrix, b: BdElement) -> CompactMatrix:
    """c T(b), exact."""
    ent: dict[tuple[int, int], Scalar] = {}
    for (k, s), v in c.entries.items():
        for n, f in b.bands.items():
            t = s - n
            if t < 0:
                continue
            w = v * ulc_eval(f, t)
            if not w.is_zero():
                key = (k, t)
                ent[key] = ent[key] + w if key in ent else w
    return CompactMatrix(ent)


def bdt_mul_compact(a1: BdtElement, a2: BdtElement) -> CompactMatrix:
    """The compact part of the product a1 a2, exact."""
    b1, c1 = a1.symbol, a1.compact
    b2, c2 = a2.symbol, a2.compact
    comp = correction(b1, b2)
    comp = k_add(comp, toeplitz_times_compact(b1, c2))
    comp = k_add(comp, compact_times_toeplitz(c1, b2))
    return k_add(comp, k_mul(c1, c2))


def bdt_mul(a1: BdtElement, a2: BdtElement) -> BdtElement:
    """Exact product in canonical form."""
    return BdtElement(bd_mul(a1.symbol, a2.symbol), bdt_mul_compact(a1, a2))


def bdt_dK(a: BdtElement) -> BdtElement:
    """d_K acts as T(delta_L b) on the Toeplitz part and as [K, c] on the rest."""
    return BdtElement(bd_delta_L(a.symbol), k_dK(a.compact))


def bdt_fourier(a: BdtElement, n: int) -> BdtElement:
    """n-th Fourier component: T of the n-th band plus the n-th diagonal of c."""
    return BdtElement(bd_element(a.S, {n: bd_fourier(a.symbol, n)}),
                      k_diagonal_part(a.compact, n))


def bdt_rho(a: BdtElement, theta) -> BdtElement:
    return BdtElement(bd_rho(a.symbol, theta), k_rho(a.compact, theta))


def bdt_component_range(a: BdtElement) -> int:
    """Largest |n| with a nonzero Fourier component."""
    return max(a.symbol.bandwidth, k_diagonal_range(a.compact))


def bdt_truncate(a: BdtElement, N: int) -> ScalarMatrix:
    """The N x N corner: entry (k, s) = f_{k-s}(s) plus the compact entry."""
    if N < 1:
        raise ValueError("N must be positive")
    window = range(N)
    return bd_apply(a.symbol, window).add(a.compact.restrict(window, window))


def bdt_window_numpy(a: BdtElement, N: int) -> np.ndarray:
    """The N x N corner as a dense complex matrix."""
    out = np.zeros((N, N), dtype=complex)
    for n, vals in bd_band_values(a.symbol, np.arange(N)).items():
        s = np.arange(max(0, -n), min(N, N - n))
        out[s + n, s] += vals[s]
    for (k, s), v in a.compact.entries.items():
        if k < N and s < N:
            out[k, s] += v.to_complex()
    return out


def bdt_equal(a1: BdtElement, a2: BdtElement) -> bool:
    return bd_equal(a1.symbol, a2.symbol) and a1.compact.equal(a2.compact)


def bdt_is_selfadjoint(a: BdtElement) -> bool:
    return bdt_equal(a, bdt_adjoint(a))
