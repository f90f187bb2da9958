"""Independent oracles used by the tests: truncated-window linear algebra,
roots-of-unity quadrature of derivation components, power-series summation
and phase accumulation of det B, kept apart from the library's own
computation paths."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from bdtk.bd import (
    BdElement,
    bd_add,
    bd_element,
    bd_mul,
    bd_one,
    bd_scale,
    bd_sup_coefficient_norm,
)
from bdtk.bdt import BdtElement, bdt_add, bdt_rho, bdt_scale, bdt_truncate, toeplitz
from bdtk.bloch import SymbolMatrix
from bdtk.scalars import Scalar
from bdtk.sparse import ScalarMatrix
from bdtk.ulc import ulc_eval


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
    ||b||)."""
    S = b.S
    nrm = bd_sup_coefficient_norm(b) * (2 * b.bandwidth + 1)
    if terms is None:
        terms = max(24, int(3 * nrm) + 20)
    ib = bd_scale(Scalar.from_complex(1j), b)
    acc = bd_one(S)
    term = bd_one(S)
    for k in range(1, terms + 1):
        term = bd_scale(1.0 / k, bd_mul(term, ib))
        acc = bd_add(acc, term)
    tail = nrm ** (terms + 1) / math.factorial(terms + 1) * math.exp(nrm)
    return acc, tail


def det_winding_by_phase(sym: SymbolMatrix) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0, by
    argument accumulation over an equispaced grid, doubled until every phase
    step is below 1.5 rad and the total is within 1e-6 of an integer."""
    G = 1024
    while G < 16 * (sym.wrap_degree() * sym.period + 1):
        G *= 2
    for _ in range(8):
        d = np.linalg.det(sym.at_many(np.arange(G) / G))
        steps = np.angle(np.roll(d, -1) / d)
        total = steps.sum() / (2 * np.pi)
        if np.max(np.abs(steps)) < 1.5 and abs(total - round(total)) < 1e-6:
            return int(round(total))
        G *= 2
    raise AssertionError("phase accumulation did not resolve")
