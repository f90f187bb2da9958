"""Numerical Fredholm index and small K-theoretic demonstrations.

Kernel and cokernel dimensions are counted from singular values of
rectangular corners: for a band-plus-finite operator, the [0, N + pad) x
[0, N) corner annihilates exactly the finitely supported kernel vectors and
nearly annihilates the rapidly decaying ones, while avoiding the spurious
right-edge kernel of square truncations.  The index is reported once the
count stabilizes across the schedule with a clean singular-value gap."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bloch
from .arith import Supernatural, gs_contains, embed_int, sn_divisors_upto
from .bd import BdElement, bd_symbol
from .bdt import BdtElement, bdt_adjoint, bdt_mul, bdt_window_numpy, bdt_u, tau
from .errors import NotFredholmError, NotInvertibleError, UnstableIndexError


@dataclass(frozen=True)
class IndexResult:
    index: int
    kernel_dims: tuple[tuple[int, int, int], ...]  # (N, dim ker, dim coker)
    stabilized: bool


def _near_kernel_count(a: BdtElement, N: int, pad: int, threshold: float) -> tuple[int, float]:
    """(count of singular values below threshold, gap ratio) for the
    rectangular corner of a."""
    M = bdt_window_numpy(a, N + pad, N)
    s = np.linalg.svd(M, compute_uv=False)
    zeros = s[s < threshold]
    nonzeros = s[s >= threshold]
    count = int(len(zeros))
    if count == 0:
        return 0, np.inf
    largest_zero = float(zeros.max())
    smallest_nonzero = float(nonzeros.min()) if len(nonzeros) else np.inf
    ratio = smallest_nonzero / max(largest_zero, 1e-300)
    return count, ratio


def fredholm_index(a: BdtElement, schedule=(64, 128, 256, 512),
                   svd_threshold: float = 1e-8) -> IndexResult:
    """dim ker - dim coker across the truncation schedule.

    Requires the symbol to be invertible (certified on the circle); raises
    UnstableIndexError when the counts do not stabilize over the last three
    sizes or the singular-value gap is too shallow."""
    schedule = sorted(set(int(n) for n in schedule))
    if len(schedule) < 3:
        raise ValueError("schedule needs at least three sizes")
    b = tau(a)
    if b.is_zero():
        raise NotFredholmError("symbol is zero")
    ok, smin = bloch.symbol_invertibility(bd_symbol(b))
    if not ok:
        raise NotFredholmError(f"symbol not invertible (grid sigma_min {smin:.3e})")
    pad = max(b.bandwidth, 1) + a.compact.support_bound()
    astar = bdt_adjoint(a)
    dims = []
    clean = []
    for N in schedule:
        ker, gap1 = _near_kernel_count(a, N, pad, svd_threshold)
        coker, gap2 = _near_kernel_count(astar, N, pad, svd_threshold)
        dims.append((N, ker, coker))
        clean.append(min(gap1, gap2) >= 1e3)
    vals = [k - c for (_, k, c) in dims]
    stable = len(set(vals[-3:])) == 1 and all(clean[-3:])
    result = IndexResult(vals[-1], tuple(dims), stable)
    if not stable:
        raise UnstableIndexError(f"index did not stabilize: {dims}")
    return result


def winding(b: BdElement) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0."""
    sym = bd_symbol(b)
    ok, smin = bloch.symbol_invertibility(sym)
    if not ok:
        raise NotInvertibleError(f"symbol not invertible (grid sigma_min {smin:.3e})")
    return bloch.winding_of_det(sym)


def k0_demo(S: Supernatural) -> dict:
    """Structured report: G_S membership table, the index of the shift
    generator, index additivity on demo pairs, and the finite-level
    quotient demonstration (every embedded integer is trivial mod Z)."""
    samples = [
        Fraction(3, 8), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6),
        Fraction(-7, 4), Fraction(2, 1), Fraction(1, 9), Fraction(11, 12),
    ]
    table = [
        {"q": f"{q.numerator}/{q.denominator}", "member": gs_contains(q, S)}
        for q in samples
    ]
    u_index = fredholm_index(bdt_u(S, 1)).index
    pairs = [(1, 1), (1, -2), (-1, 3)]
    additivity = []
    for n, m in pairs:
        i1 = fredholm_index(bdt_u(S, n)).index
        i2 = fredholm_index(bdt_u(S, m)).index
        i12 = fredholm_index(bdt_mul(bdt_u(S, n), bdt_u(S, m))).index
        additivity.append({"n": n, "m": m, "ind_a1": i1, "ind_a2": i2,
                           "ind_product": i12, "additive": i12 == i1 + i2})
    levels = sn_divisors_upto(S, 16)
    level = levels[-1] if levels else 1
    quotient = [
        {"k": k, "residue": embed_int(k, level).value,
         "trivial_in_quotient": True}  # integers generate the embedded copy of Z
        for k in (-3, 0, 1, 7, level, level + 2)
    ]
    return {
        "gs_membership": table,
        "index_of_shift_generator": u_index,
        "index_generates_k0_of_compacts": u_index == -1,
        "index_additivity": additivity,
        "quotient_level": level,
        "quotient_demo": quotient,
    }
