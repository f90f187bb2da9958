"""Fredholm index from the certified symbol, cross-checked on truncations,
and small K-theoretic demonstrations.

With period l the half line starts on a block boundary, so T(b) is the block
Toeplitz operator with the l x l symbol B(z), and a compact c does not change
the index: ind(T(b) + c) = -wind det B (Gohberg-Krein; Boettcher &
Silbermann, Analysis of Toeplitz Operators, 2nd ed. 2006, ch. 6).  One call
of bloch.det_winding answers both questions from one root census of
z^(-a) det B(z), [a, b] the band span of B: no root near the circle certifies
that B is invertible there (otherwise a is not Fredholm), and the roots
inside it, plus a, give the winding number.

Kernel and cokernel dimensions counted from singular values of rectangular
corners cross-check that count: for a band-plus-finite operator, the
[0, N + pad) x [0, N) corner annihilates exactly the finitely supported
kernel vectors and nearly annihilates the rapidly decaying ones, while
avoiding the spurious right-edge kernel of square truncations.  The same
corner of a^* is the adjoint of the [0, N) x [0, N + pad) corner of a, with
the same singular values, so one (N + pad)-square window of a serves both
counts.  The sizes are
tried in ascending order until three consecutive ones agree with the count
with a clean singular-value gap."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bloch
from .arith import Supernatural, gs_contains, embed_int, sn_divisors_upto
from .bd import BdElement, bd_symbol
from .bdt import (
    BdtElement,
    bdt_add,
    bdt_adjoint,
    bdt_equal,
    bdt_from_compact,
    bdt_mul,
    bdt_one,
    bdt_u,
    bdt_window_numpy,
    tau,
)
from .compact import k_units
from .errors import NotFredholmError, NotInvertibleError, UnstableIndexError

SVD_THRESHOLD = 1e-8  # singular values below this count towards a kernel


@dataclass(frozen=True)
class IndexResult:
    index: int
    kernel_dims: tuple[tuple[int, int, int], ...]  # (N, dim ker, dim coker)
    stabilized: bool


def _near_kernel_count(M: np.ndarray) -> tuple[int, float]:
    """(count of singular values below SVD_THRESHOLD, gap ratio) for the
    rectangular corner M."""
    s = np.linalg.svd(M, compute_uv=False)
    zeros = s[s < SVD_THRESHOLD]
    nonzeros = s[s >= SVD_THRESHOLD]
    count = int(len(zeros))
    if count == 0:
        return 0, np.inf
    largest_zero = float(zeros.max())
    smallest_nonzero = float(nonzeros.min()) if len(nonzeros) else np.inf
    ratio = smallest_nonzero / max(largest_zero, 1e-300)
    return count, ratio


def fredholm_index(a: BdtElement, schedule=(64, 128, 256, 512)) -> IndexResult:
    """ind a = -wind det B, certified from the symbol and cross-checked on
    the truncation schedule.

    NotFredholmError when the symbol is not certified invertible on the
    circle.  ValueError unless the schedule has at least three distinct
    sizes, all >= 1.  The sizes are tried in ascending order: kernel and
    cokernel dimensions count the singular values below SVD_THRESHOLD (1e-8)
    of rectangular corners, and the result is returned once three
    consecutive sizes give dim ker - dim coker equal to the certified index,
    each with a singular-value gap ratio of at least 1e3.  kernel_dims lists
    the sizes tried.  UnstableIndexError when the schedule runs out first."""
    schedule = sorted(set(int(n) for n in schedule))
    if len(schedule) < 3:
        raise ValueError("schedule needs at least three sizes")
    if schedule[0] < 1:
        raise ValueError(f"truncation sizes must be >= 1, got {schedule[0]}")
    b = tau(a)
    if b.is_zero():
        raise NotFredholmError("symbol is zero")
    try:
        index = -bloch.det_winding(bd_symbol(b))
    except NotInvertibleError as exc:
        raise NotFredholmError(str(exc)) from exc
    pad = max(b.bandwidth, 1) + a.compact.support_bound()
    dims = []
    confirmed = 0
    for N in schedule:
        M = bdt_window_numpy(a, N + pad)
        ker, gap1 = _near_kernel_count(M[:, :N])
        coker, gap2 = _near_kernel_count(M[:N, :])
        dims.append((N, ker, coker))
        confirmed = confirmed + 1 if ker - coker == index and min(gap1, gap2) >= 1e3 else 0
        if confirmed == 3:
            return IndexResult(index, tuple(dims), True)
    raise UnstableIndexError(f"truncation counts {dims} do not confirm the index {index}")


def winding(b: BdElement) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0;
    NotInvertibleError when B is not certified invertible on the circle."""
    return bloch.det_winding(bd_symbol(b))


def k0_demo(S: Supernatural) -> dict:
    """Structured report: G_S membership table, the index of the shift
    generator, index additivity on demo pairs, and the finite-level
    quotient demonstration.

    The quotient rows check exactly that T(V)^* T(V) = 1 and
    T(V) T(V)^* + e_00 = 1, which make [e_00] = 0, and so k [e_00] = 0 for
    every integer k, in K_0 of the Toeplitz algebra."""
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
    v = bdt_u(S, 1)
    v_star = bdt_adjoint(v)
    one = bdt_one(S)
    trivial = (bdt_equal(bdt_mul(v_star, v), one)
               and bdt_equal(bdt_add(bdt_mul(v, v_star), bdt_from_compact(S, k_units(0, 0))), one))
    quotient = [
        {"k": k, "residue": embed_int(k, level).value, "trivial_in_quotient": trivial}
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
