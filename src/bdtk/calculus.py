"""Certified approximate inversion, exponentials and smooth functional
calculus.

Approximate operations return a CertifiedElement carrying a residual bound in
operator norm.  Inverses are verified a posteriori: from a candidate x with
r = ||a x - 1|| < 1 (and the mirror-image bound) one gets
||a^{-1} - x|| <= ||x|| r / (1 - r).  The candidates stay numpy band rows
until one is returned.  The banded defect is formed in double precision from
the exact b and the float candidate by the band rule, and bounded by the sum
of its band sups plus the rounding bound rho of forming it (_norm_bound), or
by a certified symbol norm when that sum exceeds the tolerance and two or
more bands are nonzero.  Each symbol is inverted once, by _invert_symbol,
whose bounds on ||b~|| and ||b b~ - 1|| bdt_invert reuses.  Exponentials
are built on the symbol side (pointwise spectral exponential on a
roots-of-unity grid, inverse DFT to bands) with a grid-doubling plus band-tail
residual estimate; power-series and block oracles in the test suite keep
those estimates honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .arith import Supernatural, INF
from .bd import (
    BdElement,
    bd_band_values,
    bd_delta_L_power,
    bd_element,
    bd_is_selfadjoint,
    bd_one,
    bd_p_norm,
    bd_scale,
    bd_symbol,
    bd_zero,
)
from .bdt import (
    BdtElement,
    bdt,
    bdt_add,
    bdt_is_selfadjoint,
    bdt_mul_compact,
    bdt_one,
    bdt_scale,
    bdt_window_numpy,
    compact_times_toeplitz,
    correction,
    toeplitz,
)
from .compact import CompactMatrix, k_add, k_dK_power, k_mn_norm, k_zero
from .errors import NotInvertibleError, ToleranceUnreachableError
from .scalars import Scalar
from .ulc import UlcFunction, ulc, ulc_shift, ulc_sup_norm

_DEFAULT_S = Supernatural({2: INF})
_U = 2.0 ** -53  # unit roundoff of IEEE double


@dataclass(frozen=True)
class CertifiedElement:
    """An approximate element plus a bound on its operator-norm distance to
    the exact target, and the method that produced it."""

    value: object  # BdElement or BdtElement
    residual_bound: float
    method: str


def _expi(H: np.ndarray) -> np.ndarray:
    """e^{iH} by eigendecomposition, for one Hermitian matrix or a stack.

    A matmul, not an einsum, so that the dense corners of bdt_exp go through
    BLAS; V is scaled in place to hold one stack-sized temporary fewer."""
    w, V = np.linalg.eigh(H)
    Vh = V.conj().swapaxes(-1, -2)
    V *= np.exp(1j * w)[..., None, :]
    return V @ Vh


def _grid_candidate(samples: np.ndarray, max_band: int,
                    drop: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Read the bands |n| <= max_band back from a (G, l, l) stack of samples at
    G equispaced angles, dropping those whose sup norm is at most drop;
    returns the kept band indices, their (k, l) value rows and the dropped
    sup-norm mass."""
    ns, values = bloch.symbol_samples_to_bands(samples, max_band)
    sups = np.abs(values).max(axis=1)
    low = sups <= drop
    dropped = 0.0
    # left to right in n: np.sum pairs the terms, and sum() compensates on 3.12+
    for sup in sups[low].tolist():
        dropped += sup
    return ns[~low], values[~low], dropped


def _candidate_grid(max_band: int, l: int) -> int:
    """How many angles the candidates of bd_invert and bd_exp sample: enough
    that reading bands |n| <= max_band of period l back does not alias."""
    return bloch.grid_size(256, 8 * (max_band // l + 2))


def _min_periods(rows: np.ndarray) -> np.ndarray:
    """The least period of each row of a (k, l) array: the least d dividing l
    with row[r] == row[r mod d] for every r, the period ulc keeps."""
    k, l = rows.shape
    periods = np.full(k, l)
    for d in range(l - 1, 0, -1):  # downwards, so the least period is set last
        if l % d == 0:
            periods[(rows == rows[:, np.arange(l) % d]).all(axis=1)] = d
    return periods


def _wrap(S: Supernatural, ns: np.ndarray, rows: np.ndarray) -> BdElement:
    """The band element with band ns[i] = rows[i]: the only place a candidate
    becomes Scalars, one float-tagged Scalar per value of each least period."""
    return bd_element(S, {n: UlcFunction(d, tuple(map(Scalar.from_complex, row[:d].tolist())))
                          for n, row, d in zip(ns.tolist(), rows, _min_periods(rows).tolist())})


def _sup_sum(rows: np.ndarray) -> float:
    """sum_n sup|rows[n]| over the rows of a (k, l) array, rounded up: each
    computed sup is within one ulp (hypot), and fsum rounds once."""
    return math.fsum(np.abs(rows).max(axis=1, initial=0.0).tolist()) * (1.0 + 4.0 * _U)


def _defect_rows(b_rows: dict[int, np.ndarray], ns: np.ndarray, rows: np.ndarray,
                 b_first: bool) -> tuple[dict[int, np.ndarray], float]:
    """The band rows of b x - 1 (b_first) or x b - 1, for b with the rows
    b_rows = {n: f_n} and x = sum_i V^{ns[i]} m_{rows[i]}, all over one period
    l; and rho >= sum_k sup|computed band k - exact band k|.

    The band rule (V^n m_f)(V^m m_g) = V^{n+m} m_{(f o phi^m) g} takes one
    gather per band of b.  Each entry sums at most K = len(b_rows) complex
    products, then subtracts the 1, so its error is at most
    sqrt(2) gamma_{K+2} (sum |f||g| + 1), gamma_k = k u / (1 - k u) for the
    unit roundoff u (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 3.1 and 3.6; the bound holds with FMA too).  Two more units
    of u let each factor carry the relative error u of its conversion to
    double, which holds for float-tagged and Gaussian-rational values.
    Summed over the bands this is
    rho = sqrt(2) gamma_{K+4} (sum_n sup|f_n| sum_i sup|rows_i| + 1)."""
    l = rows.shape[1]
    r = np.arange(l)
    lo = min(0, min(b_rows) + int(ns.min(initial=0)))
    hi = max(0, max(b_rows) + int(ns.max(initial=0)))
    out = np.zeros((hi - lo + 1, l), dtype=complex)
    for n, f in b_rows.items():
        if b_first:
            out[ns + n - lo] += f[(ns[:, None] + r) % l] * rows
        else:
            out[ns + n - lo] += rows[:, (n + r) % l] * f
    out[-lo] -= 1.0
    mass = sum(float(np.abs(f).max()) for f in b_rows.values()) * _sup_sum(rows)
    ku = (len(b_rows) + 4) * _U
    rho = math.sqrt(2.0) * ku / (1.0 - ku) * (mass + 1.0)
    return {k + lo: row for k, row in enumerate(out)}, rho


def _norm_bound(rows: dict[int, np.ndarray], tol: float, rho: float = 0.0) -> float:
    """An upper bound on ||x||, x = sum_n V^n m_{f_n} the exact element whose
    band rows rows = {n: f_n} were computed within rho (sum over the bands of
    the sup errors).

    ||V^n m_f|| = sup|f|, so s = sum_n sup|f_n| + rho >= ||x|| by the triangle
    inequality, and s is returned when s <= tol or when one band is nonzero
    (then s is the norm, up to rho and rounding).  Otherwise the norm of the
    rows, on the symbol at the lcm of their least periods, is certified
    within tol, and that value plus tol plus rho is returned."""
    rows = {n: f for n, f in rows.items() if f.any()}
    if not rows:
        return rho
    stack = np.array(list(rows.values()))
    s = (_sup_sum(stack) + rho) * (1.0 + 2.0 * _U)
    if s <= tol or len(rows) == 1:
        return s
    l = math.lcm(*_min_periods(stack).tolist())
    sym = bloch.symbol_from_bands(l, {n: f[:l] for n, f in rows.items()})
    return bloch.certified_sup_smax(sym, tol) + tol + rho


def _dense_to_compact(M: np.ndarray, rows, cols, floor: float) -> CompactMatrix:
    """The compact matrix with entry (rows[i], cols[j]) = M[i, j] wherever
    |M[i, j]| > floor, entered in row-major order."""
    ii, jj = np.nonzero(np.abs(M[:len(rows), :len(cols)]) > floor)
    return CompactMatrix({(rows[i], cols[j]): Scalar.from_complex(M[i, j])
                          for i, j in zip(ii, jj)})


def _invert_symbol(b: BdElement, tol: float, budgets):
    """The first candidate inverse of b within tol over the band budgets, with
    upper bounds on ||b~|| and on r = ||b b~ - 1||, and the band rows of b
    and b~ over b's period (None for an exact monomial, whose defects are 0).

    The symbol is built and its invertibility certified once; each budget
    max_band inverts it on a roots-of-unity grid and reads back bands
    |n| <= max_band.  The defect b b~ - 1 is formed in double precision from
    the exact b and the float b~ and bounded by _norm_bound, giving
    ||b^{-1} - b~|| <= ||b~|| r / (1 - r)."""
    if b.is_zero():
        raise NotInvertibleError("zero element")
    if len(b.bands) == 1 and b.is_exact:
        # exact monomial inverse: (V^n m_f)^{-1} = V^{-n} m_{1/(f o phi^{-n})}
        ((n, f),) = b.bands.items()
        if all(not v.is_zero() for v in f.values):
            x = bd_element(b.S, {-n: ulc([v.inverse() for v in ulc_shift(f, -n).values])})
            nrm = _norm_bound(bd_band_values(x, np.arange(b.period)), 1e-8)
            return CertifiedElement(x, 0.0, "exact-monomial-inverse"), nrm, 0.0, None
    sym = bd_symbol(b)
    bloch.det_winding(sym)  # certifies invertibility; the count is not needed
    l = b.period
    b_rows = bd_band_values(b, np.arange(l))
    for max_band in budgets:
        G = _candidate_grid(max_band, l)
        samples = np.linalg.inv(sym.at_many(np.arange(G) / G))
        ns, rows, _ = _grid_candidate(samples, max_band, tol / (4.0 * max_band))
        nrm = _norm_bound(dict(zip(ns.tolist(), rows)), 1e-8)
        # the certificate floor is ||cand|| * (defect-norm tolerance), so the
        # tolerance must shrink with the candidate's size
        norm_tol = max(min(tol, 1e-9) / (8.0 * max(1.0, nrm)), 1e-15)
        defect, rho = _defect_rows(b_rows, ns, rows, True)
        r = _norm_bound(defect, norm_tol, rho)
        bound = nrm * r / (1.0 - r) if r < 1.0 else math.inf
        if bound <= tol:
            cert = CertifiedElement(_wrap(b.S, ns, rows), bound, "bloch-symbol-inverse")
            return cert, nrm, r, (b_rows, ns, rows)
    raise ToleranceUnreachableError(
        f"residual bound {bound} (defect norm {r}) above tol {tol} at max_band {max_band}"
    )


def bd_invert(b: BdElement, tol: float, max_band: int) -> CertifiedElement:
    """Certified approximate inverse of an invertible band element: the
    candidate of _invert_symbol at the one band budget max_band."""
    bloch.check_tol(tol)
    if max_band < 1:
        raise ValueError("max_band must be positive")
    return _invert_symbol(b, tol, [max_band])[0]


def bdt_invert(a: BdtElement, tol: float, sizes) -> CertifiedElement:
    """Certified inverse in canonical form T(b^{-1}) + c~.

    b~ comes from _invert_symbol at band budgets m, 2m and 4m, with its bounds
    on ||b~|| and on the banded part b b~ - 1 of the right defect; the left
    one, b~ b - 1, is formed the same way here (an exact monomial inverse has
    neither).  The compact part solves truncated linear systems A_N u = k_fin
    column by column on the growing schedule, where
    k_fin = correction(b, b~) + c T(b~) is the exactly computed finite defect
    of T(b~), and the finite compact parts of the defects are bounded by
    computed norms; r >= 1 on the full schedule means the element is not
    invertible (e.g. a nonzero Fredholm index)."""
    sizes = list(sizes)
    bloch.check_tol(tol)
    if not sizes:
        raise ValueError("need at least one truncation size")
    if min(sizes) < 1:
        raise ValueError(f"truncation sizes must be >= 1, got {min(sizes)}")
    b, c = a.symbol, a.compact
    m = max(8, 4 * b.bandwidth + 8)
    try:
        sym_cert, binv_norm, right_norm, parts = _invert_symbol(
            b, min(tol, 1e-8) / 4.0, [m, 2 * m, 4 * m])
    except ToleranceUnreachableError as e:
        raise ToleranceUnreachableError("symbol inverse did not reach tolerance") from e
    binv = sym_cert.value

    k_fin = k_add(correction(b, binv), compact_times_toeplitz(c, binv))
    cols = sorted({s for (_, s) in k_fin.entries})
    # the symbols of a x and x a are b b~ and b~ b at every truncation size,
    # so both banded defects are bounded once
    norm_tol = max(min(tol, 1e-9) / 8.0, 1e-14)
    left_norm = 0.0
    if parts:
        defect, rho = _defect_rows(*parts, False)
        left_norm = _norm_bound(defect, norm_tol, rho)

    best = None
    for N in sizes:
        ctilde = k_zero()
        if cols:
            A_N = bdt_window_numpy(a, N)
            rhs = k_fin.to_numpy(range(N), range(cols[-1] + 1))[:, cols]
            sol, *_ = np.linalg.lstsq(A_N, rhs, rcond=None)
            keep = N - 2 * max(b.bandwidth, 1)
            ctilde = _dense_to_compact(-sol, range(keep), cols, 1e-15)
        x = bdt(binv, ctilde)
        # ||a x - 1|| <= certified banded part + norm of the finite compact part
        r = max(right_norm + bdt_mul_compact(a, x).smax(),
                left_norm + bdt_mul_compact(x, a).smax())
        if r < 1.0:
            bound = (binv_norm + ctilde.smax()) * r / (1.0 - r)
            if bound <= tol:
                return CertifiedElement(x, bound, "symbol-inverse+truncated-solve")
            best = bound if best is None else min(best, bound)
    if best is not None:
        raise ToleranceUnreachableError(f"best certified bound {best} above tol {tol}")
    raise NotInvertibleError("one-sided defect stayed >= 1 across the schedule")


def exp_band_reach(b: BdElement) -> int:
    """Band index beyond which the exponential's coefficients are negligible.

    The Laurent coefficients of e^{iB(z)} decay like (e C W / n)^{n/W} with
    W the bandwidth and C the total coefficient mass, so reach ~ W(eC + 40).
    A mass past double range raises ValueError."""
    C = sum(ulc_sup_norm(f) for f in b.bands.values())
    reach = max(b.bandwidth, 1) * (math.e * C + 40.0)
    if not math.isfinite(reach):
        raise ValueError(f"coefficient mass {C} overflows the band reach")
    return int(reach) + 8


def bd_exp(b: BdElement, tol: float, max_band: int) -> CertifiedElement:
    """Certified e^{ib} for self-adjoint b.

    The Hermitian symbol is exponentiated pointwise by eigendecomposition on a
    roots-of-unity grid; bands are read off by inverse DFT and truncated.  The
    residual estimate compares the bands read from G and 2G angles and adds
    the dropped band tail."""
    bloch.check_tol(tol)
    if max_band < 1:
        raise ValueError("max_band must be positive")
    if not bd_is_selfadjoint(b):
        raise ValueError("bd_exp needs a self-adjoint element")
    S, l = b.S, b.period
    if b.is_zero():
        return CertifiedElement(bd_one(S), 0.0, "exact")
    sym = bd_symbol(b)
    G = _candidate_grid(max_band, l)
    drop = tol / (4.0 * max_band + 4.0)
    norm_tol = max(tol / 16.0, 1e-14)
    # (2k)/(2G) is the same double as k/G: the even samples are the G-point grid
    fine = _expi(sym.at_many(np.arange(2 * G) / (2 * G)))
    ns1, rows1, dropped = _grid_candidate(fine[::2], max_band, drop)
    ns2, rows2, dropped2 = _grid_candidate(fine, max_band, drop)
    # cand - cand2 on bands -max_band..max_band; each difference is rounded
    # once, so its exact modulus is within 2u of the computed one
    diff = np.zeros((2 * max_band + 1, l), dtype=complex)
    diff[ns1 + max_band] = rows1
    diff[ns2 + max_band] -= rows2
    diff_norm = _norm_bound(dict(zip(range(-max_band, max_band + 1), diff)), norm_tol,
                            2.0 * _U * _sup_sum(diff))
    residual = 3.0 * diff_norm + 2.0 * (dropped + dropped2) + 1e-13
    # mass still present in the outermost band shell means the cutoff is
    # active and the uncomputed tail cannot be ignored
    if ns2.size:
        W = max(b.bandwidth, 1)
        maxn = int(np.abs(ns2).max())
        if maxn >= max_band - W:
            shell = sum(np.abs(rows2[np.abs(ns2) > maxn - W]).max(axis=1).tolist())
            residual += 4.0 * shell
    if residual > tol:
        raise ToleranceUnreachableError(f"exp residual estimate {residual} above tol {tol}")
    return CertifiedElement(_wrap(S, ns2, rows2), residual, "bloch-grid-exp")


def k_exp(c: CompactMatrix, S: Supernatural | None = None) -> BdtElement:
    """e^{ic} for self-adjoint compact c: identity plus a finite block.

    The block exponential is exact to float precision; the ambient S only
    labels the unit symbol (default 2^infinity)."""
    S = S or _DEFAULT_S
    if not c.equal(c.adjoint()):
        raise ValueError("k_exp needs a self-adjoint matrix")
    if c.is_zero():
        return bdt_one(S)
    W = range(c.support_bound())
    eblock = _expi(c.to_numpy(W, W)) - np.eye(len(W))
    return bdt(bd_one(S), _dense_to_compact(eblock, W, W, 1e-16))


def bdt_exp(a: BdtElement, scale: float, tol: float) -> tuple[BdtElement, float]:
    """e^{i scale a} = T(e^{i scale b}) + compact, with a residual estimate.

    The symbol factor comes from bd_exp; the compact difference is extracted
    from dense exponentials of growing truncations.  The corner window adapts
    until the mass outside it (Frobenius bound) is negligible, and the
    difference of two truncation sizes on the common corner estimates the
    boundary error."""
    b, c = a.symbol, a.compact
    sb = bd_scale(scale, b)
    ecert = bd_exp(sb, tol / 4.0, max_band=exp_band_reach(sb))
    esym = ecert.value

    def corner(N: int) -> np.ndarray:
        A = bdt_window_numpy(a, N) * scale
        return _expi((A + A.conj().T) / 2.0) - bdt_window_numpy(toeplitz(esym), N)

    reach = max(abs(n) for n in esym.bands) if esym.bands else 1
    N = max(2 * (c.support_bound() + 2 * reach + 16), 192)
    residual = np.inf
    for _ in range(4):
        K1 = corner(N)
        K2 = corner(N + 64)
        W = N // 2
        # shrink the corner while the excluded mass stays negligible; the
        # first try W has empty shells, so W_used and off are always set
        for Wtry in range(W, 15, -8):
            mass = float(np.linalg.norm(K2[Wtry:W, :W])) + float(
                np.linalg.norm(K2[:W, Wtry:W])
            )
            if mass > tol / 8.0:
                break
            W_used, off = Wtry, mass
        diff = float(np.linalg.svd(K1[:W_used, :W_used] - K2[:W_used, :W_used],
                                   compute_uv=False)[0])
        residual = 3.0 * diff + 2.0 * off + 1e-12
        if residual <= tol:
            ctilde = _dense_to_compact(K2, range(W_used), range(W_used), 1e-15)
            return bdt(esym, ctilde), ecert.residual_bound + residual
        N *= 2
    raise ToleranceUnreachableError(
        f"compact part of the exponential did not converge (estimate {residual})"
    )


def smooth_calc(a: BdtElement, fourier_coeffs: dict[int, complex], L, tol: float,
                tail_bound: float = 0.0) -> CertifiedElement:
    """f(a) = sum_n f_n e^{2 pi i n a / L} for self-adjoint a and finitely
    supported coefficients; the caller supplies the tail bound of the series
    it truncated, which is added to the certificate."""
    bloch.check_tol(tol)
    if not (math.isfinite(L) and L != 0):
        raise ValueError(f"L must be finite and nonzero, got {L}")
    if not (math.isfinite(tail_bound) and tail_bound >= 0):
        raise ValueError(f"tail_bound must be finite and >= 0, got {tail_bound}")
    if not bdt_is_selfadjoint(a):
        raise ValueError("smooth_calc needs a self-adjoint element")
    coeffs = {int(n): complex(v) for n, v in fourier_coeffs.items() if complex(v) != 0}
    if not coeffs:
        return CertifiedElement(bdt(bd_zero(a.S)), tail_bound, "fourier-sum")
    total_mass = sum(abs(v) for v in coeffs.values())
    budget = tol - tail_bound
    if budget <= 0:
        raise ToleranceUnreachableError("tail bound exhausts the tolerance")
    per_term = budget / (2.0 * total_mass)
    acc = None
    cert = tail_bound
    for n, fn in sorted(coeffs.items()):
        if n == 0:
            term, res = bdt_scale(fn, bdt_one(a.S)), 0.0
        else:
            e, res = bdt_exp(a, 2.0 * math.pi * n / float(L), per_term)
            term = bdt_scale(fn, e)
        cert += abs(fn) * res
        acc = term if acc is None else bdt_add(acc, term)
    if cert > tol:
        raise ToleranceUnreachableError(f"accumulated certificate {cert} above tol {tol}")
    return CertifiedElement(acc, cert, "fourier-sum")


@dataclass(frozen=True)
class BoundCheck:
    lhs_lower: float
    rhs: float
    passed: bool
    certificate: float


def check_exp_bound_b(b: BdElement, M: int) -> BoundCheck:
    """Check ||e^{ib}||_M <= prod_{j=1..M} (1 + ||b||_j)^{2^{M-j}}.

    The left side is a grid lower bound of the P-norm of the certified
    exponential; a failure would falsify the implementation, not the
    estimate.  The exponential is certified to 1e-6, the norms to 1e-8."""
    if not bd_is_selfadjoint(b):
        raise ValueError("needs a self-adjoint element")
    norm_tol = 1e-8
    cert = bd_exp(b, 1e-6, max_band=exp_band_reach(b))
    lhs = _p_norm_grid_lower(cert.value, M)
    rhs = 1.0
    for j in range(1, M + 1):
        rhs *= (1.0 + bd_p_norm(b, j, norm_tol)) ** (2 ** (M - j))
    # delta_L^j amplifies the approximation error by up to (max band)^j
    maxn = max((abs(n) for n in cert.value.bands), default=0)
    certificate = (
        cert.residual_bound * 4.0 * (1.0 + maxn) ** M
        + norm_tol * (2 ** (M + 1)) * max(1.0, rhs)
    )
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-6 + certificate, certificate)


def _p_norm_grid_lower(b: BdElement, M: int) -> float:
    """Grid (hence lower-bound) evaluation of the P-norm for band-rich
    elements where the full certification is unnecessary."""
    total = 0.0
    for j in range(M + 1):
        x = bd_delta_L_power(b, j)
        if x.is_zero():
            continue
        sym = bd_symbol(x)
        G = bloch.grid_size(256, 4 * (2 * sym.wrap_degree() + 1))
        s = np.linalg.svd(sym.at_many(np.arange(G) / G), compute_uv=False)[:, 0]
        total += math.comb(M, j) * float(s.max())
    return total


def check_exp_bound_c(c: CompactMatrix, M: int) -> BoundCheck:
    """Check ||e^{ic}||_{M,0} <= prod_{j=1..M} (1 + ||c||_{j,0})^{2^{M-j}}
    (everything here is a finite computation, compared within 1e-9)."""
    e = k_exp(c)
    k = e.compact  # e^{ic} = 1 + k
    W = max(k.support_bound(), 1)
    block = k.to_numpy(range(W), range(W)) + np.eye(W)
    lhs = max(1.0, float(np.linalg.svd(block, compute_uv=False)[0]))
    for j in range(1, M + 1):
        lhs_term = k_dK_power(k, j)
        lhs += math.comb(M, j) * lhs_term.smax()
    rhs = 1.0
    for j in range(1, M + 1):
        rhs *= (1.0 + k_mn_norm(c, j, 0)) ** (2 ** (M - j))
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-9, 1e-9)
