"""Certified approximate inversion, exponentials and smooth functional
calculus.

Approximate operations return a CertifiedElement carrying a residual bound in
operator norm.  Inverses are verified a posteriori: from a candidate x with
r = ||a x - 1|| < 1 (and the mirror-image bound) one gets
||a^{-1} - x|| <= ||x|| r / (1 - r), so every reported bound is backed by an
exactly computed defect plus certified symbol norms.  Exponentials are built
on the symbol side (pointwise spectral exponential on a roots-of-unity grid,
inverse DFT to bands) with a grid-doubling plus band-tail residual estimate;
power-series and block oracles in the test suite keep those estimates honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .arith import Supernatural, INF
from .bd import (
    BdElement,
    bd_delta_L_power,
    bd_element,
    bd_is_selfadjoint,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_scale,
    bd_sub,
    bd_symbol,
    bd_zero,
)
from .bdt import (
    BdtElement,
    bdt,
    bdt_add,
    bdt_from_compact,
    bdt_is_selfadjoint,
    bdt_mul,
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
from .ulc import ulc, ulc_shift, ulc_sup_norm

_DEFAULT_S = Supernatural({2: INF})


@dataclass(frozen=True)
class CertifiedElement:
    """An approximate element plus a bound on its operator-norm distance to
    the exact target, and the method that produced it."""

    value: object  # BdElement or BdtElement
    residual_bound: float
    method: str


def _float_bands_to_element(S: Supernatural, l: int, bands: dict[int, np.ndarray],
                            drop_tol: float) -> tuple[BdElement, float]:
    """Assemble a float-tagged element from band value arrays, dropping bands
    below drop_tol; returns the element and the dropped sup-norm mass."""
    kept: dict[int, object] = {}
    dropped = 0.0
    for n, vals in bands.items():
        sup = float(np.max(np.abs(vals)))
        if sup <= drop_tol:
            dropped += sup
            continue
        kept[n] = ulc([Scalar.from_complex(z) for z in vals])
    return bd_element(S, kept), dropped


def bd_invert(b: BdElement, tol: float, max_band: int) -> CertifiedElement:
    """Certified approximate inverse of an invertible band element.

    The Bloch symbol is inverted pointwise on a roots-of-unity grid and
    transformed back to bands truncated at max_band; the residual
    r = ||b b~ - 1|| is computed from the exact band product and a certified
    norm, giving ||b^{-1} - b~|| <= ||b~|| r / (1 - r)."""
    bloch.check_tol(tol)
    if max_band < 1:
        raise ValueError("max_band must be positive")
    if b.is_zero():
        raise NotInvertibleError("zero element")
    if len(b.bands) == 1 and b.is_exact:
        # exact monomial inverse: (V^n m_f)^{-1} = V^{-n} m_{1/(f o phi^{-n})}
        ((n, f),) = b.bands.items()
        if all(not v.is_zero() for v in f.values):
            shifted = ulc_shift(f, -n)
            g = ulc([v.inverse() for v in shifted.values])
            return CertifiedElement(
                bd_element(b.S, {-n: g}), 0.0, "exact-monomial-inverse"
            )
    sym = bd_symbol(b)
    ok, smin = bloch.symbol_invertibility(sym)
    if not ok:
        raise NotInvertibleError(f"symbol singular on the circle (grid sigma_min {smin:.3e})")
    l = b.period
    G = bloch.grid_size(256, 8 * (max_band // l + 2))
    last = None
    drop = tol / (4.0 * max_band)
    for _ in range(4):
        mats = sym.at_many(np.arange(G) / G)
        inv = np.linalg.inv(mats)
        bands = bloch.symbol_samples_to_bands(inv, max_band)
        cand, dropped = _float_bands_to_element(b.S, l, bands, drop)
        nrm = bd_norm(cand, 1e-8) + 1e-8
        # the certificate floor is ||cand|| * (defect-norm tolerance), so the
        # tolerance must shrink with the candidate's size
        norm_tol = max(min(tol, 1e-9) / (8.0 * max(1.0, nrm)), 1e-15)
        defect = bd_sub(bd_mul(b, cand), bd_one(b.S))
        r = (0.0 if defect.is_zero() else bd_norm(defect, norm_tol) + norm_tol)
        if r < 1.0:
            bound = nrm * r / (1.0 - r)
            if bound <= tol:
                return CertifiedElement(cand, bound, "bloch-symbol-inverse")
            last = bound
        G *= 2
        drop /= 8.0
    raise ToleranceUnreachableError(
        f"residual bound {last} above tol {tol} at max_band {max_band}"
    )


def bdt_invert(a: BdtElement, tol: float, sizes) -> CertifiedElement:
    """Certified inverse in canonical form T(b^{-1}) + c~.

    b^{-1} comes from bd_invert; the compact part solves truncated linear
    systems A_N u = k_fin column by column on the growing schedule, where
    k_fin = correction(b, b~) + c T(b~) is the exactly computed finite defect
    of T(b~).  Both one-sided defects are then evaluated exactly and certified;
    r >= 1 on the full schedule means the element is not invertible (e.g. a
    nonzero Fredholm index)."""
    sizes = list(sizes)
    bloch.check_tol(tol)
    if not sizes:
        raise ValueError("need at least one truncation size")
    b, c = a.symbol, a.compact
    max_band = max(8, 4 * b.bandwidth + 8)
    sym_tol = min(tol, 1e-8) / 4.0
    sym_cert = None
    for _ in range(3):
        try:
            sym_cert = bd_invert(b, sym_tol, max_band)
            break
        except ToleranceUnreachableError:
            max_band *= 2
    if sym_cert is None:
        raise ToleranceUnreachableError("symbol inverse did not reach tolerance")
    binv = sym_cert.value

    k_fin = k_add(correction(b, binv), compact_times_toeplitz(c, binv))
    cols = sorted({s for (_, s) in k_fin.entries})
    norm_tol = max(min(tol, 1e-9) / 8.0, 1e-14)
    # the symbols of a x and x a are b b~ and b~ b at every truncation size,
    # so both banded defects are certified once
    right_defect = bd_sub(bd_mul(b, binv), bd_one(b.S))
    left_defect = bd_sub(bd_mul(binv, b), bd_one(b.S))
    right_norm, left_norm = (0.0 if d.is_zero() else bd_norm(d, norm_tol) + norm_tol
                             for d in (right_defect, left_defect))

    best = None
    for N in sizes:
        ctilde = k_zero()
        if cols:
            A_N = bdt_window_numpy(a, N, N)
            rhs = np.zeros((N, len(cols)), dtype=complex)
            for (k, s), v in k_fin.entries.items():
                if k < N:
                    rhs[k, cols.index(s)] = v.to_complex()
            sol, *_ = np.linalg.lstsq(A_N, rhs, rcond=None)
            keep = N - 2 * max(b.bandwidth, 1)
            ent = {}
            for i in range(min(keep, N)):
                for j, scol in enumerate(cols):
                    z = -sol[i, j]
                    if abs(z) > 1e-15:
                        ent[(i, scol)] = Scalar.from_complex(z)
            ctilde = CompactMatrix(ent)
        x = bdt_add(toeplitz(binv), bdt_from_compact(a.S, ctilde))
        # ||a x - 1|| <= certified banded part + norm of the finite compact part
        r = max(right_norm + bdt_mul(a, x).compact.smax(),
                left_norm + bdt_mul(x, a).compact.smax())
        if r < 1.0:
            xnorm = (bd_norm(binv, norm_tol) + norm_tol) + ctilde.smax()
            bound = xnorm * r / (1.0 - r)
            if bound <= tol:
                return CertifiedElement(x, bound, "symbol-inverse+truncated-solve")
            best = bound if best is None else min(best, bound)
    if best is not None:
        raise ToleranceUnreachableError(f"best certified bound {best} above tol {tol}")
    raise NotInvertibleError("one-sided defect stayed >= 1 across the schedule")


def _hermitian_exp_samples(sym: bloch.SymbolMatrix, G: int) -> np.ndarray:
    mats = sym.at_many(np.arange(G) / G)
    w, V = np.linalg.eigh(mats)
    phases = np.exp(1j * w)
    return np.einsum("tij,tj,tkj->tik", V, phases, V.conj())


def exp_band_reach(b: BdElement) -> int:
    """Band index beyond which the exponential's coefficients are negligible.

    The Laurent coefficients of e^{iB(z)} decay like (e C W / n)^{n/W} with
    W the bandwidth and C the total coefficient mass, so reach ~ W(eC + 40)."""
    C = sum(ulc_sup_norm(f) for f in b.bands.values())
    W = max(b.bandwidth, 1)
    return int(W * (math.e * C + 40.0)) + 8


def bd_exp(b: BdElement, tol: float, max_band: int) -> CertifiedElement:
    """Certified e^{ib} for self-adjoint b.

    The Hermitian symbol is exponentiated pointwise by eigendecomposition on a
    roots-of-unity grid; bands are read off by inverse DFT and truncated.  The
    residual estimate compares grids of doubled resolution and adds the
    dropped band tail."""
    bloch.check_tol(tol)
    if not bd_is_selfadjoint(b, tol=1e-12):
        raise ValueError("bd_exp needs a self-adjoint element")
    S, l = b.S, b.period
    if b.is_zero():
        return CertifiedElement(bd_one(S), 0.0, "exact")
    sym = bd_symbol(b)
    G = bloch.grid_size(256, 8 * (max_band // l + 2))
    drop = tol / (4.0 * max_band + 4.0)
    norm_tol = max(tol / 16.0, 1e-14)
    for _ in range(3):
        cand, dropped = _float_bands_to_element(
            S, l, bloch.symbol_samples_to_bands(_hermitian_exp_samples(sym, G), max_band), drop
        )
        cand2, dropped2 = _float_bands_to_element(
            S, l, bloch.symbol_samples_to_bands(_hermitian_exp_samples(sym, 2 * G), max_band), drop
        )
        diff = bd_sub(cand, cand2)
        diff_norm = 0.0 if diff.is_zero() else bd_norm(diff, norm_tol) + norm_tol
        residual = 3.0 * diff_norm + 2.0 * (dropped + dropped2) + 1e-13
        # mass still present in the outermost band shell means the cutoff is
        # active and the uncomputed tail cannot be ignored
        if cand2.bands:
            W = max(b.bandwidth, 1)
            maxn = max(abs(n) for n in cand2.bands)
            if maxn >= max_band - W:
                shell = sum(
                    ulc_sup_norm(f) for n, f in cand2.bands.items() if abs(n) > maxn - W
                )
                residual += 4.0 * shell
        if residual <= tol:
            return CertifiedElement(cand2, residual, "bloch-grid-exp")
        G *= 2
    raise ToleranceUnreachableError(f"exp residual estimate {residual} above tol {tol}")


def k_exp(c: CompactMatrix, S: Supernatural | None = None) -> BdtElement:
    """e^{ic} for self-adjoint compact c: identity plus a finite block.

    The block exponential is exact to float precision; the ambient S only
    labels the unit symbol (default 2^infinity)."""
    S = S or _DEFAULT_S
    if not c.equal(c.adjoint(), tol=1e-12):
        raise ValueError("k_exp needs a self-adjoint matrix")
    if c.is_zero():
        return bdt_one(S)
    W = c.support_bound()
    block = c.to_numpy(range(W), range(W))
    w, V = np.linalg.eigh(block)
    eblock = (V * np.exp(1j * w)) @ V.conj().T - np.eye(W)
    ent = {}
    for i in range(W):
        for j in range(W):
            if abs(eblock[i, j]) > 1e-16:
                ent[(i, j)] = Scalar.from_complex(eblock[i, j])
    return bdt_add(bdt_one(S), bdt_from_compact(S, CompactMatrix(ent)))


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
        A = bdt_window_numpy(a, N, N) * scale
        w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
        E = (V * np.exp(1j * w)) @ V.conj().T
        return E - bdt_window_numpy(toeplitz(esym), N, N)

    reach = max(abs(n) for n in esym.bands) if esym.bands else 1
    N = max(2 * (c.support_bound() + 2 * reach + 16), 192)
    residual = np.inf
    for _ in range(4):
        K1 = corner(N)
        K2 = corner(N + 64)
        W = N // 2
        # shrink the corner while the excluded mass stays negligible
        off = None
        for Wtry in range(W, 15, -8):
            mass = float(np.linalg.norm(K2[Wtry:W, :W])) + float(
                np.linalg.norm(K2[:W, Wtry:W])
            )
            if mass > tol / 8.0:
                break
            W_used, off = Wtry, mass
        if off is None:
            W_used, off = W, 0.0
        edge = float(np.linalg.norm(K2[W_used - 8: W_used, :W_used])) + float(
            np.linalg.norm(K2[:W_used, W_used - 8: W_used])
        )
        diff = float(np.linalg.svd(K1[:W_used, :W_used] - K2[:W_used, :W_used],
                                   compute_uv=False)[0])
        residual = 3.0 * diff + 2.0 * off + edge + 1e-12
        if residual <= tol:
            ent = {}
            for i in range(W_used):
                for j in range(W_used):
                    if abs(K2[i, j]) > 1e-15:
                        ent[(i, j)] = Scalar.from_complex(K2[i, j])
            out = bdt_add(toeplitz(esym), bdt_from_compact(a.S, CompactMatrix(ent)))
            return out, ecert.residual_bound + residual
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
    if not bdt_is_selfadjoint(a, tol=1e-12):
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


def check_exp_bound_b(b: BdElement, M: int, tol: float = 1e-6) -> BoundCheck:
    """Check ||e^{ib}||_M <= prod_{j=1..M} (1 + ||b||_j)^{2^{M-j}}.

    The left side is a grid lower bound of the P-norm of the certified
    exponential; a failure would falsify the implementation, not the
    estimate."""
    if not bd_is_selfadjoint(b, tol=1e-12):
        raise ValueError("needs a self-adjoint element")
    norm_tol = min(tol / 10.0, 1e-8)
    cert = bd_exp(b, min(1e-6, tol), max_band=exp_band_reach(b))
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
    return BoundCheck(lhs, rhs, lhs <= rhs + tol + certificate, certificate)


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


def check_exp_bound_c(c: CompactMatrix, M: int, tol: float = 1e-9) -> BoundCheck:
    """Check ||e^{ic}||_{M,0} <= prod_{j=1..M} (1 + ||c||_{j,0})^{2^{M-j}}
    (everything here is a finite computation)."""
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
    return BoundCheck(lhs, rhs, lhs <= rhs + tol, tol)
