"""Symbol-side machinery for band operators with period l.

A band operator commuting with translation by l block-diagonalizes over the
circle: it acts at angle theta as the l x l matrix B(e^{2 pi i theta}) =
sum_n W(z)^n F_n, where W(z) is the cyclic shift with the wrap entry z and
F_n the diagonal of the n-th band function.  The operator norm is the sup of
the largest singular value over the circle.

The sup is certified by the level-set iteration for the L-infinity norm
(Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990).  The maximum m over an
equispaced grid is a lower bound attained at an evaluated angle.  At the
level lambda = m + tol/2 the unimodular roots of det(lambda^2 I - B(z)^* B(z))
are the angles where a singular-value sheet crosses the level; sigma_max is
evaluated at those crossings and at the midpoints of the arcs between them.
The level is certified from above when no root lies on the circle, or when
no midpoint exceeds it (sigma_max - lambda keeps one sign on each arc);
otherwise m rises to the largest evaluated value and the next level is
tried.  Root location uses a companion matrix for moderate degrees and zero
counting on a thin annulus (argument principle) for large ones; the annulus
count only proves the absence of crossings, so when it finds some (or cannot
decide) no certificate is given unless a higher level is proved clear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceUnreachableError

_TWO_PI = 2.0 * np.pi
# a root of det B(z) this close to the unit circle makes the symbol singular
INVERTIBILITY_DELTA = 1e-8


@dataclass
class SymbolMatrix:
    """Evaluable l x l Laurent-polynomial symbol of a band operator."""

    period: int
    coeffs: dict[int, np.ndarray]      # wrap power w -> l x l coefficient matrix

    def wrap_degree(self) -> int:
        return max((abs(w) for w in self.coeffs), default=0)

    def at(self, theta: float) -> np.ndarray:
        return self.at_many(np.array([theta]))[0]

    def at_many(self, thetas: np.ndarray) -> np.ndarray:
        ws = np.array(sorted(self.coeffs), dtype=float)
        stack = np.stack([self.coeffs[int(w)] for w in ws])
        phases = np.exp(2j * np.pi * np.outer(thetas, ws))
        return np.einsum("tw,wij->tij", phases, stack)


def grid_size(floor: int, need: int) -> int:
    """The least floor * 2^k that is >= need: the size of an equispaced
    circle grid, kept a power of two times the floor for the FFTs."""
    G = floor
    while G < need:
        G *= 2
    return G


def symbol_from_bands(l: int, band_values: dict[int, np.ndarray]) -> SymbolMatrix:
    """Assemble the symbol from per-band value arrays of length l."""
    coeffs: dict[int, np.ndarray] = {}
    for n, vals in band_values.items():
        for r in range(l):
            rp = (r + n) % l
            w = (r + n - rp) // l
            C = coeffs.get(w)
            if C is None:
                C = coeffs.setdefault(w, np.zeros((l, l), dtype=complex))
            C[rp, r] += vals[r]
    if not coeffs:
        coeffs[0] = np.zeros((l, l), dtype=complex)
    return SymbolMatrix(l, coeffs)


def symbol_samples_to_bands(samples: np.ndarray, max_band: int) -> dict[int, np.ndarray]:
    """Invert G equispaced symbol samples to band value arrays.

    samples has shape (G, l, l); bands with |n| <= max_band are read off the
    discrete Fourier coefficients of the matrix entries (aliasing folds in
    contributions from wrap powers beyond G/2, which the caller controls by
    choosing G large enough)."""
    G, l, _ = samples.shape
    C = np.fft.fft(samples, axis=0) / G
    out: dict[int, np.ndarray] = {}
    for n in range(-max_band, max_band + 1):
        vals = np.zeros(l, dtype=complex)
        ok = False
        for r in range(l):
            rp = (r + n) % l
            w = (r + n - rp) // l
            if abs(w) > (G - 1) // 2:
                continue
            vals[r] = C[w % G, rp, r]
            ok = True
        if ok and np.any(vals != 0):
            out[n] = vals
    return out


def _smax_batch(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _laurent_det_poly(coeff_mats: dict[int, np.ndarray], l: int) -> tuple[np.ndarray, float]:
    """Coefficients (low to high) of z^(l*D) * det(sum_u A_u z^u), D = max |u|,
    and the round-off level of those coefficients.

    The coefficients are read off determinants at M >= 2 (2lD + 1) roots of
    unity by an FFT.  The powers outside [-lD, lD] vanish exactly, so what the
    FFT returns there is round-off alone; eight times its largest value is
    the noise level reported for every coefficient."""
    D = max((abs(u) for u in coeff_mats), default=0)
    if D == 0:
        return np.array([np.linalg.det(coeff_mats.get(0, np.zeros((l, l))))]), 0.0
    deg = 2 * l * D
    M = grid_size(1, 2 * (deg + 1))
    idx = np.arange(M)
    z = np.exp(2j * np.pi * idx / M)
    mats = np.zeros((M, l, l), dtype=complex)
    for u, A in coeff_mats.items():
        mats += (z ** u)[:, None, None] * A
    # det is a Laurent polynomial of degree range [-lD, lD]
    c = np.roll(np.fft.fft(np.linalg.det(mats)) / M, l * D)
    return c[:deg + 1], 8.0 * float(np.max(np.abs(c[deg + 1:])))


def _winding(values_at, M: int) -> int | None:
    """Winding number around 0 of a closed curve, by argument accumulation.

    values_at(M) returns the curve at the M equispaced parameters k / M; up to
    eight grids are tried, doubling M, until every phase step is below 1.5 rad
    and the total is within 1e-6 of an integer.  None when the curve comes within
    1e-290 of 0 on a grid or the steps never resolve, which callers treat as
    an inconclusive outcome."""
    for _ in range(8):
        vals = values_at(M)
        if np.min(np.abs(vals)) <= 1e-290:
            return None
        args = np.angle(vals)
        d = np.diff(np.concatenate([args, args[:1]]))
        d = (d + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(d)) < 1.5:
            total = d.sum() / (2 * np.pi)
            w = int(round(total))
            if abs(total - w) < 1e-6:
                return w
        M *= 2
    return None


def _winding_on_circle(poly_lo2hi: np.ndarray, radius: float) -> int | None:
    """Number of zeros inside |z| < radius by the argument principle; None if
    inconclusive (roots essentially on the sampling circle), which callers
    treat conservatively."""
    deg = len(poly_lo2hi) - 1
    hi2lo = poly_lo2hi[::-1]
    return _winding(lambda M: np.polyval(hi2lo, radius * np.exp(2j * np.pi * np.arange(M) / M)),
                    grid_size(4096, 32 * max(deg, 1)))


def circle_root_angles(poly_lo2hi: np.ndarray, delta: float = 1e-7,
                       noise: float = 0.0) -> tuple[list[float], bool]:
    """Angles (in turns) of polynomial roots within delta of the unit circle.

    noise is the absolute round-off level of the coefficients (0 for exact
    ones).  Coefficients at or below it are stripped from both ends, one at a
    time: a round-off term left in the leading position would otherwise put
    roots near the origin or near infinity and push the unimodular ones off
    the circle.

    Returns (angles, certified).  certified=True means the list holds every
    root within delta of the circle (an empty list: there is none);
    certified=False means the test was inconclusive and the angles are only
    candidate locations.
    """
    p = np.asarray(poly_lo2hi, dtype=complex)
    floor = max(noise, 1e-300)
    keep = np.abs(p) > floor
    if not keep.any():
        return [0.0], False  # determinant vanishes to round-off: degenerate
    first = int(np.argmax(keep))
    last = len(p) - int(np.argmax(keep[::-1]))
    p = p[first:last]
    deg = len(p) - 1
    if deg <= 0:
        return [], True
    if deg <= 512:
        roots = np.roots(p[::-1])
        near = roots[np.abs(np.abs(roots) - 1.0) < delta]
        angles = sorted(set((float(a) / _TWO_PI) % 1.0 for a in np.angle(near)))
        return angles, True
    w_out = _winding_on_circle(p, 1.0 + delta)
    w_in = _winding_on_circle(p, 1.0 - delta)
    if w_out is not None and w_out == w_in:
        return [], True
    # roots near the circle, or an unresolved count: only grid minima of |p|
    return _unit_circle_min_angles(p), False


def _unit_circle_min_angles(poly_lo2hi: np.ndarray, count: int = 6) -> list[float]:
    deg = len(poly_lo2hi) - 1
    M = grid_size(4096, 8 * max(deg, 1))
    z = np.exp(2j * np.pi * np.arange(M) / M)
    vals = np.abs(np.polyval(poly_lo2hi[::-1], z))
    local = np.where((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))[0]
    order = local[np.argsort(vals[local])]
    return [float(i) / M for i in order[:count]]


def _gram_coeffs(sym: SymbolMatrix) -> dict[int, np.ndarray]:
    """Laurent coefficients of H(z) = B(z)^* B(z)."""
    H: dict[int, np.ndarray] = {}
    for w1, C1 in sym.coeffs.items():
        A1 = C1.conj().T
        for w2, C2 in sym.coeffs.items():
            u = w2 - w1
            M = H.get(u)
            if M is None:
                M = H.setdefault(u, np.zeros((sym.period, sym.period), dtype=complex))
            M += A1 @ C2
    return H


def _level_root_angles(sym: SymbolMatrix, lam: float, H: dict[int, np.ndarray]):
    l = sym.period
    hmax = max((float(np.max(np.abs(A))) for A in H.values()), default=0.0)
    scale = 1.0 / max(lam * lam, hmax, 1e-300)
    shifted = {u: -scale * A for u, A in H.items()}
    eye_term = shifted.get(0)
    if eye_term is None:
        eye_term = shifted.setdefault(0, np.zeros((l, l), dtype=complex))
    eye_term += scale * lam * lam * np.eye(l)
    poly, noise = _laurent_det_poly(shifted, l)
    return circle_root_angles(poly, noise=noise)


def certified_sup_smax(sym: SymbolMatrix, tol: float) -> float:
    """sup over the circle of sigma_max(B), within tol.

    Returns r with |r - sup| <= tol, by the level-set iteration for the
    L-infinity norm (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990).
    m starts as the maximum over an equispaced grid and is always a value of
    sigma_max at an evaluated angle, hence a lower bound.  At the level
    lam = m + tol/2 the unimodular roots of det(lam^2 I - B^* B) are exactly
    the angles where some singular value equals lam; they cut the circle into
    arcs on which sigma_max - lam keeps one sign.  sigma_max is evaluated at
    the crossings and at the arc midpoints.  Two exits certify sup <= lam and
    return m + tol/4:

    - no root lies on the circle, so sigma_max < lam everywhere;
    - no midpoint exceeds lam, so no arc lies above the level.

    Otherwise m rises to the largest evaluated value (by more than tol/2) and
    the next level is tried.  When the root test is inconclusive, its
    candidate angles are evaluated the same way and m is raised if they beat
    it; if they do not, no certificate is given and ToleranceUnreachableError
    is raised.  A symbol whose Gram coefficients overflow is out of range
    (ValueError)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    W = sym.wrap_degree()
    if W == 0:
        return float(_smax_batch(sym.at_many(np.zeros(1)))[0])
    with np.errstate(over="ignore", invalid="ignore"):
        H = _gram_coeffs(sym)
    if not all(np.isfinite(A).all() for A in H.values()):
        raise ValueError("symbol out of range: B^* B overflows double precision")
    G = grid_size(256, 8 * (2 * W + 1))
    m = float(np.max(_smax_batch(sym.at_many(np.arange(G) / G))))
    for _ in range(64):
        lam = m + 0.5 * tol
        angles, certified = _level_root_angles(sym, lam, H)
        if certified and not angles:
            return m + 0.25 * tol
        cross = np.asarray(angles)
        mids = 0.5 * (cross + np.append(cross[1:], cross[0] + 1.0)) % 1.0
        s = float(np.max(_smax_batch(sym.at_many(np.concatenate([cross, mids])))))
        if certified and s <= lam:
            return m + 0.25 * tol
        if s <= m:
            break
        m = s
    raise ToleranceUnreachableError("operator-norm certification did not converge")


def symbol_invertibility(sym: SymbolMatrix) -> tuple[bool, float]:
    """Certify pointwise invertibility of B on the circle.

    Returns (invertible, grid_smin).  Invertibility holds iff det B(z) has no
    root within INVERTIBILITY_DELTA of the unit circle; grid_smin reports the
    observed sigma_min margin."""
    l = sym.period
    G = grid_size(256, 8 * (2 * sym.wrap_degree() + 1))
    mats = sym.at_many(np.arange(G) / G)
    smin = float(np.linalg.svd(mats, compute_uv=False)[:, -1].min())
    poly, noise = _laurent_det_poly(sym.coeffs, l)
    angles, certified = circle_root_angles(poly, INVERTIBILITY_DELTA, noise)
    if not certified or angles or smin <= 1e-12:
        return False, smin
    return True, smin


def winding_of_det(sym: SymbolMatrix) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0, by
    argument accumulation on a refined grid."""
    w = _winding(lambda G: np.linalg.det(sym.at_many(np.arange(G) / G)),
                 grid_size(1024, 16 * (sym.wrap_degree() * sym.period + 1)))
    if w is None:
        raise RuntimeError("winding accumulation did not resolve")
    return w
