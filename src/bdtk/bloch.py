"""Symbol-side machinery for band operators with period l.

A band operator commuting with translation by l block-diagonalizes over the
circle: it acts at angle theta as the l x l matrix B(e^{2 pi i theta}) =
sum_n W(z)^n F_n, where W(z) is the cyclic shift with the wrap entry z and
F_n the diagonal of the n-th band function.  The operator norm is the sup of
the largest singular value over the circle.

The sup is certified by the level-set iteration for the L-infinity norm
(Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990).  The maximum m over an
equispaced seed grid is a lower bound attained at an evaluated angle.  The
seed grid has G points, the least power of two >= 8(2W + 1) for the wrap
degree W (32 at W = 1), at every period: it only seeds m, and only the level
test certifies from above, so any G is sound and a coarser one costs at most
a few more levels, each cheaper than G dense SVDs.  At the level
lambda = m + tol/2 the unimodular roots of det(lambda^2 I - B(z)^* B(z)) are
the angles where a singular-value sheet crosses the level.  Each computed
root within CROSSING_DELTA = 1e-2 of the circle is a candidate angle, not a
trusted crossing: sigma_max is evaluated there and at the midpoints of the
arcs between candidates (a spurious cut only splits an arc).  The level is
certified from above when no root lies that near the circle, or when no
midpoint exceeds it; otherwise m rises to the largest evaluated value and the
next level is tried.  One root census (circle_root_angles), the
companion-matrix roots in floating point at every degree, serves both
polynomials, each with its own window (CROSSING_DELTA, INVERTIBILITY_DELTA).
Each determinant is a Laurent polynomial whose powers lie in the band span
[a, b] of its matrix (_band_span), so the census works on z^(-a) det, of
degree b - a, whatever the period.  For z^(-a) det B(z) the census
certifies that B is invertible on the circle and counts the roots inside it,
hence the winding number of det B and the Fredholm index of T(b)
(det_winding).

The calculus goes the other way: it samples a function of the symbol at G
equispaced angles and reads the bands back (symbol_samples_to_bands).  Entry
r of band n is the entry ((n + r) mod l, r) of the DFT coefficient of wrap
power w = floor((n + r) / l), so one array gather reads every band
|n| <= max_band.  The read does not alias while every such |w|, at most
ceil(max_band / l), is at most (G - 1) // 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError, ToleranceUnreachableError

_TWO_PI = 2.0 * np.pi
# a root of det B(z) this close to the unit circle makes the symbol singular
INVERTIBILITY_DELTA = 1e-8
# a root of a level polynomial this close to the unit circle is a candidate crossing
CROSSING_DELTA = 1e-2


@dataclass
class SymbolMatrix:
    """Evaluable l x l Laurent-polynomial symbol of a band operator."""

    period: int
    coeffs: dict[int, np.ndarray]      # wrap power w -> l x l coefficient matrix

    def wrap_degree(self) -> int:
        return max((abs(w) for w in self.coeffs), default=0)

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


def check_tol(tol: float) -> None:
    """A tolerance must be a finite positive number: NaN, infinities and
    values <= 0 raise ValueError."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


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


def symbol_samples_to_bands(samples: np.ndarray, max_band: int) -> tuple[np.ndarray, np.ndarray]:
    """Read bands ns = -max_band..max_band back from G equispaced samples of
    shape (G, l, l), as the (2 max_band + 1, l) array of their values (the
    gather is in the module docstring).  The read does not alias while
    ceil(max_band / l) <= (G - 1) // 2; the caller chooses G so."""
    G, l, _ = samples.shape
    C = np.fft.fft(samples, axis=0) / G
    ns = np.arange(-max_band, max_band + 1)
    m = ns[:, None] + np.arange(l)
    return ns, C[(m // l) % G, m % l, np.arange(l)]


def _smax_batch(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _band_span(coeff_mats: dict[int, np.ndarray], l: int) -> tuple[int, int]:
    """The least and greatest band n = i - j + u l over the nonzero entries
    (i, j) of the coefficients A_u, or (0, 0) when there is none.

    A Leibniz term of det(sum_u A_u z^u) takes one entry from each column; its
    bands sum to l times its z-degree, so every power of the determinant lies
    in the span."""
    ns = np.concatenate([np.subtract(*np.nonzero(A)) + u * l for u, A in coeff_mats.items()])
    return (int(ns.min()), int(ns.max())) if ns.size else (0, 0)


def _laurent_det_poly(coeff_mats: dict[int, np.ndarray], l: int) -> tuple[np.ndarray, float, int]:
    """Coefficients (low to high) of z^(-a) * det(sum_u A_u z^u), with [a, b]
    the band span (_band_span); the round-off level of those coefficients;
    and a.

    The coefficients are read off determinants at M >= 2 (b - a + 1) roots of
    unity by an FFT.  The determinants are taken relative to the largest one
    (slogdet), since a determinant of size s^l under- or overflows; one
    positive factor moves no root.  The powers outside [a, b] vanish exactly,
    so what the FFT returns there is round-off alone; eight times its largest
    value is the noise level reported for every coefficient."""
    a, b = _band_span(coeff_mats, l)
    M = grid_size(1, 2 * (b - a + 1))
    z = np.exp(2j * np.pi * np.arange(M) / M)
    mats = np.zeros((M, l, l), dtype=complex)
    for u, A in coeff_mats.items():
        mats += (z ** u)[:, None, None] * A
    sign, logabs = np.linalg.slogdet(mats)
    top = logabs.max()
    dets = sign * np.exp(logabs - top) if np.isfinite(top) else np.zeros(M)
    c = np.roll(np.fft.fft(dets) / M, -a)
    return c[:b - a + 1], 8.0 * float(np.max(np.abs(c[b - a + 1:]))), a


def circle_root_angles(poly_lo2hi: np.ndarray, noise: float,
                       delta: float) -> tuple[list[float], int] | None:
    """The one root census of a polynomial (coefficients low to high): the
    angles (in turns) of its roots within delta of the unit circle, and the
    number of roots in |z| < 1 - delta; None when every coefficient is
    round-off.

    noise is the absolute round-off level of the coefficients (0 for exact
    ones).  Coefficients at or below it are stripped one at a time from the
    ends only: a round-off term left in the leading position would otherwise
    put roots near the origin or near infinity and push the unimodular ones
    off the circle.  Those stripped from the low end are roots at z = 0 and
    are counted inside; those stripped from the high end are roots at
    infinity.  The rest come from the companion matrix."""
    p = np.asarray(poly_lo2hi, dtype=complex)
    keep = np.abs(p) > max(noise, 1e-300)
    if not keep.any():
        return None
    first = int(np.argmax(keep))
    p = p[first:len(p) - int(np.argmax(keep[::-1]))]
    roots = np.roots(p[::-1])
    radii = np.abs(roots)
    near = roots[np.abs(radii - 1.0) < delta]
    angles = sorted(set((float(a) / _TWO_PI) % 1.0 for a in np.angle(near)))
    return angles, first + int(np.count_nonzero(radii < 1.0 - delta))


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
    shifted = {u: -A for u, A in H.items()}
    shifted[0] = lam * lam * np.eye(sym.period) - H[0]
    poly, noise, _ = _laurent_det_poly(shifted, sym.period)
    census = circle_root_angles(poly, noise, CROSSING_DELTA)
    return None if census is None else census[0]


def certified_sup_smax(sym: SymbolMatrix, tol: float) -> float:
    """sup over the circle of sigma_max(B), within tol.

    Returns r with |r - sup| <= tol, by the level-set iteration for the
    L-infinity norm (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990).
    m starts as the maximum over an equispaced seed grid and is always a
    value of sigma_max at an evaluated angle, hence a lower bound.  The seed
    grid has the least power of two >= 8(2W + 1) points for the wrap degree
    W, whatever the period; its size moves no bound, since m only ever rises
    to evaluated values and the level test alone certifies from above.  At
    the level lam = m + tol/2 the unimodular roots of det(lam^2 I - B^* B)
    are exactly the angles where some singular value equals lam.  The
    computed roots within CROSSING_DELTA of the circle include them and cut
    the circle into arcs on which sigma_max - lam keeps one sign; sigma_max
    is evaluated at the cuts and at the arc midpoints.  Two exits certify sup <= lam and
    return m + tol/4:

    - no root lies within CROSSING_DELTA of the circle, so sigma_max < lam;
    - no midpoint exceeds lam, so no arc lies above the level.

    Otherwise m rises to the largest evaluated value (by more than tol/2) and
    the next level is tried.  A level polynomial that vanishes to round-off
    gives no certificate (ToleranceUnreachableError), and neither do 64
    levels without an exit.  A symbol whose Gram coefficients overflow is out
    of range (ValueError), and so is a tol that check_tol rejects."""
    check_tol(tol)
    W = sym.wrap_degree()
    if W == 0:
        return float(_smax_batch(sym.at_many(np.zeros(1)))[0])
    with np.errstate(over="ignore", invalid="ignore"):
        H = _gram_coeffs(sym)
    if not all(np.isfinite(A).all() for A in H.values()):
        raise ValueError("symbol out of range: B^* B overflows double precision")
    G = grid_size(8, 8 * (2 * W + 1))
    m = float(np.max(_smax_batch(sym.at_many(np.arange(G) / G))))
    for _ in range(64):
        lam = m + 0.5 * tol
        angles = _level_root_angles(sym, lam, H)
        if angles is None:
            break
        if not angles:
            return m + 0.25 * tol
        cross = np.asarray(angles)
        mids = 0.5 * (cross + np.append(cross[1:], cross[0] + 1.0)) % 1.0
        s = float(np.max(_smax_batch(sym.at_many(np.concatenate([cross, mids])))))
        if s <= lam:
            return m + 0.25 * tol
        m = s
    raise ToleranceUnreachableError("operator-norm certification did not converge")


def det_winding(sym: SymbolMatrix) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0, from one
    census (circle_root_angles) of p(z) = z^(-a) det B(z), [a, b] the band
    span of B, with its round-off ends stripped (low-end coefficients are
    roots at z = 0, high-end ones at infinity).  B is certified invertible
    when no root of p lies within INVERTIBILITY_DELTA of the circle and the
    grid sigma_min exceeds 1e-12; the winding number is then
    #{roots of p in |z| < 1} + a.  NotInvertibleError when that certificate
    fails or det B vanishes to round-off."""
    G = grid_size(256, 8 * (2 * sym.wrap_degree() + 1))
    smin = float(np.linalg.svd(sym.at_many(np.arange(G) / G), compute_uv=False)[:, -1].min())
    poly, noise, a = _laurent_det_poly(sym.coeffs, sym.period)
    census = circle_root_angles(poly, noise, INVERTIBILITY_DELTA)
    if census is None:
        raise NotInvertibleError(f"det B vanishes to round-off (grid sigma_min {smin:.3e})")
    angles, inside = census
    if angles or smin <= 1e-12:
        raise NotInvertibleError(f"symbol singular on the circle (grid sigma_min {smin:.3e})")
    return inside + a
