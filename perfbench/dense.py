"""Dense reference assembly for the correctness checks.

Everything here is built from the stored band values and compact entries
with numpy, without the library's own window builders, symbols or norms, so
the checks compare the library against a computation made apart from it.

Index conventions follow the library: a band element b = sum_n V^n m_{f_n}
acts on the two-sided basis with entry (k, s) = f_{k-s}(s), and its Toeplitz
lift T(b) + c is the compression to the indices k, s >= 0 plus the finite
matrix c.
"""

from __future__ import annotations

import numpy as np


def band_values(b) -> dict[int, np.ndarray]:
    """Band index -> one period of coefficient values as complex numbers."""
    return {n: np.array([v.to_complex() for v in f.values]) for n, f in b.bands.items()}


def band_window(b, rows: range, cols: range) -> np.ndarray:
    """The two-sided operator of b restricted to rows x cols."""
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for n, vals in band_values(b).items():
        for j, s in enumerate(cols):
            k = s + n
            if rows.start <= k < rows.stop:
                out[k - rows.start, j] += vals[s % len(vals)]
    return out


def compact_window(c, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=complex)
    for (k, s), v in c.entries.items():
        if k < rows and s < cols:
            out[k, s] += v.to_complex()
    return out


def toeplitz_window(a, rows: int, cols: int) -> np.ndarray:
    """T(b) + c on [0, rows) x [0, cols)."""
    return band_window(a.symbol, range(rows), range(cols)) + compact_window(a.compact, rows, cols)


def compact_support(c) -> int:
    return 1 + max((max(k, s) for (k, s) in c.entries), default=-1)


def toeplitz_product_window(a1, a2, N: int) -> np.ndarray:
    """(T(b1) + c1)(T(b2) + c2) on [0, N)^2, exact up to float rounding:
    row k < N of the left factor vanishes beyond column
    max(k + bandwidth, support of c1)."""
    M = max(N + a1.symbol.bandwidth, compact_support(a1.compact), 1)
    return toeplitz_window(a1, N, M) @ toeplitz_window(a2, M, N)


def band_product_window(b1, b2, N: int) -> np.ndarray:
    """The two-sided product b1 b2 on [0, N)^2, summed over the middle index
    range the bandwidth of b2 reaches."""
    W = b2.bandwidth
    mid = range(-W, N + W)
    return band_window(b1, range(N), mid) @ band_window(b2, mid, range(N))


def correction_window(b1, b2, N: int) -> np.ndarray:
    """T(b1)T(b2) - T(b1 b2) on [0, N)^2: minus the part of the two-sided
    product that passes through the negative indices."""
    W = max(b1.bandwidth, b2.bandwidth, 1)
    neg = range(-W, 0)
    return -(band_window(b1, range(N), neg) @ band_window(b2, neg, range(N)))


def sup_abs_sum(b) -> float:
    """sum_n sup |f_n|, an upper bound on the operator norm of b."""
    return float(sum(np.max(np.abs(v)) for v in band_values(b).values()))


def smax(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


class Symbol:
    """The l x l Bloch symbol B(theta) = sum_w C_w e^{2 pi i w theta} of a band
    element at period l (its own period or a multiple of it): band n moves
    residue r to (r + n) mod l and wraps (r + n) // l times around the
    circle."""

    def __init__(self, b, period: int | None = None):
        vals = band_values(b)
        l = period or b.period
        coeffs: dict[int, np.ndarray] = {}
        for n, v in vals.items():
            for r in range(l):
                rp = (r + n) % l
                w = (r + n - rp) // l
                coeffs.setdefault(w, np.zeros((l, l), dtype=complex))[rp, r] += v[r % len(v)]
        if not coeffs:
            coeffs[0] = np.zeros((l, l), dtype=complex)
        self.period = l
        self.ws = np.array(sorted(coeffs), dtype=float)
        self.stack = np.stack([coeffs[int(w)] for w in self.ws])

    def at(self, thetas: np.ndarray) -> np.ndarray:
        phases = np.exp(2j * np.pi * np.outer(thetas, self.ws))
        return np.einsum("tw,wij->tij", phases, self.stack)

    def lipschitz(self) -> float:
        """A bound on |d sigma_max / d theta|: sum_w 2 pi |w| ||C_w||."""
        return float(sum(2 * np.pi * abs(w) * smax(C) for w, C in zip(self.ws, self.stack)))

    def grid_bounds(self, G: int) -> tuple[float, float]:
        """(max of sigma_max over G equispaced angles, that maximum plus
        lipschitz * h / 2 with h = 1/G): the sup lies between the two."""
        s = np.linalg.svd(self.at(np.arange(G) / G), compute_uv=False)[:, 0]
        m = float(np.max(s))
        return m, m + self.lipschitz() / (2.0 * G)
