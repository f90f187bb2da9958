"""Finite-support matrices on the nonnegative basis: the dense part of the
smooth compact operators, with the commutator derivation d_K = [K, .] and the
graded (M, N) norms built from it."""

from __future__ import annotations

import math

import numpy as np

from .scalars import phase_scalar, FLOAT_EQ_TOL
from .sparse import ScalarMatrix


class CompactMatrix:
    """Finitely many entries c_{ks} (k, s >= 0); no stored zeros."""

    __slots__ = ("mat",)

    def __init__(self, entries=None):
        if isinstance(entries, ScalarMatrix):
            mat = entries
        else:
            mat = ScalarMatrix(entries or {})
        for (k, s) in mat.entries:
            if k < 0 or s < 0:
                raise ValueError("compact matrices live on nonnegative indices")
        self.mat = mat

    @property
    def entries(self):
        return self.mat.entries

    @property
    def is_exact(self) -> bool:
        return self.mat.is_exact

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def support_bound(self) -> int:
        """Smallest W with all entries inside [0, W)^2."""
        b = self.mat.support_bounds()
        return 0 if b is None else max(b[1], b[3]) + 1

    def __add__(self, other):
        return k_add(self, other)

    def __sub__(self, other):
        return k_add(self, k_scale(-1, other))

    def __mul__(self, other):
        if isinstance(other, CompactMatrix):
            return k_mul(self, other)
        return k_scale(other, self)

    __rmul__ = __mul__

    def __neg__(self):
        return k_scale(-1, self)

    def equal(self, other: "CompactMatrix", tol: float = FLOAT_EQ_TOL) -> bool:
        return self.mat.equal(other.mat, tol)

    def __repr__(self) -> str:
        return f"CompactMatrix({len(self.entries)} entries)"


def k_zero() -> CompactMatrix:
    return CompactMatrix({})


def k_units(k: int, s: int) -> CompactMatrix:
    """The matrix unit P_{ks}."""
    if k < 0 or s < 0:
        raise ValueError("matrix units need nonnegative indices")
    return CompactMatrix({(k, s): 1})


def k_add(c1: CompactMatrix, c2: CompactMatrix) -> CompactMatrix:
    return CompactMatrix(c1.mat.add(c2.mat))


def k_mul(c1: CompactMatrix, c2: CompactMatrix) -> CompactMatrix:
    return CompactMatrix(c1.mat.matmul(c2.mat))


def k_adjoint(c: CompactMatrix) -> CompactMatrix:
    return CompactMatrix(c.mat.adjoint())


def k_scale(z, c: CompactMatrix) -> CompactMatrix:
    return CompactMatrix(c.mat.scale(z))


def k_dK(c: CompactMatrix) -> CompactMatrix:
    """The derivation [K, .]: entry (k, s) picks up the factor (k - s)."""
    return CompactMatrix({(k, s): (k - s) * v for (k, s), v in c.entries.items()})


def k_dK_power(c: CompactMatrix, j: int) -> CompactMatrix:
    return CompactMatrix({(k, s): ((k - s) ** j) * v for (k, s), v in c.entries.items()})


def k_weighted_smax(c: CompactMatrix, j: int, N: int) -> float:
    """Largest singular value of d_K^j(c) (I + K)^N (integer weights applied
    exactly before the float stage)."""
    if c.is_zero():
        return 0.0
    weighted = {
        (k, s): ((k - s) ** j) * ((1 + s) ** N) * v for (k, s), v in c.entries.items()
    }
    return ScalarMatrix(weighted).smax()


def k_mn_norm(c: CompactMatrix, M: int, N: int) -> float:
    """Sum over j <= M of binom(M, j) * ||d_K^j(c) (I+K)^N||."""
    if M < 0 or N < 0:
        raise ValueError("M and N must be nonnegative")
    return sum(math.comb(M, j) * k_weighted_smax(c, j, N) for j in range(M + 1))


def k_rho(c: CompactMatrix, theta) -> CompactMatrix:
    """The diagonal-label automorphism: entry (k, s) times e^{2 pi i (k-s) theta}."""
    return CompactMatrix(
        {(k, s): phase_scalar(k - s, theta) * v for (k, s), v in c.entries.items()}
    )


def k_diagonal_part(c: CompactMatrix, n: int) -> CompactMatrix:
    """Entries with row - col = n (the n-th Fourier component of c)."""
    return CompactMatrix({(k, s): v for (k, s), v in c.entries.items() if k - s == n})


def k_diagonal_range(c: CompactMatrix) -> int:
    """Largest |row - col| over the support."""
    return max((abs(k - s) for (k, s) in c.entries), default=0)


def k_to_numpy(c: CompactMatrix, size: int) -> np.ndarray:
    return c.mat.to_numpy(range(size), range(size))
