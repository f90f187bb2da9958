"""Finite-support matrices on the nonnegative basis: the dense part of the
smooth compact operators, with the commutator derivation d_K = [K, .] and the
graded (M, N) norms built from it."""

from __future__ import annotations

import math

from .scalars import phase_scalar
from .sparse import ScalarMatrix


class CompactMatrix(ScalarMatrix):
    """Finitely many entries c_{ks} (k, s >= 0); no stored zeros."""

    __slots__ = ()

    def __init__(self, entries=None):
        super().__init__(entries)
        for (k, s) in self.entries:
            if k < 0 or s < 0:
                raise ValueError("compact matrices live on nonnegative indices")

    def support_bound(self) -> int:
        """Smallest W with all entries inside [0, W)^2."""
        b = self.support_bounds()
        return 0 if b is None else max(b[1], b[3]) + 1


def k_zero() -> CompactMatrix:
    return CompactMatrix({})


def k_units(k: int, s: int) -> CompactMatrix:
    """The matrix unit P_{ks}."""
    if k < 0 or s < 0:
        raise ValueError("matrix units need nonnegative indices")
    return CompactMatrix({(k, s): 1})


def k_add(c1: CompactMatrix, c2: CompactMatrix) -> CompactMatrix:
    return c1.add(c2)


def k_mul(c1: CompactMatrix, c2: CompactMatrix) -> CompactMatrix:
    return c1.matmul(c2)


def k_adjoint(c: CompactMatrix) -> CompactMatrix:
    return c.adjoint()


def k_scale(z, c: CompactMatrix) -> CompactMatrix:
    return c.scale(z)


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

