"""Supernatural numbers, odometer residues and the group of S-admissible
rationals.

A supernatural number is a formal product of prime powers with exponents in
{1, 2, ..., infinity}; its divisor lattice indexes the finite levels at which
everything else in this package works.  Residues model finite-level
approximations of S-adic integers under the odometer x -> x + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MembershipError

INF = math.inf

# Primes are checked, and plain integers factored, by trial division, so a
# prime above this bound (and an integer above its square) is rejected rather
# than left to run without bound.  Periods are capped far lower (1024 in
# serialize), so no reachable level needs a larger prime.
MAX_PRIME = 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale integers)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Supernatural:
    """Formal product of prime powers; exponents are positive ints or INF."""

    __slots__ = ("_exp",)

    def __init__(self, exponents: dict[int, int | float]):
        exp: dict[int, int | float] = {}
        for p, e in exponents.items():
            if p > MAX_PRIME:
                raise ValueError(f"prime {p} exceeds the cap {MAX_PRIME}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e == 0:
                continue
            if e != INF and (not isinstance(e, int) or e < 1):
                raise ValueError(f"bad exponent {e!r} for prime {p}")
            if p in exp:
                raise ValueError(f"duplicate prime {p}")
            exp[p] = e
        self._exp = dict(sorted(exp.items()))

    @staticmethod
    def from_int(n: int) -> "Supernatural":
        if not 1 <= n <= MAX_PRIME ** 2:
            raise ValueError(f"{n} is outside [1, {MAX_PRIME ** 2}]")
        return Supernatural(factorize(n))

    @property
    def exponents(self) -> dict[int, int | float]:
        return dict(self._exp)

    def exponent_of(self, p: int) -> int | float:
        return self._exp.get(p, 0)

    def is_infinite(self) -> bool:
        return any(e == INF for e in self._exp.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Supernatural) and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(tuple(self._exp.items()))

    def __repr__(self) -> str:
        if not self._exp:
            return "Supernatural(1)"
        parts = [f"{p}^{'inf' if e == INF else e}" for p, e in self._exp.items()]
        return "Supernatural(" + "*".join(parts) + ")"


@dataclass(frozen=True)
class Residue:
    """An element of Z/(level)Z, the level-l approximation of an S-adic integer."""

    value: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        if not 0 <= self.value < self.level:
            raise ValueError("value out of range")


@dataclass(frozen=True)
class GsRational:
    """A rational k/l with l dividing the ambient supernatural number."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError("not in lowest terms")

    @staticmethod
    def from_fraction(q: Fraction) -> "GsRational":
        return GsRational(q.numerator, q.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def sn_divides(l: int, S: Supernatural) -> bool:
    """True iff every prime power in l is bounded by the exponent in S.

    Each prime of S is divided out of l up to its exponent and nothing may be
    left, so l is never factored and a large l costs no trial division."""
    if l < 1:
        raise ValueError("l must be a positive integer")
    for p, e in S.exponents.items():
        while e > 0 and l % p == 0:
            l //= p
            e -= 1
    return l == 1


def sn_divisors_upto(S: Supernatural, bound: int) -> list[int]:
    return [l for l in range(1, bound + 1) if sn_divides(l, S)]


def embed_int(k: int, l: int) -> Residue:
    """The image of the integer k at level l (Euclidean remainder)."""
    if l < 1:
        raise ValueError("level must be positive")
    return Residue(k % l, l)


def odometer(x: Residue, m: int) -> Residue:
    """Apply m steps of the odometer x -> x + 1 at the residue's level."""
    return Residue((x.value + m) % x.level, x.level)


def gs_contains(q, S: Supernatural) -> bool:
    """Membership of a rational in G_S = {k/l : l | S} (q is reduced first)."""
    if isinstance(q, GsRational):
        q = q.as_fraction()
    q = Fraction(q)
    return sn_divides(q.denominator, S)


def gs_add(q1: GsRational, q2: GsRational, S: Supernatural) -> GsRational:
    """Group law of G_S; verifies membership of inputs and output."""
    for q in (q1, q2):
        if not gs_contains(q, S):
            raise MembershipError(f"{q.numerator}/{q.denominator} is not in G_S")
    s = q1.as_fraction() + q2.as_fraction()
    out = GsRational.from_fraction(s)
    if not gs_contains(out, S):  # lcm of divisors of S divides S
        raise MembershipError("closure violated (cannot happen for valid inputs)")
    return out


def parse_supernatural(text: str) -> Supernatural:
    """Parse "2:inf,3:1" or a plain integer like "12"."""
    text = text.strip()
    if not text or text == "1":
        return Supernatural({})
    if ":" not in text:
        return Supernatural.from_int(int(text))
    exp: dict[int, int | float] = {}
    for part in text.split(","):
        p_s, e_s = part.split(":")
        e = INF if e_s.strip().lower() in ("inf", "infinity") else int(e_s)
        exp[int(p_s)] = e
    return Supernatural(exp)
