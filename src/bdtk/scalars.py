"""Complex scalars for the algebra layer.

A Scalar is either *exact* -- an element of a cyclotomic field Q(zeta_n),
stored as a rational polynomial in zeta_n = e^{2 pi i / n} -- or *float-tagged*,
stored as a machine complex number.  Exact scalars cover the rational complex
numbers (n = 1 or 4) and all roots of unity, which is what keeps band products,
Toeplitz corrections and roots-of-unity Fourier quadrature entrywise exact.
Any operation touching a float-tagged operand produces a float-tagged result,
and equality tests then switch from structural equality to tolerance 1e-12.
This == is the one equality rule: functions, band elements and matrices
compare entry by entry with it, a missing entry counting as zero.

Canonical form: an exact value is sum_k num[k] zeta_n^k / d, with integer
numerators num[k] (zeros omitted) over one denominator d > 0 and
gcd(d, all num[k]) = 1.  The representation order n is 1, 4, an odd number
>= 3 or a multiple of 4; the numerator polynomial is the unique power-basis
representative modulo the n-th cyclotomic polynomial, with the order reduced
whenever the value lies in a smaller cyclotomic field reachable by
exponent-gcd or by the zeta_{2m} -> -zeta_m^{(m+1)/2} rewrite.  Structural
equality of canonical forms is therefore value equality.  Gaussian rationals
(n = 1 or 4) add, multiply, invert and conjugate on at most four integers and
one gcd.  Other exact values invert by the field norm: x times its other
Galois conjugates is the nonzero rational N(x) (Washington, Introduction to
Cyclotomic Fields, 2nd ed. 1997, ch. 2).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

FLOAT_EQ_TOL = 1e-12

# Rational angles with denominator up to this bound keep exact root-of-unity
# phases; anything else is evaluated in floating point.
EXACT_PHASE_DENOMINATOR_BOUND = 64


def _polydiv_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division in Z[x]; den is monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for e in range(len(num) - 1, dd - 1, -1):
        c = num[e]
        if c:
            out[e - dd] = c
            for i in range(dd + 1):
                num[e - dd + i] -= c * den[i]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    coeffs = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            coeffs = _polydiv_int(coeffs, cyclotomic_polynomial(d))
    return tuple(coeffs)


def _canonicalize(n: int, terms: dict[int, int]) -> tuple[int, dict[int, int]]:
    # Every step is an integral linear map of the numerators (Phi_n is monic,
    # so reduction modulo it stays in Z), so the caller's common denominator
    # is untouched until the final gcd.
    while True:
        merged: dict[int, int] = {}
        for k, c in terms.items():
            if c:
                k %= n
                merged[k] = merged.get(k, 0) + c
        terms = {k: c for k, c in merged.items() if c}
        if not terms:
            return 1, {}
        if n == 1:
            return 1, terms
        phi = cyclotomic_polynomial(n)
        deg = len(phi) - 1
        if max(terms) >= deg:
            dense = [0] * n
            for k, c in terms.items():
                dense[k] = c
            for e in range(n - 1, deg - 1, -1):
                c = dense[e]
                if c:
                    dense[e] = 0
                    off = e - deg
                    for i in range(deg):
                        if phi[i]:
                            dense[off + i] -= c * phi[i]
            terms = {k: c for k, c in enumerate(dense) if c}
            if not terms:
                return 1, {}
        g = 0
        for k in terms:
            g = math.gcd(g, k)
            if g == 1:
                break
        g = math.gcd(g, n)
        if g > 1:
            n //= g
            terms = {k // g: c for k, c in terms.items()}
            continue
        if n % 2 == 0 and (n // 2) % 2 == 1:
            # zeta_{2m}^k = zeta_m^{k/2} (k even), -zeta_m^{k(m+1)/2} (k odd)
            m = n // 2
            new: dict[int, int] = {}
            for k, c in terms.items():
                if k % 2 == 0:
                    kk, cc = (k // 2) % m, c
                else:
                    kk, cc = (k * (m + 1) // 2) % m, -c
                new[kk] = new.get(kk, 0) + cc
            n, terms = m, new
            continue
        return n, terms


class Scalar:
    """Exact cyclotomic-rational or float-tagged complex scalar.

    Exact: n > 0 and the value is sum_k num[k] zeta_n^k / d.  Float-tagged:
    n == 0 and the value is the complex f.  The terms of num keep the order in
    which canonicalization (or the Gaussian paths, which mirror it) inserts
    them, and inverse returns them in ascending power order: to_complex sums
    in that order, so a different order could change the last bits of every
    float derived from an exact value.
    """

    __slots__ = ("n", "num", "d", "f")
    __hash__ = None  # equality is semantic (and tolerance-based when inexact)

    def __init__(self, n: int, num: dict[int, int] | None, d: int, f: complex | None):
        self.n = n
        self.num = num
        self.d = d
        self.f = f

    # ---------------------------------------------------------------- build

    @staticmethod
    def _make(n: int, num: dict[int, int], d: int) -> "Scalar":
        """Canonical sum_k num[k] zeta_n^k / d from integer numerators."""
        n, num = _canonicalize(n, num)
        g = math.gcd(d, *num.values())
        if g > 1:
            d //= g
            num = {k: c // g for k, c in num.items()}
        return Scalar(n, num, d, None)

    @staticmethod
    def _exact(n: int, terms: dict[int, Fraction]) -> "Scalar":
        """Canonical sum_k terms[k] zeta_n^k from int or Fraction terms."""
        d = math.lcm(*(c.denominator for c in terms.values()))
        return Scalar._make(n, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}, d)

    @staticmethod
    def _gauss(re: int, im: int, d: int) -> "Scalar":
        """Canonical (re + i im) / d for d > 0."""
        g = math.gcd(re, im, d)
        if g > 1:
            re //= g
            im //= g
            d //= g
        if im:
            return Scalar(4, {1: im, 0: re} if re else {1: im}, d, None)
        if re:
            return Scalar(1, {0: re}, d, None)
        return Scalar(1, {}, 1, None)

    @staticmethod
    def from_fraction(re, im=0) -> "Scalar":
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        return Scalar._gauss(re.numerator * (d // re.denominator),
                             im.numerator * (d // im.denominator), d)

    @staticmethod
    def from_int(k: int) -> "Scalar":
        return Scalar._gauss(int(k), 0, 1)

    @staticmethod
    def from_complex(z) -> "Scalar":
        return Scalar(0, None, 1, complex(z))

    @staticmethod
    def from_number(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        if isinstance(x, (float, complex)):
            return Scalar.from_complex(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")

    @staticmethod
    def root_of_unity(num: int, den: int) -> "Scalar":
        """Exact e^{2 pi i num/den}."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        return Scalar._make(den, {num % den: 1}, 1)

    # ------------------------------------------------------------ predicates

    @property
    def is_exact(self) -> bool:
        return self.n > 0

    def is_zero(self) -> bool:
        if self.n:
            return not self.num
        return self.f == 0

    # ------------------------------------------------------------ conversion

    @property
    def c(self) -> dict[int, Fraction]:
        """The exact terms as reduced Fractions, {k: num[k] / d}."""
        return {k: Fraction(c, self.d) for k, c in self.num.items()}

    def to_complex(self) -> complex:
        if not self.n:
            return self.f
        # int true division rounds correctly, so c / d is float(Fraction(c, d))
        z = 0j
        d = self.d
        for k, c in self.num.items():
            z += (c / d) * _root_complex(self.n, k)
        return z

    def gauss_parts(self) -> tuple[Fraction, Fraction] | None:
        """(re, im) as Fractions when the value is a rational complex number."""
        if self.n == 1 or self.n == 4:
            return (Fraction(self.num.get(0, 0), self.d), Fraction(self.num.get(1, 0), self.d))
        return None

    # ------------------------------------------------------------ arithmetic

    def _lift(self, L: int, scale: int) -> dict[int, int]:
        step = L // self.n
        return {k * step: c * scale for k, c in self.num.items()}

    def __add__(self, other) -> "Scalar":
        other = Scalar.from_number(other)
        n1, n2 = self.n, other.n
        if n1 and n2:
            a, b, d1, d2 = self.num, other.num, self.d, other.d
            if (n1 == 1 or n1 == 4) and (n2 == 1 or n2 == 4):
                if d1 == d2:
                    return Scalar._gauss(a.get(0, 0) + b.get(0, 0), a.get(1, 0) + b.get(1, 0), d1)
                return Scalar._gauss(a.get(0, 0) * d2 + b.get(0, 0) * d1,
                                     a.get(1, 0) * d2 + b.get(1, 0) * d1, d1 * d2)
            L = math.lcm(n1, n2)
            d = math.lcm(d1, d2)
            t = self._lift(L, d // d1)
            for k, c in other._lift(L, d // d2).items():
                t[k] = t.get(k, 0) + c
            return Scalar._make(L, t, d)
        return Scalar.from_complex(self.to_complex() + other.to_complex())

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        if self.n:
            return Scalar(self.n, {k: -c for k, c in self.num.items()}, self.d, None)
        return Scalar.from_complex(-self.f)

    def __sub__(self, other) -> "Scalar":
        return self + (-Scalar.from_number(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.from_number(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.from_number(other)
        n1, n2 = self.n, other.n
        if n1 and n2:
            if (n1 == 1 or n1 == 4) and (n2 == 1 or n2 == 4):
                a, b = self.num, other.num
                ar, ai, br, bi = a.get(0, 0), a.get(1, 0), b.get(0, 0), b.get(1, 0)
                return Scalar._gauss(ar * br - ai * bi, ar * bi + ai * br, self.d * other.d)
            L = math.lcm(n1, n2)
            b = other._lift(L, 1)
            t: dict[int, int] = {}
            for k1, c1 in self._lift(L, 1).items():
                for k2, c2 in b.items():
                    k = (k1 + k2) % L
                    t[k] = t.get(k, 0) + c1 * c2
            return Scalar._make(L, t, self.d * other.d)
        return Scalar.from_complex(self.to_complex() * other.to_complex())

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        n = self.n
        if not n:
            return Scalar.from_complex(1.0 / self.f)
        if n == 1 or n == 4:
            # d / (re + i im) = d (re - i im) / (re^2 + im^2)
            re, im = self.num.get(0, 0), self.num.get(1, 0)
            return Scalar._gauss(self.d * re, -self.d * im, re * re + im * im)
        # 1/x = others / N(x), others the product of sigma_k(x), gcd(k, n) = 1
        others = ONE
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * Scalar._make(n, {j * k: c for j, c in self.num.items()}, self.d)
        inv = others * (self * others).inverse()
        return Scalar(inv.n, dict(sorted(inv.num.items())), inv.d, None)

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.from_number(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.from_number(other) * self.inverse()

    def conj(self) -> "Scalar":
        n = self.n
        if not n:
            return Scalar.from_complex(self.f.conjugate())
        if n == 1:
            return Scalar(1, self.num, self.d, None)
        if n == 4:
            re, im = self.num.get(0, 0), self.num[1]
            return Scalar(4, {0: re, 1: -im} if re else {1: -im}, self.d, None)
        return Scalar._make(n, {(n - k) % n: c for k, c in self.num.items()}, self.d)

    def abs2(self) -> "Scalar":
        return self * self.conj()

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # -------------------------------------------------------------- equality

    def __eq__(self, other) -> bool:
        try:
            other = Scalar.from_number(other)
        except TypeError:
            return NotImplemented
        if self.n and other.n:
            return self.n == other.n and self.d == other.d and self.num == other.num
        return abs(self.to_complex() - other.to_complex()) <= FLOAT_EQ_TOL

    def identical(self, other: "Scalar") -> bool:
        """Strict structural equality (no tolerance on the float side)."""
        if self.n != other.n:
            return False
        if self.n:
            return self.d == other.d and self.num == other.num
        return self.f == other.f

    def __repr__(self) -> str:
        if not self.n:
            return f"Scalar({self.f!r})"
        g = self.gauss_parts()
        if g is not None:
            return f"Scalar({g[0]}{'+' if g[1] >= 0 else ''}{g[1]}i)"
        return f"Scalar(zeta_{self.n}: {sorted(self.c.items())})"


@lru_cache(maxsize=None)
def _root_complex(n: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / n)


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)


def rational_angle(theta) -> Fraction | None:
    """Interpret theta as an exact rational number of turns, if possible.

    Fractions and ints pass through; floats convert via their exact binary
    value (so 0.5 is 1/2 but 1/3 as a float is not recognized as rational).
    """
    if isinstance(theta, (Fraction, int)):
        return Fraction(theta)
    if isinstance(theta, float):
        return Fraction(theta)
    return None


def phase_scalar(mult: int, theta) -> Scalar:
    """e^{2 pi i mult theta}: exact root of unity for rational theta with a
    small denominator, float-tagged otherwise."""
    fr = rational_angle(theta)
    if fr is not None and fr.denominator <= EXACT_PHASE_DENOMINATOR_BOUND:
        return Scalar.root_of_unity(mult * fr.numerator, fr.denominator)
    return Scalar.from_complex(cmath.exp(2j * math.pi * mult * float(theta)))
