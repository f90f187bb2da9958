"""Uniformly locally constant functions on Z/SZ.

A UlcFunction is a period-l function stored as one period of values; the
band-element constructor (bd.bd_element) checks that the periods divide the
ambient supernatural number.  Every constructor reduces to the minimal
period so that structural equality is canonical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .scalars import Scalar


@dataclass(frozen=True, eq=False)
class UlcFunction:
    period: int
    values: tuple[Scalar, ...]

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.values)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __repr__(self) -> str:
        return f"UlcFunction(l={self.period}, {list(self.values)})"


def ulc(values) -> UlcFunction:
    """Build a ULC function from one period of values (minimal-period form)."""
    vals = tuple(Scalar.from_number(v) for v in values)
    l = len(vals)
    if l == 0:
        raise ValueError("need at least one value")
    for d in range(1, l + 1):
        if l % d == 0 and all(vals[r].identical(vals[r % d]) for r in range(l)):
            return UlcFunction(d, vals[:d])
    return UlcFunction(l, vals)


def ulc_eval(f: UlcFunction, k: int) -> Scalar:
    """f(k) with the integer k regarded in Z/SZ (Euclidean remainder)."""
    return f.values[k % f.period]


def ulc_shift(f: UlcFunction, m: int) -> UlcFunction:
    """f composed with m odometer steps: (f o phi^m)(x) = f(x + m)."""
    l = f.period
    return UlcFunction(l, tuple(f.values[(r + m) % l] for r in range(l)))


def ulc_refine(f: UlcFunction, l: int) -> tuple[Scalar, ...]:
    """Values of f listed over a period l that f.period divides."""
    if l % f.period:
        raise ValueError("refinement target must be a multiple of the period")
    return tuple(f.values[r % f.period] for r in range(l))


def ulc_add(f: UlcFunction, g: UlcFunction) -> UlcFunction:
    l = math.lcm(f.period, g.period)
    fv, gv = ulc_refine(f, l), ulc_refine(g, l)
    return ulc([a + b for a, b in zip(fv, gv)])


def ulc_mul(f: UlcFunction, g: UlcFunction) -> UlcFunction:
    l = math.lcm(f.period, g.period)
    fv, gv = ulc_refine(f, l), ulc_refine(g, l)
    return ulc([a * b for a, b in zip(fv, gv)])


def ulc_conj(f: UlcFunction) -> UlcFunction:
    return ulc([v.conj() for v in f.values])


def ulc_scale(z, f: UlcFunction) -> UlcFunction:
    z = Scalar.from_number(z)
    return ulc([z * v for v in f.values])


def ulc_sup_norm(f: UlcFunction) -> float:
    """sup |f| over Z/SZ, computed in floating point."""
    return max(abs(v) for v in f.values)


def ulc_character(l: int, j: int, exact: bool = False) -> UlcFunction:
    """The character x -> e^{2 pi i j x / l} at level l.

    By default the values are float-tagged.  exact=True stores them as exact
    roots of unity, which the derivation-reconstruction machinery needs in
    order to recover matrix coefficients exactly.
    """
    if l < 1:
        raise ValueError("level must be positive")
    if exact:
        return ulc([Scalar.root_of_unity(j * r, l) for r in range(l)])
    return ulc([Scalar.from_complex(cmath.exp(2j * cmath.pi * j * r / l)) for r in range(l)])


def ulc_equal(f: UlcFunction, g: UlcFunction) -> bool:
    """Scalar equality at every point of the common refinement."""
    l = math.lcm(f.period, g.period)
    return all(a == b for a, b in zip(ulc_refine(f, l), ulc_refine(g, l)))
