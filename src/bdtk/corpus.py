"""Seeded random corpora for the property suites.

Desk-scale defaults: band indices in [-4, 4], periods among the divisors of
l_max that divide S, exact rational coefficients with numerators and
denominators up to 16, compact supports inside [0, 8)^2.  Everything is
drawn from a single random.Random stream so suites are reproducible from the
seed alone."""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import Supernatural, INF, sn_divides
from .bd import BdElement, bd_add, bd_adjoint, bd_element, bd_scale
from .bdt import BdtElement, bdt
from .compact import CompactMatrix, k_add, k_adjoint, k_scale
from .derivations import DerivationSpec, derivation
from .scalars import Scalar
from .ulc import UlcFunction, ulc

DEFAULT_S = Supernatural({2: INF, 3: 1})

MAX_BAND = 4
MAX_NUMERATOR = 16
COMPACT_SUPPORT = 8


def divisors_of(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def rand_fraction(rng: random.Random, top: int = MAX_NUMERATOR) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def rand_scalar(rng: random.Random, top: int = MAX_NUMERATOR) -> Scalar:
    return Scalar.from_fraction(rand_fraction(rng, top), rand_fraction(rng, top))


def rand_ulc(rng: random.Random, S: Supernatural, l_max: int = 12,
             top: int = MAX_NUMERATOR) -> UlcFunction:
    periods = [d for d in divisors_of(l_max) if sn_divides(d, S)]
    l = rng.choice(periods)
    return ulc([rand_scalar(rng, top) for _ in range(l)])


def rand_bd(rng: random.Random, S: Supernatural, max_band: int = MAX_BAND,
            n_bands: int | None = None, l_max: int = 12,
            top: int = MAX_NUMERATOR) -> BdElement:
    if n_bands is None:
        n_bands = rng.randint(1, 4)
    idx = rng.sample(range(-max_band, max_band + 1), min(n_bands, 2 * max_band + 1))
    return bd_element(S, {n: rand_ulc(rng, S, l_max, top) for n in idx})


def rand_selfadjoint_bd(rng: random.Random, S: Supernatural, **kw) -> BdElement:
    b = rand_bd(rng, S, **kw)
    return bd_scale(Fraction(1, 2), bd_add(b, bd_adjoint(b)))


def rand_compact(rng: random.Random, support: int = COMPACT_SUPPORT,
                 nnz: int | None = None, top: int = MAX_NUMERATOR) -> CompactMatrix:
    if nnz is None:
        nnz = rng.randint(1, 10)
    ent = {}
    for _ in range(nnz):
        ent[(rng.randrange(support), rng.randrange(support))] = rand_scalar(rng, top)
    return CompactMatrix(ent)


def rand_selfadjoint_compact(rng: random.Random, **kw) -> CompactMatrix:
    c = rand_compact(rng, **kw)
    return k_scale(Fraction(1, 2), k_add(c, k_adjoint(c)))


def rand_bdt(rng: random.Random, S: Supernatural, **kw) -> BdtElement:
    return bdt(rand_bd(rng, S, **kw), rand_compact(rng))


def rand_invertible_bd(rng: random.Random, S: Supernatural) -> tuple[BdElement, int]:
    """A certified-invertible element: one dominant band with unimodulus-bounded
    values plus a perturbation of total sup-norm below the dominance margin.
    Returns (element, dominant band index); the expected index of its Toeplitz
    lift is minus that band index."""
    w = rng.randint(-MAX_BAND, MAX_BAND)
    periods = [d for d in divisors_of(12) if sn_divides(d, S)]
    l = rng.choice(periods)
    vals = []
    for _ in range(l):
        sign = rng.choice([1, -1])
        vals.append(Scalar.from_fraction(Fraction(sign * rng.randint(4, 8), 4),
                                         Fraction(rng.randint(-2, 2), 8)))
    bands = {w: ulc(vals)}
    n_extra = rng.randint(0, 2)
    for _ in range(n_extra):
        n = rng.randint(-MAX_BAND, MAX_BAND)
        if n == w or n in bands:
            continue
        # keep the total perturbation below 0.2 << 1 <= min |dominant|, so the
        # inverse's bands decay fast enough for desk-scale certificates
        bands[n] = ulc([Scalar.from_fraction(Fraction(rng.randint(-1, 1), 16),
                                             Fraction(rng.randint(-1, 1), 16))
                        for _ in range(rng.choice(periods))])
    return bd_element(S, bands), w


def rand_derivation(rng: random.Random, S: Supernatural, **kw) -> DerivationSpec:
    return derivation(S, rand_fraction(rng, 4), rand_bd(rng, S, **kw), rand_compact(rng))
