import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdtk.arith import (
    INF,
    GsRational,
    Residue,
    Supernatural,
    embed_int,
    gs_add,
    gs_contains,
    odometer,
    parse_supernatural,
    sn_divides,
)
from bdtk.errors import MembershipError


def test_supernatural_validation():
    S = Supernatural({2: INF, 3: 1})
    assert S.is_infinite()
    assert not Supernatural({2: 5}).is_infinite()
    with pytest.raises(ValueError):
        Supernatural({4: 1})
    with pytest.raises(ValueError):
        Supernatural({2: -1})
    # exponent-0 entries normalize away
    assert Supernatural({2: INF, 5: 0}) == Supernatural({2: INF})


def test_sn_divides_examples(S23, S2):
    assert sn_divides(6, S23)
    assert not sn_divides(9, S23)
    assert sn_divides(1024, S2)
    assert sn_divides(1, S2)


def test_divisor_lattice_closed_under_lcm(S2, S23, S6):
    for S in (S2, S23, S6):
        divisors = [l for l in range(1, 65) if sn_divides(l, S)]
        for a in divisors:
            for b in divisors:
                assert sn_divides(a * b // math.gcd(a, b), S)


def test_embed_int():
    assert embed_int(7, 4) == Residue(3, 4)
    assert embed_int(-1, 5) == Residue(4, 5)
    assert embed_int(0, 9) == Residue(0, 9)


@given(st.integers(-300, 300), st.integers(1, 64))
def test_embed_periodicity(k, l):
    assert embed_int(k + l, l) == embed_int(k, l)


def test_odometer_examples():
    assert odometer(Residue(2, 3), 1) == Residue(0, 3)
    x = Residue(4, 7)
    assert odometer(x, 0) == x
    assert odometer(Residue(0, 6), -1) == Residue(5, 6)


@given(st.integers(1, 64), st.integers(-128, 128), st.integers(-128, 128))
def test_odometer_composition(level, m, n):
    x = Residue(abs(m) % level, level)
    assert odometer(odometer(x, m), n) == odometer(x, m + n)


def test_gs_membership(S23, S2):
    assert gs_contains(Fraction(1, 2), S23)
    assert not gs_contains(Fraction(1, 9), S23)
    assert gs_contains(Fraction(4, 2), S2)  # reduces to an integer
    assert not gs_contains(Fraction(1, 3), S2)


def test_membership_of_large_denominators_is_bounded(S2, S23):
    # the primes of S are divided out of l, so l is never factored: trial
    # division of the prime 10^17 + 3 alone takes tens of seconds
    start = time.perf_counter()
    assert not gs_contains(Fraction(1, 10 ** 17 + 3), S2)
    assert gs_contains(Fraction(1, 2 ** 200), S2)
    assert not sn_divides(2 ** 200 * 9, S23)
    assert time.perf_counter() - start < 1.0


def test_gs_add(S23, S2):
    q = gs_add(GsRational(1, 2), GsRational(1, 3), S23)
    assert (q.numerator, q.denominator) == (5, 6)
    q = gs_add(GsRational(1, 2), GsRational(-1, 2), S2)
    assert (q.numerator, q.denominator) == (0, 1)
    q = gs_add(GsRational(1, 4), GsRational(1, 4), S2)
    assert (q.numerator, q.denominator) == (1, 2)
    with pytest.raises(MembershipError):
        gs_add(GsRational(1, 3), GsRational(1, 2), S2)


@given(st.integers(-99, 99), st.integers(-99, 99), st.integers(0, 5), st.integers(0, 5))
def test_gs_closure(k1, k2, e1, e2):
    S = Supernatural({2: INF, 3: 1})
    q1 = GsRational.from_fraction(Fraction(k1, 2 ** e1 * 3))
    q2 = GsRational.from_fraction(Fraction(k2, 2 ** e2))
    s = gs_add(q1, q2, S)
    assert gs_contains(s, S)
    assert s.as_fraction() == q1.as_fraction() + q2.as_fraction()


def test_parse_supernatural():
    S = parse_supernatural("2:inf,3:1")
    assert S.exponent_of(2) == INF and S.exponent_of(3) == 1
    assert parse_supernatural("12") == Supernatural({2: 2, 3: 1})
    assert parse_supernatural("1") == Supernatural({})
