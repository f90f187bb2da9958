import json
import math
import random
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bdtk.bd import bd_element
from bdtk.cli import cli_dispatch
from bdtk.scalars import ONE, Scalar, cyclotomic_polynomial, phase_scalar
from bdtk.serialize import encode_bd, encode_scalar
from bdtk.ulc import ulc

from .oracles import (
    ref_add,
    ref_canonicalize,
    ref_conj,
    ref_encode,
    ref_inverse,
    ref_mul,
    ref_to_complex,
)

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=8)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_cancel():
    for n in (2, 3, 4, 5, 6, 8, 9, 12, 15):
        s = Scalar.from_int(0)
        for j in range(n):
            s = s + Scalar.root_of_unity(j, n)
        assert s.is_zero(), n


def test_partial_sums_cancel_over_subgroup():
    # sum over j of zeta_9^{3j} = 3 (1 + zeta_3 + zeta_3^2) = 0
    s = Scalar.from_int(0)
    for j in range(9):
        s = s + Scalar.root_of_unity(3 * j, 9)
    assert s.is_zero()


def test_canonical_orders():
    assert Scalar.root_of_unity(1, 2) == Scalar.from_int(-1)
    assert Scalar.root_of_unity(1, 4) == Scalar.from_fraction(0, 1)
    assert Scalar.root_of_unity(2, 8) == Scalar.from_fraction(0, 1)
    z6 = Scalar.root_of_unity(1, 6)
    assert z6.n == 3  # zeta_6 = -zeta_3^2 lives at order 3
    assert abs(z6.to_complex() - complex(0.5, 3 ** 0.5 / 2)) < 1e-14


def test_exact_division():
    for l, n in [(3, 1), (5, 2), (8, 3), (9, 4), (12, 5), (7, 6)]:
        w = Scalar.from_int(1) - Scalar.root_of_unity(n, l)
        assert (w * w.inverse()) == Scalar.from_int(1)


def test_cli_inverts_an_order_257_value(tmp_path, capsys, S23):
    # one-band exact elements invert entrywise; the field norm takes
    # phi(257) - 2 = 254 products for this value
    rng = random.Random(257)
    x = Scalar._exact(257, {k: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                            for k in rng.sample(range(256), 4)})
    path = tmp_path / "b.json"
    path.write_text(json.dumps(encode_bd(bd_element(S23, {0: ulc([x])}))))
    start = time.perf_counter()
    assert cli_dispatch(["invert", str(path)]) == 0
    assert time.perf_counter() - start < 3.0
    assert json.loads(capsys.readouterr().out)["method"] == "exact-monomial-inverse"
    assert x * x.inverse() == ONE


@given(fracs, fracs, fracs, fracs)
def test_gaussian_field_laws(a, b, c, d):
    x = Scalar.from_fraction(a, b)
    y = Scalar.from_fraction(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero():
        assert (x * y) / y == x


@given(st.integers(0, 30), st.integers(1, 30), st.integers(0, 30), st.integers(1, 30))
def test_phase_multiplicativity(p1, q1, p2, q2):
    z1 = Scalar.root_of_unity(p1, q1)
    z2 = Scalar.root_of_unity(p2, q2)
    prod = z1 * z2
    assert abs(prod.to_complex() - z1.to_complex() * z2.to_complex()) < 1e-12
    assert prod.abs2() == Scalar.from_int(1)


def test_conjugation():
    z = Scalar.root_of_unity(2, 7)
    assert z.conj() == Scalar.root_of_unity(5, 7)
    assert (z * z.conj()) == Scalar.from_int(1)
    x = Scalar.from_fraction(Fraction(3, 4), Fraction(-1, 2))
    assert x.conj().gauss_parts() == (Fraction(3, 4), Fraction(1, 2))


def test_float_tag_propagation():
    e = Scalar.from_fraction(1, 2)
    f = Scalar.from_complex(0.25 + 0j)
    assert e.is_exact and not f.is_exact
    assert not (e * f).is_exact
    assert e * f == Scalar.from_fraction(Fraction(1, 4), Fraction(1, 2))


def test_float_equality_tolerance():
    a = Scalar.from_complex(1.0 + 1e-13j)
    assert a == Scalar.from_int(1)
    b = Scalar.from_complex(1.0 + 1e-9j)
    assert b != Scalar.from_int(1)


def test_phase_scalar_rational_vs_float():
    assert phase_scalar(1, Fraction(1, 2)) == Scalar.from_int(-1)
    assert phase_scalar(1, Fraction(1, 2)).is_exact
    assert phase_scalar(1, 0.5).is_exact  # exact binary rational
    assert not phase_scalar(1, 1 / 3).is_exact
    assert not phase_scalar(1, Fraction(1, 97)).is_exact  # denominator above the bound


ORDERS = (1, 3, 4, 5, 7, 9, 11, 12, 28, 36)


@st.composite
def exact_terms(draw):
    """(order, terms) with terms keyed past the order, so canonicalization
    reduces modulo Phi_n and may lower the order."""
    n = draw(st.sampled_from(ORDERS))
    terms = draw(st.dictionaries(st.integers(0, 2 * n), fracs, max_size=6))
    return n, terms


def _same(got: Scalar, want) -> None:
    assert (got.n, list(got.c.items())) == (want[0], list(want[1].items()))
    z, w = got.to_complex(), ref_to_complex(want)
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
    assert encode_scalar(got) == ref_encode(want)


@settings(deadline=None)
@given(exact_terms(), exact_terms())
def test_integer_form_matches_fraction_reference(xt, yt):
    x, y = Scalar._exact(*xt), Scalar._exact(*yt)
    xr, yr = ref_canonicalize(*xt), ref_canonicalize(*yt)
    _same(x, xr)
    _same(y, yr)
    _same(x + y, ref_add(xr, yr))
    _same(x * y, ref_mul(xr, yr))
    _same(x.conj(), ref_conj(xr))
    if not x.is_zero():
        _same(x.inverse(), ref_inverse(xr))
    assert math.gcd(x.d, *x.num.values()) == 1 and x.d > 0
