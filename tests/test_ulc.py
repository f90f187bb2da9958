from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdtk.bd import bd_element
from bdtk.scalars import Scalar
from bdtk.ulc import (
    ulc,
    ulc_add,
    ulc_character,
    ulc_conj,
    ulc_equal,
    ulc_eval,
    ulc_mul,
    ulc_scale,
    ulc_shift,
    ulc_sup_norm,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _rand_ulc(draw_vals):
    return ulc([Scalar.from_fraction(v) for v in draw_vals])


def test_eval():
    f = ulc([1, 2, 3])
    assert ulc_eval(f, 4) == Scalar.from_int(2)
    assert ulc_eval(f, -1) == Scalar.from_int(3)
    assert ulc_eval(ulc([Fraction(5, 7)]), 123) == Scalar.from_fraction(Fraction(5, 7))


def test_shift():
    f = ulc([1, 2, 3])
    assert ulc_shift(f, 1).values == ulc([2, 3, 1]).values
    assert ulc_shift(f, 0).values == f.values
    assert ulc_shift(f, 3).values == f.values


@given(st.lists(fracs, min_size=1, max_size=12), st.integers(-100, 100), st.integers(-100, 100))
@settings(max_examples=60)
def test_shift_eval_compatibility(vals, k, m):
    f = _rand_ulc(vals)
    assert ulc_eval(ulc_shift(f, m), k) == ulc_eval(f, k + m)


@given(st.lists(fracs, min_size=1, max_size=12), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60)
def test_shift_composition(vals, m, n):
    f = _rand_ulc(vals)
    assert ulc_shift(ulc_shift(f, m), n).values == ulc_shift(f, m + n).values


def test_minimal_period_canonicalization():
    f = ulc([1, 2, 1, 2])
    assert f.period == 2
    g = ulc([7, 7, 7])
    assert g.period == 1


def test_pointwise_add_refines():
    f = ulc([Fraction(1)])
    g = ulc([2, 3])
    h = ulc_add(f, g)
    assert h.period == 2
    assert [v.gauss_parts()[0] for v in h.values] == [3, 4]


def test_pointwise_mul_conj_gives_modulus_squared():
    f = ulc([Scalar.from_fraction(1, 2), Scalar.from_fraction(-2, 0), Scalar.from_fraction(0, 3)])
    h = ulc_mul(f, ulc_conj(f))
    assert [v.gauss_parts() for v in h.values] == [
        (Fraction(5), Fraction(0)), (Fraction(4), Fraction(0)), (Fraction(9), Fraction(0))
    ]


def test_pointwise_scale_zero():
    f = ulc([1, 2, 3])
    assert ulc_scale(0, f).is_zero()


def test_period_must_divide_ambient(S23):
    f = ulc([1, 2, 3, 4, 5])  # period 5 does not divide S = 2^inf * 3
    with pytest.raises(ValueError):
        bd_element(S23, {0: f})


def test_sup_norm():
    assert ulc_sup_norm(ulc([Fraction(-7, 2)])) == 3.5
    f = ulc([Scalar.from_fraction(1), Scalar.from_fraction(-2), Scalar.from_fraction(0, 1)])
    assert ulc_sup_norm(f) == 2.0
    assert ulc_sup_norm(ulc([0, 0])) == 0.0


def test_refinement_preserves_sup_norm():
    f = ulc([1, -2, 3])
    from bdtk.ulc import ulc_refine

    refined = ulc(list(ulc_refine(f, 12)))
    assert refined.period == 3  # canonicalization undoes refinement
    assert ulc_sup_norm(refined) == ulc_sup_norm(f)


def test_characters():
    assert ulc_character(5, 0).period == 1
    assert ulc_equal(ulc_character(2, 1), ulc([1, -1]))
    chi = ulc_character(4, 1)
    expect = [1, 1j, -1, -1j]
    assert all(abs(ulc_eval(chi, k).to_complex() - expect[k]) < 1e-12 for k in range(4))
    assert chi.is_exact


@given(st.integers(1, 12), st.integers(0, 11), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60)
def test_character_multiplicative(l, j, k1, k2):
    chi = ulc_character(l, j)
    lhs = ulc_eval(chi, k1 + k2).to_complex()
    rhs = ulc_eval(chi, k1).to_complex() * ulc_eval(chi, k2).to_complex()
    assert abs(lhs - rhs) <= 1e-12


def test_float_tag_switches_equality():
    exact = ulc([Fraction(1, 2)])
    approx = ulc([Scalar.from_complex(0.5 + 1e-14j)])
    assert not approx.is_exact
    assert ulc_equal(exact, approx)
