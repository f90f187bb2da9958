import json
from fractions import Fraction

from bdtk import corpus as cp
from bdtk import serialize as ser
from bdtk.arith import Supernatural, INF
from bdtk.bd import bd_equal, bd_rho
from bdtk.bdt import bdt_equal
from bdtk.scalars import Scalar
from bdtk.ulc import ulc, ulc_equal


def test_scalar_roundtrip():
    for z in [Scalar.from_fraction(Fraction(3, 4), Fraction(-1, 2)),
              Scalar.from_int(0),
              Scalar.root_of_unity(2, 7),
              Scalar.from_complex(0.125 - 2.5j)]:
        enc = ser.encode_scalar(z)
        json.dumps(enc)
        back = ser.decode_scalar(enc)
        assert back.identical(z)


def test_supernatural_roundtrip():
    S = Supernatural({2: INF, 3: 1, 7: 2})
    assert ser.decode_supernatural(ser.encode_supernatural(S)) == S


def test_ulc_roundtrip_exact_and_float():
    f = ulc([Fraction(1, 2), Fraction(-2, 3)])
    assert ser.decode_ulc(ser.encode_ulc(f)).values == f.values
    g = ulc([0.5, 1j, -0.5, -1j])
    enc = ser.encode_ulc(g)
    assert enc.get("float") is True
    assert ulc_equal(ser.decode_ulc(enc), g)


def test_corpus_roundtrip_structural_equality(rng, S23):
    for _ in range(40):
        b = cp.rand_bd(rng, S23)
        assert bd_equal(ser.decode_bd(ser.encode_bd(b)), b)
        a = cp.rand_bdt(rng, S23)
        back = ser.decode_bdt(json.loads(json.dumps(ser.encode_bdt(a))))
        assert bdt_equal(back, a)
        assert back.is_exact == a.is_exact


def test_exact_phase_roundtrip(rng, S23):
    # rho at a rational angle keeps exact roots of unity through JSON
    b = cp.rand_bd(rng, S23)
    rotated = bd_rho(b, Fraction(1, 3))
    assert rotated.is_exact
    back = ser.decode_bd(json.loads(json.dumps(ser.encode_bd(rotated))))
    assert back.is_exact
    assert bd_equal(back, rotated)


def test_derivation_roundtrip(rng, S23):
    d = cp.rand_derivation(rng, S23)
    back = ser.decode_derivation(ser.encode_derivation(d))
    assert back.gamma == d.gamma
    assert bd_equal(back.x.symbol, d.x.symbol)
    assert back.x.compact.equal(d.x.compact)


def test_element_sniffing(rng, S23):
    b = cp.rand_bd(rng, S23)
    a = cp.rand_bdt(rng, S23)
    c = cp.rand_compact(rng)
    assert bd_equal(ser.decode_element(ser.encode_bd(b)), b)
    assert bdt_equal(ser.decode_element(ser.encode_bdt(a)), a)
    assert ser.decode_element(ser.encode_compact(c)).equal(c)
