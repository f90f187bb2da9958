"""JSON interchange for every value type.

Scalar encodings: exact rational complex numbers are 4-tuples
[re_num, re_den, im_num, im_den]; float-tagged scalars are [re, im] pairs;
exact roots-of-unity combinations that are not rational complex use
{"order": n, "terms": [[k, num, den], ...]} so that round trips stay exact.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

from .arith import INF, Supernatural
from .bd import BdElement, bd_element
from .bdt import BdtElement
from .calculus import CertifiedElement
from .compact import CompactMatrix
from .derivations import DerivationSpec
from .index import IndexResult
from .scalars import Scalar
from .ulc import UlcFunction, ulc

# Caps on decoded sizes, far above the JSON the tests and the benchmark decode
# (orders, periods, band indices and compact entry indices up to 12, 12, 4
# and 7): the cost of exact arithmetic grows faster than linearly in the
# cyclotomic order, a band index sets the degree of every symbol polynomial,
# and a compact entry index sets the truncation padding of fredholm_index, so
# an uncapped value can keep a command running without bound.
MAX_ORDER = 1024
MAX_PERIOD = 1024
MAX_BAND = 1024
MAX_INDEX = 1024


def _int(value) -> int:
    """value when it is a JSON integer; anything else (a float, even 1.0 or
    an infinity, or a boolean) is malformed input."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _capped(name: str, value, cap: int) -> int:
    """_int(value), or ValueError when its magnitude exceeds cap."""
    n = _int(value)
    if abs(n) > cap:
        raise ValueError(f"{name} {n} exceeds the cap {cap}")
    return n


def encode_scalar(z: Scalar):
    if not z.is_exact:
        return [z.f.real, z.f.imag]
    g = z.gauss_parts()
    if g is not None:
        re, im = g
        return [re.numerator, re.denominator, im.numerator, im.denominator]
    return {
        "order": z.n,
        "terms": [[k, c.numerator, c.denominator] for k, c in sorted(z.c.items())],
    }


def _decode_fraction(num, den) -> Fraction:
    if _int(den) == 0:
        raise ValueError("zero denominator in a scalar encoding")
    return Fraction(_int(num), _int(den))


def _finite(re, im) -> complex:
    """complex(re, im) from JSON numbers; booleans, NaN, infinities and
    integers beyond double range are malformed input."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValueError("boolean in a scalar encoding")
    try:
        z = complex(re, im)
    except OverflowError:
        raise ValueError("scalar value beyond double range") from None
    if not cmath.isfinite(z):
        raise ValueError("non-finite value in a scalar encoding")
    return z


def decode_scalar(obj) -> Scalar:
    if isinstance(obj, dict):
        n = _capped("scalar order", obj["order"], MAX_ORDER)
        if n < 1:
            raise ValueError(f"scalar order must be positive, got {n}")
        terms = {_int(k): _decode_fraction(p, q) for k, p, q in obj["terms"]}
        return Scalar._exact(n, terms)
    if isinstance(obj, bool):
        raise ValueError("boolean scalar encoding")
    if isinstance(obj, int):
        return Scalar.from_number(obj)
    if isinstance(obj, float):
        return Scalar.from_complex(_finite(obj, 0.0))
    if len(obj) == 2:
        return Scalar.from_complex(_finite(obj[0], obj[1]))
    if len(obj) == 4:
        return Scalar.from_fraction(_decode_fraction(obj[0], obj[1]),
                                    _decode_fraction(obj[2], obj[3]))
    raise ValueError(f"bad scalar encoding: {obj!r}")


def encode_ulc(f: UlcFunction) -> dict:
    out = {"period": f.period, "values": [encode_scalar(v) for v in f.values]}
    if not f.is_exact:
        out["float"] = True
    return out


def decode_ulc(obj) -> UlcFunction:
    period = _capped("period", obj["period"], MAX_PERIOD)
    vals = [decode_scalar(v) for v in obj["values"]]
    if len(vals) != period:
        raise ValueError("period does not match value count")
    return ulc(vals)


def encode_supernatural(S: Supernatural) -> list:
    return [[p, "inf" if e == INF else e] for p, e in S.exponents.items()]


def decode_supernatural(obj) -> Supernatural:
    return Supernatural({_int(p): (INF if e == "inf" else _int(e)) for p, e in obj})


def encode_bd(b: BdElement) -> dict:
    return {
        "S": encode_supernatural(b.S),
        "bands": [[n, encode_ulc(f)] for n, f in sorted(b.bands.items())],
    }


def decode_bd(obj) -> BdElement:
    S = decode_supernatural(obj["S"])
    return bd_element(S, {_capped("band index", n, MAX_BAND): decode_ulc(f)
                          for n, f in obj["bands"]})


def encode_compact(c: CompactMatrix) -> dict:
    return {
        "entries": [[k, s, encode_scalar(v)] for (k, s), v in sorted(c.entries.items())]
    }


def decode_compact(obj) -> CompactMatrix:
    entries = {}
    for k, s, v in obj["entries"]:
        cell = (_capped("entry index", k, MAX_INDEX), _capped("entry index", s, MAX_INDEX))
        entries[cell] = decode_scalar(v)
    return CompactMatrix(entries)


def encode_bdt(a: BdtElement) -> dict:
    return {"symbol": encode_bd(a.symbol), "compact": encode_compact(a.compact)}


def decode_bdt(obj) -> BdtElement:
    return BdtElement(decode_bd(obj["symbol"]), decode_compact(obj["compact"]))


def encode_derivation(d: DerivationSpec) -> dict:
    return {
        "gamma": encode_scalar(d.gamma),
        "b": encode_bd(d.symbol_part),
        "c": encode_compact(d.compact_part),
    }


def decode_derivation(obj) -> DerivationSpec:
    return DerivationSpec(
        decode_scalar(obj["gamma"]), decode_bd(obj["b"]), decode_compact(obj["c"])
    )


def encode_certified(ce: CertifiedElement) -> dict:
    return {"value": encode_element(ce.value), "residual_bound": ce.residual_bound,
            "method": ce.method}


def encode_index_result(r: IndexResult) -> dict:
    return {
        "index": r.index,
        "kernel_dims": [list(t) for t in r.kernel_dims],
        "stabilized": r.stabilized,
    }


def decode_element(obj):
    """Sniff the payload type: band element, Toeplitz-form element, compact
    matrix or derivation."""
    if "symbol" in obj and "compact" in obj:
        return decode_bdt(obj)
    if "bands" in obj:
        return decode_bd(obj)
    if "entries" in obj:
        return decode_compact(obj)
    if "gamma" in obj:
        return decode_derivation(obj)
    raise ValueError("unrecognized element payload")


def encode_element(x) -> dict:
    """The payload decode_element reads back as x."""
    if isinstance(x, BdtElement):
        return encode_bdt(x)
    if isinstance(x, BdElement):
        return encode_bd(x)
    if isinstance(x, CompactMatrix):
        return encode_compact(x)
    if isinstance(x, DerivationSpec):
        return encode_derivation(x)
    raise TypeError(f"cannot encode {type(x).__name__}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str):
    return json.loads(text)
