"""Command-line surface.

Subcommands operate on the JSON interchange formats; element arguments are
file paths or "-" for standard input.  Exit codes: 0 success, 1 mathematical
failure (e.g. NOT_INVERTIBLE, failed verification), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import serialize as ser
from .arith import gs_add, gs_contains, parse_supernatural
from .bd import BdElement, bd_adjoint, bd_fourier, bd_mul, bd_norm, bd_p_norm
from .bdt import (
    BdtElement,
    bdt_adjoint,
    bdt_fourier,
    bdt_mul,
    correction,
    tau,
    toeplitz,
)
from .calculus import bd_exp, bd_invert, bdt_invert, k_exp, smooth_calc
from .compact import CompactMatrix, k_mn_norm
from .derivations import der_apply, der_as_callable, der_component, der_reconstruct
from .errors import BdtkError
from .index import fredholm_index, k0_demo
from .verify import SUITES, report_to_json, run_suite


def _read_json(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.load(fh)


def _load_element(path: str, *types):
    """Decode the element in `path`; any type outside `types` is malformed
    input for the command."""
    x = ser.decode_element(_read_json(path))
    if not isinstance(x, types):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"expected {names}, got {type(x).__name__}")
    return x


def _emit(payload, args) -> None:
    text = payload if isinstance(payload, str) else ser.dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose rejections raise ValueError instead of
    printing usage text, so cli_dispatch reports them as a JSON BAD_INPUT
    error; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call, so one parser serves every request."""
    p = _Parser(prog="bdtk", description=__doc__)
    p.add_argument("--out", help="write output to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mul", help="product of two elements (band or Toeplitz form)")
    sp.add_argument("a")
    sp.add_argument("b")

    sp = sub.add_parser("adjoint", help="adjoint of an element")
    sp.add_argument("a")

    sp = sub.add_parser("norm", help="graded norm: --P for band elements, --M/--N for compacts")
    sp.add_argument("a")
    sp.add_argument("--P", type=int)
    sp.add_argument("--M", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("toeplitz", help="Toeplitz lift of a band element")
    sp.add_argument("b")

    sp = sub.add_parser("tau", help="symbol of a Toeplitz-form element")
    sp.add_argument("a")

    sp = sub.add_parser("correction", help="T(b1)T(b2) - T(b1 b2)")
    sp.add_argument("b1")
    sp.add_argument("b2")

    sp = sub.add_parser("fourier", help="n-th Fourier component")
    sp.add_argument("a")
    sp.add_argument("-n", type=int, required=True)

    sp = sub.add_parser("invert", help="certified inverse")
    sp.add_argument("a")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-band", type=int, default=48)
    sp.add_argument("--sizes", default="64,128,256")

    sp = sub.add_parser("exp", help="certified e^{i a} for self-adjoint input")
    sp.add_argument("a")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-band", type=int, default=48)
    sp.add_argument("--S", default="2:inf", help="ambient S for compact input")

    sp = sub.add_parser("calc", help="smooth functional calculus from Fourier coefficients")
    sp.add_argument("a")
    sp.add_argument("--coeffs", required=True,
                    help='JSON file {"n": [re, im], ...} of Fourier coefficients')
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--tail-bound", type=float, default=0.0)

    sp = sub.add_parser("derivation", help="apply / component / reconstruct")
    dsub = sp.add_subparsers(dest="dcommand", required=True)
    d1 = dsub.add_parser("apply")
    d1.add_argument("d")
    d1.add_argument("a")
    d2 = dsub.add_parser("component")
    d2.add_argument("d")
    d2.add_argument("-n", type=int, required=True)
    d3 = dsub.add_parser("reconstruct")
    d3.add_argument("d")
    d3.add_argument("--band-limit", type=int, required=True)

    sp = sub.add_parser("index", help="numerical Fredholm index")
    sp.add_argument("a", nargs="?")
    sp.add_argument("--schedule", default="64,128,256,512")
    sp.add_argument("--k0-demo", action="store_true")
    sp.add_argument("--S", default="2:inf")

    sp = sub.add_parser("gs", help="membership/addition in G_S")
    sp.add_argument("--S", required=True)
    sp.add_argument("--q", help="rational like 1/9")
    sp.add_argument("--add", nargs=2, metavar=("Q1", "Q2"))

    sp = sub.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--cases", type=int)

    return p


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "mul":
        a = _load_element(args.a, BdElement, BdtElement)
        b = _load_element(args.b, type(a))
        _emit(ser.encode_element(bd_mul(a, b) if isinstance(a, BdElement) else bdt_mul(a, b)),
              args)
        return 0
    if cmd == "adjoint":
        a = _load_element(args.a, BdElement, BdtElement)
        out = bd_adjoint(a) if isinstance(a, BdElement) else bdt_adjoint(a)
        _emit(ser.encode_element(out), args)
        return 0
    if cmd == "norm":
        a = _load_element(args.a, BdElement, CompactMatrix)
        if isinstance(a, BdElement):
            P = args.P if args.P is not None else 0
            _emit({"norm": bd_p_norm(a, P, args.tol) if P else bd_norm(a, args.tol),
                   "P": P, "tol": args.tol}, args)
        else:
            M = args.M or 0
            N = args.N or 0
            _emit({"norm": k_mn_norm(a, M, N), "M": M, "N": N}, args)
        return 0
    if cmd == "toeplitz":
        _emit(ser.encode_bdt(toeplitz(_load_element(args.b, BdElement))), args)
        return 0
    if cmd == "tau":
        _emit(ser.encode_bd(tau(_load_element(args.a, BdtElement))), args)
        return 0
    if cmd == "correction":
        b1, b2 = _load_element(args.b1, BdElement), _load_element(args.b2, BdElement)
        _emit(ser.encode_compact(correction(b1, b2)), args)
        return 0
    if cmd == "fourier":
        a = _load_element(args.a, BdElement, BdtElement)
        if isinstance(a, BdElement):
            _emit(ser.encode_ulc(bd_fourier(a, args.n)), args)
        else:
            _emit(ser.encode_bdt(bdt_fourier(a, args.n)), args)
        return 0
    if cmd == "invert":
        a = _load_element(args.a, BdElement, BdtElement)
        if isinstance(a, BdElement):
            ce = bd_invert(a, args.tol, args.max_band)
        else:
            sizes = [int(s) for s in args.sizes.split(",")]
            ce = bdt_invert(a, args.tol, sizes)
        _emit(ser.encode_certified(ce), args)
        return 0
    if cmd == "exp":
        a = _load_element(args.a, BdElement, CompactMatrix)
        if isinstance(a, BdElement):
            ce = bd_exp(a, args.tol, args.max_band)
            _emit(ser.encode_certified(ce), args)
        else:
            out = k_exp(a, parse_supernatural(args.S))
            _emit(ser.encode_bdt(out), args)
        return 0
    if cmd == "calc":
        a = _load_element(args.a, BdtElement)
        raw = _read_json(args.coeffs)
        coeffs = {int(n): complex(v[0], v[1]) for n, v in raw.items()}
        ce = smooth_calc(a, coeffs, args.L, args.tol, args.tail_bound)
        _emit(ser.encode_certified(ce), args)
        return 0
    if cmd == "derivation":
        d = ser.decode_derivation(_read_json(args.d))
        if args.dcommand == "apply":
            _emit(ser.encode_bdt(der_apply(d, _load_element(args.a, BdtElement))), args)
        elif args.dcommand == "component":
            _emit(ser.encode_derivation(der_component(d, args.n)), args)
        else:
            c = der_reconstruct(der_as_callable(d), args.band_limit, d.S)
            _emit(ser.encode_compact(c), args)
        return 0
    if cmd == "index":
        if args.k0_demo:
            _emit(k0_demo(parse_supernatural(args.S)), args)
            return 0
        if not args.a:
            raise ValueError("index needs an element (or --k0-demo)")
        a = _load_element(args.a, BdtElement)
        schedule = [int(s) for s in args.schedule.split(",")]
        r = fredholm_index(a, schedule)
        _emit(ser.encode_index_result(r), args)
        return 0
    if cmd == "gs":
        S = parse_supernatural(args.S)
        if args.add:
            s = gs_add(_parse_fraction(args.add[0]), _parse_fraction(args.add[1]), S)
            _emit({"sum": [s.numerator, s.denominator]}, args)
        elif args.q:
            _emit({"member": gs_contains(_parse_fraction(args.q), S)}, args)
        else:
            raise ValueError("gs needs --q or --add")
        return 0
    if cmd == "verify":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        all_ok = True
        outputs = []
        for name in names:
            rep = run_suite(name, seed=args.seed, cases=args.cases)
            outputs.append(report_to_json(rep))
            all_ok = all_ok and rep.all_passed
        _emit("\n".join(outputs), args)
        return 0 if all_ok else 1
    raise ValueError(f"unknown command {cmd!r}")


def cli_dispatch(argv) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except SystemExit:  # --help prints its text and exits 0
        return 0
    except BdtkError as exc:
        print(ser.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(ser.dumps({"error": "BAD_INPUT", "detail": str(exc)}), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
