"""The four benchmark workloads.

A workload is a fixed list of slots.  Each slot names one operation and the
shape of its inputs (periods, band indices, compact support cells); the
shapes come from a fixed stream, so every seed and every round costs the same
mix.  The seed and the round number draw the coefficient values, so no two
rounds repeat an input and a cache inside the library can only hit on
repeats a workload makes on purpose.

make_round(bk, seed, r, workdir) returns the round's operations (workdir is
where a workload may write its input files).  Each Op carries a
zero-argument call, timed by the runner, and a check, run after the round
outside the timed section, that returns None when the output is right or a
message saying what is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import dense

TOL_FLOAT = 1e-9  # relative agreement of exact results with the float windows


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    bytes_in: int = 0


def _close(got: np.ndarray, want: np.ndarray, what: str) -> str | None:
    err = float(np.max(np.abs(got - want), initial=0.0))
    if err > TOL_FLOAT * (1.0 + float(np.max(np.abs(want), initial=0.0))):
        return f"{what}: max entry error {err:.3e}"
    return None


def _value_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _shape_rng(workload: str) -> random.Random:
    return random.Random(f"{workload}:shapes")


PERIODS = (1, 2, 3, 4, 6, 12)  # divisors of 12, which divides S = 2^inf 3


def _band_shape(rng: random.Random, n_bands: int, periods=PERIODS, indices=range(-4, 5)):
    idx = rng.sample(indices, n_bands)
    return tuple((n, rng.choice(periods)) for n in sorted(idx))


def _cells(rng: random.Random, nnz: int, support: int = 8):
    return tuple(sorted({(rng.randrange(support), rng.randrange(support)) for _ in range(nnz)}))


def _bd(bk, rng, shape, top: int = 16):
    S = bk.corpus.DEFAULT_S
    return bk.bd.bd_element(S, {
        n: bk.ulc.ulc([bk.corpus.rand_scalar(rng, top) for _ in range(l)]) for n, l in shape
    })


def _compact(bk, rng, cells, top: int = 16):
    return bk.compact.CompactMatrix({cell: bk.corpus.rand_scalar(rng, top) for cell in cells})


def _bdt(bk, rng, shape, cells):
    return bk.bdt.bdt(_bd(bk, rng, shape), _compact(bk, rng, cells))


# --------------------------------------------------------------------------
# exact-algebra
# --------------------------------------------------------------------------

ANGLES = (Fraction(1, 9), Fraction(2, 7))
EXACT_N = 24  # check window: covers two periods of 12 and every product band


def _exact_slots():
    rng = _shape_rng("exact-algebra")

    def elem(indices=range(-4, 5)):
        return _band_shape(rng, rng.randint(1, 4), indices=indices), _cells(rng, rng.randint(1, 10))

    slots = []
    # (kind, index into ANGLES of the rotation applied to the inputs, or None
    # for Gaussian-rational inputs)
    for kind, rotated in (("bdt_mul", None), ("bdt_mul", None), ("bdt_mul", None),
                          ("bdt_mul", 0), ("bdt_mul", 1),
                          ("bd_mul", None), ("bd_mul", None), ("bd_mul", None), ("bd_mul", 0),
                          ("correction", None), ("correction", None), ("correction", None),
                          ("correction", 1),
                          ("bdt_fourier", None), ("bdt_fourier", 0), ("bdt_fourier", 1),
                          ("bdt_rho", 0), ("bdt_rho", 1), ("bdt_rho", 0), ("bdt_rho", 1),
                          ("der_reconstruct", None), ("der_reconstruct", None),
                          ("der_reconstruct", None), ("der_reconstruct", None),
                          ("der_reconstruct", None)):
        if kind == "correction":
            # only bands n >= 1 of b1 against bands m <= -1 of b2 contribute
            e1, e2 = elem(range(1, 5)), elem(range(-4, 0))
        else:
            e1, e2 = elem(), elem()
        n = max((band for band, _ in e1[0]), key=abs)  # a band of a1, for bdt_fourier
        slots.append((kind, rotated, e1, e2, n, _cells(rng, rng.randint(1, 6))))
    return slots


EXACT_SLOTS = _exact_slots()


def exact_algebra_round(bk, seed: int, r: int, workdir: Path) -> list[Op]:
    bd, bdt, der = bk.bd, bk.bdt, bk.derivations
    S = bk.corpus.DEFAULT_S
    rng = _value_rng("exact-algebra", seed, r)
    N = EXACT_N
    ops = []
    for kind, rotated, (sh1, cl1), (sh2, cl2), n, dcells in EXACT_SLOTS:
        a1, a2 = _bdt(bk, rng, sh1, cl1), _bdt(bk, rng, sh2, cl2)
        if rotated is not None and kind != "bdt_rho":
            a1 = bdt.bdt_rho(a1, ANGLES[rotated])
            a2 = bdt.bdt_rho(a2, ANGLES[rotated])
        b1, b2 = a1.symbol, a2.symbol
        if kind == "bdt_mul":
            def call(a1=a1, a2=a2):
                return bdt.bdt_mul(a1, a2)

            def check(out, a1=a1, a2=a2):
                if not bd.bd_equal(bdt.tau(out), bd.bd_mul(bdt.tau(a1), bdt.tau(a2))):
                    return "tau(a1 a2) != tau(a1) tau(a2)"
                return _close(dense.toeplitz_window(out, N, N),
                              dense.toeplitz_product_window(a1, a2, N), "bdt_mul window")
        elif kind == "bd_mul":
            def call(b1=b1, b2=b2):
                return bd.bd_mul(b1, b2)

            def check(out, b1=b1, b2=b2):
                return _close(dense.band_window(out, range(N), range(N)),
                              dense.band_product_window(b1, b2, N), "bd_mul window")
        elif kind == "correction":
            def call(b1=b1, b2=b2):
                return bdt.correction(b1, b2)

            def check(out, b1=b1, b2=b2):
                if dense.compact_support(out) > N:
                    return "correction support leaves the check window"
                return _close(dense.compact_window(out, N, N),
                              dense.correction_window(b1, b2, N), "correction window")
        elif kind == "bdt_fourier":
            def call(a1=a1, n=n):
                return bdt.bdt_fourier(a1, n)

            def check(out, a1=a1, n=n):
                k, s = np.indices((N, N))
                want = np.where(k - s == n, dense.toeplitz_window(a1, N, N), 0)
                return _close(dense.toeplitz_window(out, N, N), want, "bdt_fourier window")
        elif kind == "bdt_rho":
            theta = ANGLES[rotated]

            def call(a1=a1, theta=theta):
                return bdt.bdt_rho(a1, theta)

            def check(out, a1=a1, theta=theta):
                if not out.is_exact:
                    return "rho at a rational angle lost exactness"
                k, s = np.indices((N, N))
                want = dense.toeplitz_window(a1, N, N) * np.exp(2j * np.pi * (k - s) * float(theta))
                return _close(dense.toeplitz_window(out, N, N), want, "bdt_rho window")
        else:  # der_reconstruct on the inner derivation [c, .]
            c = _compact(bk, rng, dcells)
            spec = der.derivation(S, 0, None, c)

            def call(spec=spec):
                return der.der_reconstruct(der.der_as_callable(spec),
                                           der.der_component_bound(spec), S)

            def check(out, c=c):
                if not (out.is_exact and out.entries.keys() == c.entries.keys() and out.equal(c)):
                    return "der_reconstruct did not return the matrix it was built from"
                return None
        ops.append(Op(kind, call, check))
    return ops


# --------------------------------------------------------------------------
# certified-norms
# --------------------------------------------------------------------------

NORM_TOL = 1e-9
NORM_GRID = 256


def _norm_slots():
    rng = _shape_rng("certified-norms")
    slots = []
    # single norms over every period and band count, then P-norms, then two
    # elements whose whole P-norm family is computed as norm-axioms does
    singles = [(l, 1 + (i + k) % 4) for i, l in enumerate(PERIODS) for k in (0, 2)]
    for l, nb in singles + [(4, 4), (6, 2), (12, 4)]:
        slots.append(("bd_norm", _band_shape(rng, nb, periods=(l,)), 0))
    for P in (1, 2, 3, 1):
        slots.append(("bd_p_norm", _band_shape(rng, rng.randint(1, 4)), P))
    for P in (1, 2):
        slots.append(("family", _band_shape(rng, rng.randint(1, 4)), P))
    return slots


NORM_SLOTS = _norm_slots()


class _SeparateNorms:
    """||delta_L^j b|| certified one j at a time with budget tol / 2^(j+1),
    each checked against the dense symbol grid; shared by the checks of the
    P-norms of one element."""

    def __init__(self, bk, b):
        self.bk, self.b, self.vals, self.errors = bk, b, {}, []

    def get(self, j: int) -> float:
        if j not in self.vals:
            x = self.b
            for _ in range(j):
                x = self.bk.bd.bd_delta_L(x)
            tol = NORM_TOL / 2 ** (j + 1)
            self.vals[j] = self.bk.bd.bd_norm(x, tol)
            self.errors.append(_check_norm(x, self.vals[j], tol))
        return self.vals[j]


def _check_norm(b, value: float, tol: float) -> str | None:
    if b.is_zero():
        return None if value == 0.0 else "norm of zero is not 0"
    lo, hi = dense.Symbol(b).grid_bounds(NORM_GRID)
    if not lo - tol <= value <= hi + tol:
        return f"norm {value!r} outside the grid bounds [{lo!r}, {hi!r}] +- {tol}"
    return None


def _check_p_norm(sep: _SeparateNorms, value: float, P: int, shift: int) -> str | None:
    """value is ||delta_L^shift b||_P; compare with the binomial sum of the
    separately certified ||delta_L^(j + shift) b||."""
    total = sum(math.comb(P, j) * sep.get(j + shift) for j in range(P + 1))
    err = next((e for e in sep.errors if e), None)
    if err:
        return err
    if abs(value - total) > NORM_TOL * 2 ** P:
        return f"P-norm {value!r} differs from the binomial sum {total!r}"
    return None


def certified_norms_round(bk, seed: int, r: int, workdir: Path) -> list[Op]:
    bd = bk.bd
    rng = _value_rng("certified-norms", seed, r)
    ops = []
    for kind, shape, P in NORM_SLOTS:
        b = _bd(bk, rng, shape)
        if kind == "bd_norm":
            ops.append(Op(kind, lambda b=b: bd.bd_norm(b, NORM_TOL),
                          lambda v, b=b: _check_norm(b, v, NORM_TOL)))
            continue
        sep = _SeparateNorms(bk, b)
        # (shift, P) of ||delta_L^shift b||_P; a family is b at P and P + 1
        # and delta_L b at P
        variants = [(0, P)] if kind == "bd_p_norm" else [(0, P), (0, P + 1), (1, P)]
        for shift, p in variants:
            x = bd.bd_delta_L(b) if shift else b
            ops.append(Op("bd_p_norm", lambda x=x, p=p: bd.bd_p_norm(x, p, NORM_TOL),
                          lambda v, sep=sep, p=p, shift=shift: _check_p_norm(sep, v, p, shift)))
    return ops


# --------------------------------------------------------------------------
# certified-solve
# --------------------------------------------------------------------------

SOLVE_N = 48  # check window


def _solve_slots():
    rng = _shape_rng("certified-solve")

    def invertible(w=None, periods=PERIODS, reach=4):
        # dominant band w plus one or two perturbation bands within `reach`
        # of the origin, as corpus.rand_invertible_bd draws them
        w = rng.randint(-3, 3) if w is None else w
        extra = rng.sample([n for n in range(-reach, reach + 1) if n != w], rng.randint(1, 2))
        return w, rng.choice(periods), tuple((n, rng.choice(periods)) for n in extra)

    slots = []
    for _ in range(4):
        slots.append(("bd_invert", invertible()))
    for _ in range(4):
        slots.append(("bd_exp", _band_shape(rng, rng.randint(1, 3))))
    for _ in range(3):
        # index 0 (w = 0), so T(b) + c is invertible.  Periods up to 6 and
        # perturbations within two bands keep the symbol inverse inside the
        # first band budget bdt_invert tries, so its cost does not jump
        # with the coefficient values.
        slots.append(("bdt_invert", (invertible(0, PERIODS[:-1], 2),
                                     _cells(rng, rng.randint(1, 4)))))
    # two on the default schedule: with the truncations up to 512 they are the
    # two slowest operations, and their nearly fixed cost holds the 90th
    # percentile, which lies inside the second slowest block of 15
    for schedule in ((64, 128, 256, 512), (64, 128, 256, 512), (64, 128, 256), (64, 128, 256)):
        slots.append(("fredholm_index", (invertible(), schedule)))
    return slots


SOLVE_SLOTS = _solve_slots()


def _invertible_bd(bk, rng, shape):
    """A dominant band with values of modulus at least 1 and perturbation
    bands of total sup-norm below 0.2: invertible, with the Toeplitz index
    -w (corpus.rand_invertible_bd uses the same recipe)."""
    S = bk.corpus.DEFAULT_S
    Sc = bk.scalars.Scalar
    w, l, extra = shape
    bands = {w: bk.ulc.ulc([
        Sc.from_fraction(Fraction(rng.choice([1, -1]) * rng.randint(4, 8), 4),
                         Fraction(rng.randint(-2, 2), 8)) for _ in range(l)])}
    for n, lp in extra:
        bands[n] = bk.ulc.ulc([
            Sc.from_fraction(Fraction(rng.choice([1, -1]), 16), Fraction(rng.randint(-1, 1), 16))
            for _ in range(lp)])
    return bk.bd.bd_element(S, bands)


def _check_bd_invert(b, cert) -> str | None:
    N = SOLVE_N
    defect = dense.band_product_window(b, cert.value, N) - np.eye(N)
    bound = dense.sup_abs_sum(b) * cert.residual_bound + 1e-12
    if dense.smax(defect) > bound:
        return f"window ||b x - 1|| = {dense.smax(defect):.3e} above ||b|| * bound = {bound:.3e}"
    return None


def _check_bdt_invert(a, cert) -> str | None:
    N = SOLVE_N
    defect = dense.toeplitz_product_window(a, cert.value, N) - np.eye(N)
    w = dense.compact_support(a.compact)
    frobenius_c = float(np.linalg.norm(dense.compact_window(a.compact, w, w)))
    norm_a = dense.sup_abs_sum(a.symbol) + frobenius_c
    bound = norm_a * cert.residual_bound + 1e-12
    if dense.smax(defect) > bound:
        return f"window ||a x - 1|| = {dense.smax(defect):.3e} above ||a|| * bound = {bound:.3e}"
    return None


def _check_bd_exp(b, cert) -> str | None:
    x, eps = cert.value, cert.residual_bound
    l = b.period * x.period // math.gcd(b.period, x.period)
    thetas = np.arange(256) / 256
    hb = dense.Symbol(b, l).at(thetas)
    evals, V = np.linalg.eigh(hb)
    want = np.einsum("tij,tj,tkj->tik", V, np.exp(1j * evals), V.conj())
    got = dense.Symbol(x, l).at(thetas)
    far = float(np.max(np.linalg.svd(got - want, compute_uv=False)[:, 0]))
    if far > eps + 1e-12:
        return f"e^(ib) off the numpy exponential by {far:.3e} > bound {eps:.3e}"
    gram = np.einsum("tji,tjk->tik", got.conj(), got) - np.eye(l)
    nonunit = float(np.max(np.linalg.svd(gram, compute_uv=False)[:, 0]))
    if nonunit > 2 * eps + eps * eps + 1e-12:
        return f"e^(ib) not unitary within its bound: {nonunit:.3e}"
    return None


def certified_solve_round(bk, seed: int, r: int, workdir: Path) -> list[Op]:
    bd, bdt, calc, index, compact = bk.bd, bk.bdt, bk.calculus, bk.index, bk.compact
    S = bk.corpus.DEFAULT_S
    rng = _value_rng("certified-solve", seed, r)
    ops = []
    for kind, shape in SOLVE_SLOTS:
        if kind == "bd_invert":
            b = _invertible_bd(bk, rng, shape)
            ops.append(Op(kind, lambda b=b: calc.bd_invert(b, 1e-8, 64),
                          lambda cert, b=b: _check_bd_invert(b, cert)))
        elif kind == "bd_exp":
            b = _bd(bk, rng, shape, top=8)
            b = bd.bd_scale(Fraction(1, 2), bd.bd_add(b, bd.bd_adjoint(b)))
            ops.append(Op(kind, lambda b=b: calc.bd_exp(b, 1e-8, calc.exp_band_reach(b)),
                          lambda cert, b=b: _check_bd_exp(b, cert)))
        elif kind == "bdt_invert":
            bshape, cells = shape
            small = _compact(bk, rng, cells, top=2)
            c = compact.k_scale(Fraction(1, 256), compact.k_add(small, compact.k_adjoint(small)))
            a = bdt.bdt(_invertible_bd(bk, rng, bshape), c)
            ops.append(Op(kind, lambda a=a: calc.bdt_invert(a, 1e-6, [64, 128, 256]),
                          lambda cert, a=a: _check_bdt_invert(a, cert)))
        else:
            shape, schedule = shape
            b = _invertible_bd(bk, rng, shape)
            w = shape[0]

            def check(res, b=b, w=w):
                if not res.stabilized or res.index != -w:
                    return f"index {res.index} != -{w}"
                if res.index != -index.winding(b):
                    return "index != -winding(b)"
                return None

            ops.append(Op(kind, lambda b=b, s=schedule: index.fredholm_index(bdt.toeplitz(b), s),
                          check))
    return ops


# --------------------------------------------------------------------------
# cli-roundtrip
# --------------------------------------------------------------------------

_SJSON = [[2, "inf"], [3, 1]]
# Requests that should exit 2 with a JSON error; each raises out of
# cli_dispatch instead, so each is counted as failed until decode validates
# its input.
MALFORMED = (
    ("adjoint", {"S": _SJSON, "bands": [[1, {"period": 1, "values": [[1, 0, 0, 1]]}]]}),
    ("adjoint", {"S": _SJSON, "bands": [[1, {"period": 1, "values": [
        {"order": 0, "terms": [[0, 1, 1]]}]}]]}),
    ("norm", {"S": _SJSON, "bands": [[1, {"period": 1, "values": [[1e308, 1e308]]}]]}),
)

CLI_PERIODS = (1, 2, 3, 4)


def _cli_slots():
    rng = _shape_rng("cli-roundtrip")

    def small():
        return (_band_shape(rng, rng.randint(1, 2), periods=CLI_PERIODS),
                _cells(rng, rng.randint(1, 4)))

    slots = []
    for cmd, form in (("mul", "bd"), ("mul", "bdt"), ("mul", "bdt"), ("correction", "bd"),
                      ("correction", "bd"), ("adjoint", "bd"), ("adjoint", "bdt"),
                      ("toeplitz", "bd"), ("tau", "bdt"), ("fourier", "bd"), ("fourier", "bdt"),
                      ("derivation", "der"), ("derivation", "der"), ("norm", "bd"),
                      ("norm", "bdP")):
        slots.append((cmd, form, small(), small(), rng.randint(-2, 2)))
    return slots


CLI_SLOTS = _cli_slots()


class CliRun:
    """Outcome of one in-process cli_dispatch call."""

    def __init__(self, rc, out, err):
        self.rc, self.out, self.err = rc, out, err


def _dispatch(cli, argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_dispatch(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


def cli_roundtrip_round(bk, seed: int, r: int, workdir: Path) -> list[Op]:
    ser, cli, bd, bdt, der = bk.serialize, bk.cli, bk.bd, bk.bdt, bk.derivations
    S = bk.corpus.DEFAULT_S
    rng = _value_rng("cli-roundtrip", seed, r)

    def write(name: str, payload) -> tuple[str, str]:
        text = ser.dumps(payload)
        path = workdir / f"{name}.json"
        path.write_text(text)
        return str(path), text

    ops = []
    for i, (cmd, form, (sh1, cl1), (sh2, cl2), n) in enumerate(CLI_SLOTS):
        if form == "der":
            c = _compact(bk, rng, cl1)
            x1 = der.derivation(S, 0, None, c)
            p1, t1 = write(f"s{i}a", ser.encode_derivation(x1))
            argv = ["derivation", "reconstruct", p1,
                    "--band-limit", str(der.der_component_bound(x1))]
            inputs = [t1]
            expected = c
        else:
            if form == "bdt":
                x1, x2 = _bdt(bk, rng, sh1, cl1), _bdt(bk, rng, sh2, cl2)
                enc = ser.encode_bdt
            else:
                x1, x2 = _bd(bk, rng, sh1), _bd(bk, rng, sh2)
                enc = ser.encode_bd
            p1, t1 = write(f"s{i}a", enc(x1))
            p2, t2 = write(f"s{i}b", enc(x2))
            y1, y2 = ser.decode_element(ser.loads(t1)), ser.decode_element(ser.loads(t2))
            inputs = [t1]
            if cmd == "mul":
                argv, inputs = ["mul", p1, p2], [t1, t2]
                expected = bd.bd_mul(y1, y2) if form == "bd" else bdt.bdt_mul(y1, y2)
            elif cmd == "correction":
                argv, inputs = ["correction", p1, p2], [t1, t2]
                expected = bdt.correction(y1, y2)
            elif cmd == "adjoint":
                argv = ["adjoint", p1]
                expected = bd.bd_adjoint(y1) if form == "bd" else bdt.bdt_adjoint(y1)
            elif cmd == "toeplitz":
                argv, expected = ["toeplitz", p1], bdt.toeplitz(y1)
            elif cmd == "tau":
                argv, expected = ["tau", p1], bdt.tau(y1)
            elif cmd == "fourier":
                argv = ["fourier", p1, "-n", str(n)]
                expected = bd.bd_fourier(y1, n) if form == "bd" else bdt.bdt_fourier(y1, n)
            else:
                P = 1 if form == "bdP" else 0
                argv = ["norm", p1, "--P", str(P)]
                expected = None
        ops.append(_cli_op(bk, cmd, argv, inputs, expected))
    for j, (cmd, payload) in enumerate(MALFORMED):
        path, text = write(f"bad{j}", payload)
        ops.append(Op("malformed", lambda argv=[cmd, path]: _dispatch(cli, argv),
                      _check_malformed, len(text)))
    return ops


def _encoded(bk, x) -> str:
    ser = bk.serialize
    for cls, enc in ((bk.bdt.BdtElement, ser.encode_bdt), (bk.bd.BdElement, ser.encode_bd),
                     (bk.compact.CompactMatrix, ser.encode_compact),
                     (bk.ulc.UlcFunction, ser.encode_ulc),
                     (bk.derivations.DerivationSpec, ser.encode_derivation)):
        if isinstance(x, cls):
            return ser.dumps(enc(x))
    raise TypeError(f"cannot encode {type(x).__name__}")


def _cli_op(bk, cmd, argv, inputs, expected) -> Op:
    ser, cli = bk.serialize, bk.cli

    def check(run: CliRun) -> str | None:
        if run.rc != 0:
            return f"{cmd} exited {run.rc}: {run.err.strip()}"
        decoded = [ser.decode_element(ser.loads(t)) for t in inputs]
        if any(_encoded(bk, y) != t for y, t in zip(decoded, inputs)):
            return "encode(decode(x)) does not reproduce an input"
        text = run.out.strip()
        obj = ser.loads(text)
        if cmd == "norm":
            P, tol = obj["P"], obj["tol"]
            want = bk.bd.bd_p_norm(decoded[0], P, tol) if P else bk.bd.bd_norm(decoded[0], tol)
            return None if obj["norm"] == want else f"norm {obj['norm']} != library {want}"
        got = ser.decode_ulc(obj) if "period" in obj else ser.decode_element(obj)
        if _encoded(bk, got) != text:
            return "encode(decode(output)) does not reproduce the output"
        if _encoded(bk, expected) != text:
            return f"{cmd} output differs from the library's result"
        return None

    return Op(cmd, lambda: _dispatch(cli, argv), check, sum(len(t) for t in inputs))


def _check_malformed(run: CliRun) -> str | None:
    if run.rc != 2:
        return f"malformed request exited {run.rc}, not 2"
    try:
        err = json.loads(run.err.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "malformed request gave no JSON error on stderr"
    return None if "error" in err else "stderr JSON has no error field"


WORKLOADS = {
    "exact-algebra": exact_algebra_round,
    "certified-norms": certified_norms_round,
    "certified-solve": certified_solve_round,
    "cli-roundtrip": cli_roundtrip_round,
}
