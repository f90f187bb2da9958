"""Per-layer counters and timers for a traced run.

install() replaces each public function of a bdtk layer in every bdtk module
namespace that binds it, so calls from one module into another are counted
too, and wraps the arithmetic methods of Scalar and ScalarMatrix.  Each
wrapped call records its layer's call count and self time (its time minus the
time of the wrapped calls nested in it).  A few functions also form a group
whose calls and time are reported on their own; a group's time counts only
its outermost calls, so recursion is not counted twice.

Spans are only recorded while `active` is set, which the runner does around
the timed section of each round.
"""

from __future__ import annotations

import functools
import hashlib
import time
import types
from collections import defaultdict
from fractions import Fraction

# module -> layer; sparse is the backing store of the compact layer
LAYERS = {
    "scalars": "scalars", "ulc": "ulc", "bd": "bd", "compact": "compact", "sparse": "compact",
    "bdt": "bdt", "bloch": "bloch", "calculus": "calculus", "index": "index",
    "derivations": "derivations", "serialize": "serialize", "cli": "cli",
}

GROUPS = {
    ("bd", "bd_mul"): "bd.mul",
    ("bd", "bd_symbol"): "bd.symbol",
    ("bdt", "bdt_mul"): "bdt.mul",
    ("bdt", "correction"): "bdt.correction",
    ("bdt", "bdt_truncate"): "bdt.window",
    ("bdt", "bdt_truncate_numpy"): "bdt.window",
    ("bdt", "bdt_window_numpy"): "bdt.window",
    ("bloch", "certified_sup_smax"): "bloch.certify",
    ("bloch", "circle_root_angles"): "bloch.root",
    ("bloch", "symbol_invertibility"): "bloch.invertibility",
    ("derivations", "der_reconstruct"): "derivations.reconstruct",
}

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "inverse", "conj", "abs2", "__eq__", "identical", "to_complex",
)
MATRIX_OPS = ("add", "sub", "scale", "matmul", "adjoint", "restrict", "to_numpy", "smax", "equal")

PER_LAYER = (
    ("scalars.ops", "count"), ("scalars.self_s", "s"), ("scalars.mul_gauss_ratio", "ratio"),
    ("ulc.calls", "count"), ("ulc.self_s", "s"),
    ("bd.mul_calls", "count"), ("bd.mul_s", "s"), ("bd.symbol_s", "s"),
    ("compact.calls", "count"), ("compact.self_s", "s"),
    ("bdt.mul_calls", "count"), ("bdt.mul_s", "s"), ("bdt.correction_s", "s"),
    ("bdt.window_s", "s"),
    ("bloch.certify_calls", "count"), ("bloch.certify_s", "s"), ("bloch.level_tests", "count"),
    ("bloch.root_s", "s"), ("bloch.distinct_ratio", "ratio"), ("bloch.invertibility_s", "s"),
    ("calculus.calls", "count"), ("calculus.self_s", "s"),
    ("index.calls", "count"), ("index.self_s", "s"),
    ("derivations.reconstruct_calls", "count"), ("derivations.d_evals", "count"),
    ("derivations.self_s", "s"),
    ("serialize.decode_s", "s"), ("serialize.encode_s", "s"), ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)       # layer or group -> calls
        self.self_s = defaultdict(float)    # layer -> self time
        self.total_s = defaultdict(float)   # group -> time of its outermost calls
        self.muls = 0
        self.gauss_muls = 0
        self.certify_keys: set[bytes] = set()
        self.bytes_in = 0
        self.bytes_out = 0
        self._stack: list[float] = []       # nested wrapped time of each open call
        self._open = defaultdict(int)       # group -> open calls
        self._scalar = None

    def wrap(self, fn, layer: str, group: str | None = None, before=None, after=None):
        stack, opened = self._stack, self._open
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack.append(0.0)
            if group:
                opened[group] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[layer] += 1
                self_s[layer] += dt - nested
                if group:
                    calls[group] += 1
                    opened[group] -= 1
                    if not opened[group]:
                        total_s[group] += dt
            return out if after is None else after(out)

        wrapper.traced = True
        return wrapper

    def install(self, bk) -> None:
        """Wrap the public functions of every layer in every module of the
        bdtk import `bk` that binds them, and its Scalar and ScalarMatrix
        methods."""
        done: dict[int, object] = {}
        for mod in bk.loaded.values():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or getattr(fn, "traced", False)):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in LAYERS or not fn.__module__.startswith("bdtk"):
                    continue
                if id(fn) not in done:
                    done[id(fn)] = self._wrap_function(fn, home, fn.__name__)
                setattr(mod, name, done[id(fn)])
        self._scalar = Scalar = bk.scalars.Scalar
        for name in SCALAR_OPS:
            before = self._count_mul if name in ("__mul__", "__rmul__") else None
            setattr(Scalar, name, self.wrap(vars(Scalar)[name], "scalars", before=before))
        ScalarMatrix = bk.sparse.ScalarMatrix
        for name in MATRIX_OPS:
            setattr(ScalarMatrix, name, self.wrap(vars(ScalarMatrix)[name], "compact"))

    def _wrap_function(self, fn, home: str, name: str):
        layer = LAYERS[home]
        group = GROUPS.get((home, name))
        if home == "serialize" and name.startswith(("decode_", "encode_")):
            group = "serialize." + name.partition("_")[0]
        before = after = None
        if group == "bloch.certify":
            before = self._count_symbol
        elif (home, name) == ("derivations", "der_as_callable"):
            after = self._count_evals
        elif (home, name) == ("serialize", "dumps"):
            after = self._count_out
        return self.wrap(fn, layer, group, before, after)

    def _count_mul(self, args) -> None:
        self.muls += 1
        if all(self._gaussian(x) for x in args):
            self.gauss_muls += 1

    def _gaussian(self, x) -> bool:
        if isinstance(x, self._scalar):
            return x.n in (1, 4)  # exact, in Q(i)
        return isinstance(x, (int, Fraction))

    def _count_symbol(self, args) -> None:
        sym, tol = args[0], args[1]
        h = hashlib.blake2b(repr((sym.period, float(tol))).encode(), digest_size=16)
        for w in sorted(sym.coeffs):
            h.update(repr(w).encode())
            h.update(sym.coeffs[w].tobytes())
        self.certify_keys.add(h.digest())

    def _count_evals(self, d):
        """Count each evaluation of the black-box derivation d."""
        return self.wrap(d, "derivations", "derivations.d")

    def _count_out(self, text: str) -> str:
        self.bytes_out += len(text)
        return text

    def metrics(self) -> dict:
        c, s, t = self.calls, self.self_s, self.total_s

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "scalars.ops": c["scalars"], "scalars.self_s": s["scalars"],
            "scalars.mul_gauss_ratio": ratio(self.gauss_muls, self.muls),
            "ulc.calls": c["ulc"], "ulc.self_s": s["ulc"],
            "bd.mul_calls": c["bd.mul"], "bd.mul_s": t["bd.mul"], "bd.symbol_s": t["bd.symbol"],
            "compact.calls": c["compact"], "compact.self_s": s["compact"],
            "bdt.mul_calls": c["bdt.mul"], "bdt.mul_s": t["bdt.mul"],
            "bdt.correction_s": t["bdt.correction"], "bdt.window_s": t["bdt.window"],
            "bloch.certify_calls": c["bloch.certify"], "bloch.certify_s": t["bloch.certify"],
            "bloch.level_tests": c["bloch.root"], "bloch.root_s": t["bloch.root"],
            "bloch.distinct_ratio": ratio(len(self.certify_keys), c["bloch.certify"]),
            "bloch.invertibility_s": t["bloch.invertibility"],
            "calculus.calls": c["calculus"], "calculus.self_s": s["calculus"],
            "index.calls": c["index"], "index.self_s": s["index"],
            "derivations.reconstruct_calls": c["derivations.reconstruct"],
            "derivations.d_evals": c["derivations.d"], "derivations.self_s": s["derivations"],
            "serialize.decode_s": t["serialize.decode"],
            "serialize.encode_s": t["serialize.encode"],
            "serialize.bytes_in": self.bytes_in, "serialize.bytes_out": self.bytes_out,
            "cli.calls": c["cli"], "cli.self_s": s["cli"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
