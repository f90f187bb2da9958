"""Seeded verification harness.

Each suite draws a reproducible corpus from its seed, runs one family of
identities or estimates, and returns a VerifyReport with one record per
check: case id, a digest of the inputs, the two sides of the comparison, the
tolerance and the outcome.  Reports serialize deterministically (sorted keys,
floats printed with 17 significant digits), so equal seeds produce
byte-identical output.

Exact identities are checked entrywise on rational arithmetic (tolerance 0);
estimates involving certified norms carry the certificate arithmetic in the
tolerance column so the slack is auditable.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import corpus as cp
from .arith import (
    INF, Supernatural, embed_int, factorize, gs_add, gs_contains, odometer, sn_divides,
)
from .bd import (
    bd_add,
    bd_adjoint,
    bd_apply,
    bd_delta_L,
    bd_element,
    bd_equal,
    bd_m,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_positive_part,
    bd_scale,
    bd_sub,
    bd_sup_coefficient_norm,
    bd_symbol,
    bd_truncation_smax,
    bd_v,
)
from .bdt import (
    bdt_add,
    bdt_adjoint,
    bdt_equal,
    bdt_from_compact,
    bdt_mul,
    bdt_scale,
    bdt_truncate,
    bdt_u,
    compact_times_toeplitz,
    correction,
    tau,
    toeplitz,
    toeplitz_times_compact,
)
from .bloch import SymbolMatrix
from .calculus import bd_invert, bdt_invert, check_exp_bound_b, check_exp_bound_c
from .compact import (
    k_add,
    k_adjoint,
    k_dK,
    k_dK_power,
    k_mn_norm,
    k_mul,
    k_rho,
    k_scale,
    k_units,
)
from .derivations import (
    der_apply,
    der_as_callable,
    der_check_covariance,
    der_component,
    der_component_bound,
    der_reconstruct,
    derivation,
)
from .errors import BdtkError
from .index import fredholm_index
from .scalars import Scalar
from .serialize import dumps, encode_bd, encode_compact, encode_ulc
from .ulc import ulc, ulc_eval, ulc_shift, ulc_sup_norm


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    inputs_digest: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    suite: str
    seed: int
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def add(self, case_id: str, digest: str, lhs: float, rhs: float, tol: float, passed: bool):
        self.cases.append(CaseRecord(case_id, digest, float(lhs), float(rhs), float(tol), passed))

    def add_exact(self, case_id: str, digest: str, ok: bool):
        self.add(case_id, digest, 0.0 if ok else 1.0, 0.0, 0.0, ok)

    def add_leq(self, case_id: str, digest: str, lhs: float, rhs: float, tol: float):
        self.add(case_id, digest, lhs, rhs, tol, lhs <= rhs + tol)

    def add_close(self, case_id: str, digest: str, lhs: float, rhs: float, tol: float):
        self.add(case_id, digest, lhs, rhs, tol, abs(lhs - rhs) <= tol)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(dumps(p).encode() if not isinstance(p, str) else p.encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return '"%s"' % repr(x)
    return format(x, ".17g")


def report_to_json(report: VerifyReport) -> str:
    """Deterministic serialization: 17 significant digits for every float."""
    lines = []
    lines.append('{"cases":[')
    rows = []
    for c in report.cases:
        rows.append(
            '{"case_id":"%s","inputs_digest":"%s","lhs":%s,"pass":%s,"rhs":%s,"tolerance":%s}'
            % (
                c.case_id,
                c.inputs_digest,
                _fmt_float(c.lhs),
                "true" if c.passed else "false",
                _fmt_float(c.rhs),
                _fmt_float(c.tolerance),
            )
        )
    lines.append(",".join(rows))
    lines.append('],"seed":%d,"suite":"%s","summary":{"failed":%d,"passed":%d,"total":%d}}'
                 % (report.seed, report.suite, report.failed, report.total - report.failed,
                    report.total))
    return "".join(lines)


S_DEFAULT = cp.DEFAULT_S


# --------------------------------------------------------------------------
# 1. generator relations
# --------------------------------------------------------------------------

def suite_generator_relations(seed: int = 7, cases: int = 100) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("generator-relations", seed)
    S = S_DEFAULT
    window = range(-32, 32)
    for i in range(cases):
        f = cp.rand_ulc(rng, S)
        dig = _digest(encode_ulc(f))
        # V^{-1} m_f V = m_{f o phi} on the two-sided window
        lhs = bd_mul(bd_mul(bd_v(S, -1), bd_m(S, f)), bd_v(S, 1))
        rhs = bd_m(S, ulc_shift(f, 1))
        ok = bd_apply(lhs, window).equal(bd_apply(rhs, window)) and bd_equal(lhs, rhs)
        rep.add_exact(f"case-{i:03d}/shift-relation", dig, ok)
        # M_f U = U M_{f o phi} on the 64x64 corner
        a1 = bdt_mul(toeplitz(bd_m(S, f)), bdt_u(S, 1))
        a2 = bdt_mul(bdt_u(S, 1), toeplitz(bd_m(S, ulc_shift(f, 1))))
        ok = bdt_truncate(a1, 64).equal(bdt_truncate(a2, 64)) and bdt_equal(a1, a2)
        rep.add_exact(f"case-{i:03d}/isometry-relation", dig, ok)
        # M_f P_0 = P_0 M_f = f(0) P_0
        p0 = bdt_from_compact(S, k_units(0, 0))
        left = bdt_mul(toeplitz(bd_m(S, f)), p0)
        right = bdt_mul(p0, toeplitz(bd_m(S, f)))
        scaled = bdt_scale(ulc_eval(f, 0), p0)
        ok = bdt_equal(left, scaled) and bdt_equal(right, scaled)
        rep.add_exact(f"case-{i:03d}/projection-relation", dig, ok)
    return rep


# --------------------------------------------------------------------------
# 2. Toeplitz map properties
# --------------------------------------------------------------------------

def suite_toeplitz_properties(seed: int = 7, cases: int = 200) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("toeplitz-properties", seed)
    S = S_DEFAULT
    one_ok = bdt_equal(toeplitz(bd_one(S)), bdt_u(S, 0))
    rep.add_exact("unit/T(1)=I", _digest("unit"), one_ok)
    for i in range(cases):
        b = cp.rand_bd(rng, S)
        f = cp.rand_ulc(rng, S)
        n = rng.randint(0, 4)
        dig = _digest(encode_bd(b), encode_ulc(f), str(n))
        rep.add_exact(f"case-{i:03d}/tau-section", dig, bd_equal(tau(toeplitz(b)), b))
        lhs = bdt_mul(toeplitz(b), bdt_u(S, n))
        rep.add_exact(
            f"case-{i:03d}/shift-right", dig,
            bdt_equal(lhs, toeplitz(bd_mul(b, bd_v(S, n)))),
        )
        lhs = bdt_mul(bdt_u(S, -n), toeplitz(b)) if n else toeplitz(b)
        rep.add_exact(
            f"case-{i:03d}/shift-left", dig,
            bdt_equal(lhs, toeplitz(bd_mul(bd_v(S, -n), b))),
        )
        rep.add_exact(
            f"case-{i:03d}/mult-left", dig,
            bdt_equal(bdt_mul(toeplitz(bd_m(S, f)), toeplitz(b)),
                      toeplitz(bd_mul(bd_m(S, f), b))),
        )
        rep.add_exact(
            f"case-{i:03d}/mult-right", dig,
            bdt_equal(bdt_mul(toeplitz(b), toeplitz(bd_m(S, f))),
                      toeplitz(bd_mul(b, bd_m(S, f)))),
        )
        rep.add_exact(
            f"case-{i:03d}/adjoint", dig,
            bdt_equal(bdt_adjoint(toeplitz(b)), toeplitz(bd_adjoint(b))),
        )
        b2 = cp.rand_bd(rng, S)
        prod = bdt_mul(toeplitz(b), toeplitz(b2))
        rep.add_exact(
            f"case-{i:03d}/tau-multiplicative", dig,
            bd_equal(tau(prod), bd_mul(b, b2)),
        )
    return rep


# --------------------------------------------------------------------------
# 3. correction exactness
# --------------------------------------------------------------------------

def _correction_oracle(b1, b2, window: int) -> "ScalarMatrix":
    """T(b1)T(b2) - T(b1 b2) from truncations with locality padding."""
    pad = b1.bandwidth + b2.bandwidth + 1
    N = window + pad
    t1 = bdt_truncate(toeplitz(b1), N)
    t2 = bdt_truncate(toeplitz(b2), N)
    tp = bdt_truncate(toeplitz(bd_mul(b1, b2)), N)
    diff = t1.matmul(t2).sub(tp)
    return diff.restrict(range(window), range(window))


def suite_correction_exactness(seed: int = 7, cases: int = 200) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("correction-exactness", seed)
    S = S_DEFAULT
    for i in range(cases):
        b1 = cp.rand_bd(rng, S)
        b2 = cp.rand_bd(rng, S)
        dig = _digest(encode_bd(b1), encode_bd(b2))
        window = b1.bandwidth + b2.bandwidth + 8
        C = correction(b1, b2)
        ok = C.restrict(range(window), range(window)).equal(
            _correction_oracle(b1, b2, window)
        )
        bound = C.support_bounds()
        if bound is not None:
            ok = ok and bound[1] < b1.bandwidth + b2.bandwidth and bound[3] < b2.bandwidth
        rep.add_exact(f"pair-{i:03d}/correction-oracle", dig, ok)
    return rep


# --------------------------------------------------------------------------
# 4. correction estimate chain
# --------------------------------------------------------------------------

def suite_prop_chain(seed: int = 7, cases: int = 200) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("prop34-chain", seed)
    S = S_DEFAULT
    norm_tol = 1e-8
    for i in range(cases):
        b1 = cp.rand_bd(rng, S)
        b2 = cp.rand_bd(rng, S)
        dig = _digest(encode_bd(b1), encode_bd(b2))
        C = correction(b1, b2)
        plus = bd_positive_part(b1)
        neg_bands = {m: ulc_sup_norm(f) for m, f in b2.bands.items() if m < 0}
        pnorms = {}
        for j in range(4):
            pnorms[j] = (0.0 if plus.is_zero() else bd_p_norm(plus, j, norm_tol))
        for j in range(4):
            for N in range(4):
                lhs = k_mn_norm(k_dK_power(C, j), 0, N)
                rhs = sum(
                    pnorms[j] * (1 + abs(m)) ** (N + j) * g for m, g in neg_bands.items()
                )
                cert = sum(
                    (norm_tol * 2 ** j) * (1 + abs(m)) ** (N + j) * g
                    for m, g in neg_bands.items()
                )
                rep.add_leq(f"pair-{i:03d}/j{j}N{N}", dig, lhs, rhs, 1e-6 + cert)
    return rep


# --------------------------------------------------------------------------
# 5. norm axioms
# --------------------------------------------------------------------------

def suite_norm_axioms(seed: int = 7, cases: int = 200) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("norm-axioms", seed)
    S = S_DEFAULT
    exact_slack = 1e-9
    for i in range(cases):
        c1 = cp.rand_compact(rng)
        c2 = cp.rand_compact(rng)
        M = rng.randint(0, 3)
        N = rng.randint(0, 3)
        dig = _digest(encode_compact(c1), encode_compact(c2), f"M{M}N{N}")
        scale = 1.0 + k_mn_norm(c1, M + 1, N + 1) + k_mn_norm(c2, M + 1, N + 1)
        rep.add_close(
            f"case-{i:03d}/mn-recursion", dig,
            k_mn_norm(c1, M + 1, N),
            k_mn_norm(c1, M, N) + k_mn_norm(k_dK(c1), M, N),
            exact_slack * scale,
        )
        rep.add_leq(
            f"case-{i:03d}/mn-monotone", dig,
            k_mn_norm(c1, M, N), k_mn_norm(c1, M, N + 1), exact_slack * scale,
        )
        rep.add_leq(
            f"case-{i:03d}/mn-submult", dig,
            k_mn_norm(k_mul(c1, c2), M, N),
            k_mn_norm(c1, M, 0) * k_mn_norm(c2, M, N),
            exact_slack * scale * scale,
        )
        rep.add_leq(
            f"case-{i:03d}/mn-derivation", dig,
            k_mn_norm(k_dK(c1), M, N), k_mn_norm(c1, M + 1, N), exact_slack * scale,
        )
        rep.add_leq(
            f"case-{i:03d}/mn-adjoint", dig,
            k_mn_norm(k_adjoint(c1), M, N), k_mn_norm(c1, M + N, N), exact_slack * scale,
        )
        # rho preserves each norm
        th = rng.choice([Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(3, 8)])
        rep.add_close(
            f"case-{i:03d}/mn-rho-isometry", dig,
            k_mn_norm(k_rho(c1, th), M, N), k_mn_norm(c1, M, N), 1e-12 * scale,
        )
    norm_tol = 1e-9
    for i in range(cases):
        b1 = cp.rand_bd(rng, S, n_bands=rng.randint(1, 3))
        b2 = cp.rand_bd(rng, S, n_bands=rng.randint(1, 3))
        P = rng.randint(0, 3)
        dig = _digest(encode_bd(b1), encode_bd(b2), f"P{P}")
        p_b1 = bd_p_norm(b1, P, norm_tol)
        p_b2 = bd_p_norm(b2, P, norm_tol)
        p_b1_next = bd_p_norm(b1, P + 1, norm_tol)
        p_db1 = bd_p_norm(bd_delta_L(b1), P, norm_tol)
        err = 2.0 ** (P + 2) * norm_tol
        rep.add_close(f"case-{i:03d}/p-recursion", dig, p_b1_next, p_b1 + p_db1, 1e-6 + 4 * err)
        rep.add_leq(
            f"case-{i:03d}/p-submult", dig,
            bd_p_norm(bd_mul(b1, b2), P, norm_tol),
            p_b1 * p_b2,
            1e-6 + err * (1 + p_b1 + p_b2),
        )
        rep.add_leq(f"case-{i:03d}/p-derivation", dig, p_db1, p_b1_next, 1e-6 + 4 * err)
    return rep


# --------------------------------------------------------------------------
# 6. mixed Toeplitz/compact estimates
# --------------------------------------------------------------------------

def suite_toeplitz_compact_estimates(seed: int = 7, cases: int = 200) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("toeplitz-compact-estimates", seed)
    S = S_DEFAULT
    norm_tol = 1e-9
    for i in range(cases):
        b = cp.rand_bd(rng, S, n_bands=rng.randint(1, 3))
        c = cp.rand_compact(rng)
        M = rng.randint(0, 3)
        N = rng.randint(0, 3)
        dig = _digest(encode_bd(b), encode_compact(c), f"M{M}N{N}")
        cn = k_mn_norm(c, M, N)
        err = 2.0 ** (M + N + 2) * norm_tol
        rep.add_leq(
            f"case-{i:03d}/left-toeplitz", dig,
            k_mn_norm(toeplitz_times_compact(b, c), M, N),
            bd_p_norm(b, M, norm_tol) * cn,
            1e-6 + err * (1 + cn),
        )
        rep.add_leq(
            f"case-{i:03d}/right-toeplitz", dig,
            k_mn_norm(compact_times_toeplitz(c, b), M, N),
            bd_p_norm(b, M + N, norm_tol) * cn,
            1e-6 + err * (1 + cn),
        )
    return rep


# --------------------------------------------------------------------------
# 7. Bloch-norm consistency with truncations
# --------------------------------------------------------------------------

def suite_bloch_consistency(seed: int = 7, cases: int = 100) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("bloch-consistency", seed)
    S = S_DEFAULT
    sizes = (64, 256, 1024, 2048)
    for i in range(cases):
        b = cp.rand_bd(rng, S)
        dig = _digest(encode_bd(b))
        nrm = bd_norm(b, 1e-6)
        truncs = [bd_truncation_smax(b, N) for N in sizes]
        rep.add_leq(f"case-{i:03d}/upper-bound", dig, truncs[-1], nrm, 1e-6)
        mono = all(truncs[k] <= truncs[k + 1] + 1e-9 for k in range(len(truncs) - 1))
        rep.add_exact(f"case-{i:03d}/monotone", dig, mono)
        rep.add_leq(f"case-{i:03d}/final-gap", dig, nrm - truncs[-1], 1e-2, 0.0)
    return rep


# --------------------------------------------------------------------------
# 8. exponential growth bounds
# --------------------------------------------------------------------------

def suite_exp_bounds(seed: int = 7, cases: int = 50) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("exp-bounds", seed)
    S = S_DEFAULT
    for i in range(cases):
        b = cp.rand_selfadjoint_bd(rng, S, n_bands=rng.randint(1, 3), top=8)
        M = rng.randint(0, 3)
        dig = _digest(encode_bd(b), f"M{M}")
        res = check_exp_bound_b(b, M)
        rep.add_leq(f"case-{i:03d}/band-exp-bound", dig, res.lhs_lower, res.rhs,
                    1e-6 + res.certificate)
    for i in range(cases):
        c = cp.rand_selfadjoint_compact(rng, top=8)
        M = rng.randint(0, 3)
        dig = _digest(encode_compact(c), f"M{M}")
        res = check_exp_bound_c(c, M)
        rep.add_leq(f"case-{i:03d}/compact-exp-bound", dig, res.lhs_lower, res.rhs,
                    res.certificate)
    return rep


# --------------------------------------------------------------------------
# 9. inversion
# --------------------------------------------------------------------------

def _neumann_inverse(b, w):
    """Oracle inverse of a dominant-band element b = D + R as
    D^{-1} sum_k (-R D^{-1})^k, summed until the term norm estimate falls
    below 1e-14 (at most 200 terms)."""
    S = b.S
    D = bd_element(S, {w: b.bands[w]})
    R = bd_sub(b, D)
    shifted = ulc_shift(b.bands[w], -w)
    Dinv = bd_element(S, {-w: ulc([v.inverse() for v in shifted.values])})
    if R.is_zero():
        return Dinv
    X = bd_mul(R, Dinv)
    acc = bd_one(S)
    term = bd_one(S)
    for _ in range(200):
        term = bd_scale(-1, bd_mul(term, X))
        acc = bd_add(acc, term)
        if bd_sup_coefficient_norm(term) * (2 * term.bandwidth + 1) < 1e-14:
            break
    return bd_mul(Dinv, acc)


def suite_inversion(seed: int = 7, cases: int = 50) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("inversion", seed)
    S = S_DEFAULT
    for i in range(cases):
        b, w = cp.rand_invertible_bd(rng, S)
        dig = _digest(encode_bd(b))
        # the dominant band may sit at +-4 with a far perturbation, so the
        # inverse decays per |n - w| steps and needs a generous band budget
        cert = bd_invert(b, 1e-8, max_band=128)
        rep.add_leq(f"case-{i:03d}/bd-residual", dig, cert.residual_bound, 1e-8, 0.0)
        oracle = _neumann_inverse(b, w)
        diff = bd_sub(cert.value, oracle)
        dn = 0.0 if diff.is_zero() else bd_norm(diff, 1e-10)
        rep.add_leq(f"case-{i:03d}/neumann-agreement", dig, dn,
                    1e-8 + cert.residual_bound, 1e-10)
        if i % 2 == 0:
            a = toeplitz(b) if w == 0 else toeplitz(bd_mul(bd_adjoint(b), b))
            small = cp.rand_compact(rng, nnz=rng.randint(1, 4), top=2)
            a = bdt_add(a, bdt_from_compact(
                S, k_scale(Fraction(1, 256), k_add(small, k_adjoint(small)))))
            try:
                bcert = bdt_invert(a, 1e-6, [64, 128, 256])
                rep.add_leq(f"case-{i:03d}/bdt-residual", dig,
                            bcert.residual_bound, 1e-6, 0.0)
            except BdtkError as exc:
                rep.add_exact(f"case-{i:03d}/bdt-residual({exc.code})", dig, False)
    return rep


# --------------------------------------------------------------------------
# 10. derivations
# --------------------------------------------------------------------------

def suite_derivations(seed: int = 7, cases: int = 100) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("derivations-roundtrip", seed)
    S = S_DEFAULT
    for i in range(cases):
        c = cp.rand_compact(rng, nnz=rng.randint(1, 6))
        d = derivation(S, 0, None, c)
        dig = _digest(encode_compact(c))
        B = der_component_bound(d)
        try:
            got = der_reconstruct(der_as_callable(d), B, S)
            ok = got.equal(c) and got.is_exact and got.entries.keys() == c.entries.keys()
        except BdtkError:
            ok = False
        rep.add_exact(f"case-{i:03d}/reconstruct-exact", dig, ok)
    for i in range(30):
        d = cp.rand_derivation(rng, S, n_bands=rng.randint(1, 2))
        a = cp.rand_bdt(rng, S, n_bands=rng.randint(1, 2))
        dig = _digest(encode_compact(d.compact_part), encode_bd(d.symbol_part))
        B = der_component_bound(d)
        total = None
        for n in range(-B, B + 1):
            t = der_apply(der_component(d, n), a)
            total = t if total is None else bdt_add(total, t)
        rep.add_exact(f"case-{i:03d}/component-sum", dig,
                      total is not None and bdt_equal(total, der_apply(d, a)))
        n0 = rng.randint(-B, B)
        comp = der_component(d, n0)
        res = der_check_covariance(comp, n0, a, [0.3, 0.77, Fraction(1, 3)])
        rep.add_leq(f"case-{i:03d}/covariance", dig, res, 1e-10, 0.0)
        # quotient consistency: tau(d(a)) = gamma delta_L(tau a) + [b, tau a]
        lhs = tau(der_apply(d, a))
        rhs = bd_add(
            bd_scale(d.gamma, bd_delta_L(tau(a))),
            bd_sub(bd_mul(d.symbol_part, tau(a)), bd_mul(tau(a), d.symbol_part)),
        )
        rep.add_exact(f"case-{i:03d}/quotient-consistency", dig, bd_equal(lhs, rhs))
        # ideal preservation
        ka = bdt_from_compact(S, cp.rand_compact(rng, nnz=3))
        rep.add_exact(f"case-{i:03d}/ideal-preserved", dig,
                      der_apply(d, ka).symbol.is_zero())
    return rep


# --------------------------------------------------------------------------
# 11. index
# --------------------------------------------------------------------------

def det_winding_by_phase(sym: SymbolMatrix) -> int:
    """Winding number of theta -> det B(e^{2 pi i theta}) around 0, by
    argument accumulation over an equispaced grid, doubled until every phase
    step is below 1.5 rad and the total is within 1e-6 of an integer.  The
    phase is slogdet's sign, which stays defined when the determinant itself
    leaves double range.

    fredholm_index reads the index off the root count of the determinant
    polynomial (bloch.det_winding); this count shares no step with it, so
    comparing the two is a check that can fail."""
    G = 1024
    while G < 16 * (sym.wrap_degree() * sym.period + 1):
        G *= 2
    for _ in range(8):
        d = np.linalg.slogdet(sym.at_many(np.arange(G) / G)).sign
        steps = np.angle(np.roll(d, -1) / d)
        total = steps.sum() / (2 * np.pi)
        if np.max(np.abs(steps)) < 1.5 and abs(total - round(total)) < 1e-6:
            return int(round(total))
        G *= 2
    raise RuntimeError("phase accumulation did not resolve")


def suite_index(seed: int = 7, cases: int = 50) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("index-laws", seed)
    S = S_DEFAULT
    r = fredholm_index(bdt_u(S, 1))
    rep.add_exact("generator/ind(U)=-1", _digest("U"), r.index == -1 and r.stabilized)
    rep.add_exact("unit/ind(I)=0", _digest("I"), fredholm_index(bdt_u(S, 0)).index == 0)
    for n in range(-4, 5):
        period = rng.choice([1, 2, 3, 4, 6])
        vals = [Scalar.from_fraction(Fraction(rng.choice([1, -1]) * rng.randint(2, 6), 2),
                                     Fraction(rng.randint(-1, 1), 4))
                for _ in range(period)]
        g = ulc(vals)
        b = bd_element(S, {n: g})
        dig = _digest(encode_bd(b))
        idx = fredholm_index(toeplitz(b)).index
        rep.add_exact(f"monomial/n{n:+d}", dig, idx == -n)
        rep.add_exact(f"monomial/n{n:+d}-winding", dig,
                      idx == -det_winding_by_phase(bd_symbol(b)))
    pool = []
    for _ in range(10):
        b, w = cp.rand_invertible_bd(rng, S)
        pool.append((b, w))
    idx_cache = {}
    for j, (b, w) in enumerate(pool):
        idx_cache[j] = fredholm_index(toeplitz(b), schedule=(64, 128, 256)).index
        rep.add_exact(f"pool-{j}/expected", _digest(encode_bd(b)), idx_cache[j] == -w)
        rep.add_exact(f"pool-{j}/winding-consistency", _digest(encode_bd(b)),
                      idx_cache[j] == -det_winding_by_phase(bd_symbol(b)))
    for i in range(cases):
        j1, j2 = rng.randrange(len(pool)), rng.randrange(len(pool))
        a1, a2 = toeplitz(pool[j1][0]), toeplitz(pool[j2][0])
        dig = _digest(encode_bd(pool[j1][0]), encode_bd(pool[j2][0]))
        prod_idx = fredholm_index(bdt_mul(a1, a2), schedule=(64, 128, 256)).index
        rep.add_exact(f"pair-{i:02d}/additive", dig,
                      prod_idx == idx_cache[j1] + idx_cache[j2])
    for i in range(12):
        j = rng.randrange(len(pool))
        a = toeplitz(pool[j][0])
        c = cp.rand_compact(rng, nnz=rng.randint(1, 5), top=4)
        dig = _digest(encode_bd(pool[j][0]), encode_compact(c))
        try:
            pert = fredholm_index(bdt_add(a, bdt_from_compact(S, k_scale(Fraction(1, 16), c))),
                                  schedule=(64, 128, 256)).index
            ok = pert == idx_cache[j]
        except BdtkError:
            ok = False
        rep.add_exact(f"perturb-{i:02d}/invariant", dig, ok)
    return rep


# --------------------------------------------------------------------------
# 12. G_S arithmetic
# --------------------------------------------------------------------------

def _sn_divides_oracle(l: int, S: Supernatural) -> bool:
    # independent of sn_divides' cancellation: factor l by trial division
    return all(e <= S.exponent_of(p) for p, e in factorize(l).items())

def suite_gs_arithmetic(seed: int = 7, cases: int = 10000) -> VerifyReport:
    rng = random.Random(seed)
    rep = VerifyReport("gs-arithmetic", seed)
    tests = {
        "2inf": Supernatural({2: INF}),
        "2inf3": Supernatural({2: INF, 3: 1}),
        "6inf": Supernatural({2: INF, 3: INF}),
    }
    for name, S in tests.items():
        ok_members = all(
            sn_divides(l, S) == _sn_divides_oracle(l, S) for l in range(1, 65)
        )
        rep.add_exact(f"{name}/membership-64", _digest(name), ok_members)
        ok_lattice = True
        divisors = [l for l in range(1, 65) if sn_divides(l, S)]
        for a in divisors:
            for b in divisors:
                if not sn_divides(a * b // math.gcd(a, b), S):
                    ok_lattice = False
        rep.add_exact(f"{name}/lcm-lattice-64", _digest(name), ok_lattice)
    S = tests["2inf3"]
    divisors = [l for l in range(1, 65) if sn_divides(l, S)]
    ok = True
    for _ in range(cases):
        q1 = Fraction(rng.randint(-99, 99), rng.choice(divisors))
        q2 = Fraction(rng.randint(-99, 99), rng.choice(divisors))
        s = gs_add(q1, q2, S)
        if not gs_contains(s, S):
            ok = False
            break
        if s != q1 + q2:
            ok = False
            break
    rep.add_exact("2inf3/gs-add-closure", _digest("closure", str(cases)), ok)
    ok = True
    for level in range(1, 65):
        for m in range(-128, 129):
            x = embed_int(rng.randint(-50, 50), level)
            for n in (-128, -65, -1, 0, 1, 64, 128, m):
                if odometer(odometer(x, m), n) != odometer(x, m + n):
                    ok = False
    rep.add_exact("odometer/composition", _digest("odometer"), ok)
    ok = all(
        embed_int(k + level, level) == embed_int(k, level)
        for level in range(1, 65)
        for k in range(-5, 6)
    )
    rep.add_exact("embed/periodicity", _digest("embed"), ok)
    return rep


SUITES = {
    "generator-relations": suite_generator_relations,
    "toeplitz-properties": suite_toeplitz_properties,
    "correction-exactness": suite_correction_exactness,
    "prop34-chain": suite_prop_chain,
    "norm-axioms": suite_norm_axioms,
    "toeplitz-compact-estimates": suite_toeplitz_compact_estimates,
    "bloch-consistency": suite_bloch_consistency,
    "exp-bounds": suite_exp_bounds,
    "inversion": suite_inversion,
    "derivations-roundtrip": suite_derivations,
    "index-laws": suite_index,
    "gs-arithmetic": suite_gs_arithmetic,
}


def run_suite(name: str, seed: int = 7, cases: int | None = None) -> VerifyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    fn = SUITES[name]
    if cases is None:
        return fn(seed=seed)
    return fn(seed=seed, cases=cases)
