"""Derivations in the classified form d = gamma d_K + [T(b) + c, .], their
covariant Fourier components, and reconstruction of the compact part of a
black-box derivation from its values on generators.

Reconstruction follows the component calculus: the n-th component of a
compact-range derivation is [U^n beta_n(K), .] (n >= 0; mirrored for n < 0),
so beta_n can be read off d_n(M_chi) for a character chi with chi(n) != 1,
and beta_0 by summing the difference sequence alpha_0 read off d_0(U).  All
phases and characters are exact roots of unity, so a finite-support compact
part is recovered exactly."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import Supernatural, sn_divides, sn_divisors_upto
from .bd import BdElement, bd_element, bd_m, bd_v, bd_zero
from .bdt import (
    BdtElement,
    bdt_add,
    bdt_component_range,
    bdt_dK,
    bdt_equal,
    bdt_fourier,
    bdt_from_compact,
    bdt_mul,
    bdt_rho,
    bdt_scale,
    bdt_window_numpy,
    toeplitz,
)
from .compact import CompactMatrix, k_units, k_zero
from .errors import ReconstructionMismatchError, UnsupportedDerivationError
from .scalars import Scalar, phase_scalar
from .ulc import ulc, ulc_character, ulc_eval


@dataclass(frozen=True, eq=False)
class DerivationSpec:
    """d = gamma d_K + [T(b) + c, .]."""

    gamma: Scalar
    symbol_part: BdElement
    compact_part: CompactMatrix

    @property
    def S(self) -> Supernatural:
        return self.symbol_part.S


@dataclass(frozen=True)
class CovariantComponent:
    """The data of an n-covariant compact-range derivation [x_n, .]:
    x_n = U^n beta_n(K) for n >= 0, beta_n(K) (U^*)^{-n} for n < 0."""

    n: int
    beta: dict[int, Scalar]


def derivation(S: Supernatural, gamma=0, b: BdElement | None = None,
               c: CompactMatrix | None = None) -> DerivationSpec:
    return DerivationSpec(
        Scalar.from_number(gamma),
        b if b is not None else bd_zero(S),
        c if c is not None else k_zero(),
    )


def der_inner_element(d: DerivationSpec) -> BdtElement:
    """The implementing element x = T(b) + c of the inner part."""
    return bdt_add(toeplitz(d.symbol_part), bdt_from_compact(d.S, d.compact_part))


def der_apply(d: DerivationSpec, a: BdtElement) -> BdtElement:
    """gamma d_K(a) + [T(b) + c, a], exactly."""
    x = der_inner_element(d)
    out = bdt_add(bdt_mul(x, a), bdt_scale(-1, bdt_mul(a, x)))
    if not d.gamma.is_zero():
        out = bdt_add(out, bdt_scale(d.gamma, bdt_dK(a)))
    return out


def der_as_callable(d: DerivationSpec):
    return lambda a: der_apply(d, a)


def der_leibniz_residual(d: DerivationSpec, a1: BdtElement, a2: BdtElement, N: int) -> float:
    """Truncated norm of d(a1 a2) - d(a1) a2 - a1 d(a2); structurally zero for
    commutator-plus-d_K derivations, so this returns 0.0 on exact inputs."""
    lhs = der_apply(d, bdt_mul(a1, a2))
    rhs = bdt_add(bdt_mul(der_apply(d, a1), a2), bdt_mul(a1, der_apply(d, a2)))
    diff = bdt_add(lhs, bdt_scale(-1, rhs))
    if diff.is_zero():
        return 0.0
    return float(np.linalg.svd(bdt_window_numpy(diff, N, N), compute_uv=False)[0])


def der_component(d: DerivationSpec, n: int) -> DerivationSpec:
    """Structural n-th Fourier component: gamma d_K survives only at n = 0 and
    the inner part picks up the n-th component of its implementing element."""
    x_n = bdt_fourier(der_inner_element(d), n)
    return DerivationSpec(
        d.gamma if n == 0 else Scalar.from_int(0), x_n.symbol, x_n.compact
    )


def der_component_bound(d: DerivationSpec) -> int:
    """Smallest B with all components of d supported in [-B, B]."""
    return bdt_component_range(der_inner_element(d))


def der_covariant_data(d: DerivationSpec, n: int) -> CovariantComponent:
    """The beta sequence of the n-th component of a compact-range derivation:
    the component is [U^n beta(K), .] (n >= 0) or [beta(K) (U^*)^{-n}, .]."""
    comp = der_component(d, n)
    if not comp.gamma.is_zero() or not comp.symbol_part.is_zero():
        raise UnsupportedDerivationError("component is not compact-range")
    beta: dict[int, Scalar] = {}
    for (k, s), v in comp.compact_part.entries.items():
        beta[min(k, s)] = v
    return CovariantComponent(n, beta)


def der_check_covariance(d_n: DerivationSpec, n: int, a: BdtElement, theta_samples) -> float:
    """max over the samples of the 48 x 48 truncated norm of
    rho_{-theta} d_n(rho_theta(a)) - e^{-2 pi i n theta} d_n(a)."""
    base = der_apply(d_n, a)
    worst = 0.0
    for th in theta_samples:
        lhs = bdt_rho(der_apply(d_n, bdt_rho(a, th)), -th)
        rhs = bdt_scale(phase_scalar(-n, th), base)
        diff = bdt_add(lhs, bdt_scale(-1, rhs))
        if diff.is_zero():
            continue
        worst = max(worst, float(np.linalg.svd(bdt_window_numpy(diff, 48, 48), compute_uv=False)[0]))
    return worst


def _character_level(S: Supernatural, n: int) -> int:
    """Smallest l | S, up to 4096, with l not dividing n, so that
    chi_l(n) != 1."""
    for l in range(2, 4097):
        if n % l != 0 and sn_divides(l, S):
            return l
    raise UnsupportedDerivationError(
        f"no divisor of S up to 4096 separates n = {n}"
    )


def _require_compact(a: BdtElement, what: str) -> CompactMatrix:
    if not a.symbol.is_zero():
        raise UnsupportedDerivationError(f"{what} has a nonzero symbol part")
    return a.compact


def der_reconstruct(d, band_limit: int, S: Supernatural) -> CompactMatrix:
    """Recover c with d = [c, .] from a black-box compact-range derivation.

    d is a callable on elements; it is evaluated once on the generator U and
    once on each exact character M_chi it needs.  Both inputs are
    gauge-homogeneous (U has degree 1, M_chi degree 0), so the n-th component
    d_n(x) is exactly the degree-(n + deg x) diagonal of d(x).  beta_n is
    normalized by beta_n -> 0 at infinity, which the finite-support
    hypothesis realizes as a finite sum.  The result is verified against d on
    a fixed corpus; exact inputs reproduce c exactly."""
    B = int(band_limit)
    if B < 0:
        raise ValueError("band_limit must be nonnegative")
    dU = d(toeplitz(bd_v(S, 1)))
    betas: dict[int, dict[int, Scalar]] = {}

    # n = 0: alpha_0 from d_0(U) = U alpha_0(K), then beta_0(k) = -sum_{r>=k} alpha_0(r)
    dU0 = _require_compact(bdt_fourier(dU, 1), "d_0(U)")
    alpha0 = {s: v for (_, s), v in dU0.entries.items()}
    beta0: dict[int, Scalar] = {}
    if alpha0:
        kmax = max(alpha0)
        running = Scalar.from_int(0)
        for k in range(kmax, -1, -1):
            running = running + alpha0.get(k, Scalar.from_int(0))
            if not running.is_zero():
                beta0[k] = -running
    betas[0] = beta0

    # n != 0: beta_n from d_n(M_chi) with chi(n) != 1
    dM: dict[int, BdtElement] = {}
    for n in range(-B, B + 1):
        if n == 0:
            continue
        l = _character_level(S, n)
        chi = ulc_character(l, 1)
        if l not in dM:
            dM[l] = d(toeplitz(bd_m(S, chi)))
        dnM = _require_compact(bdt_fourier(dM[l], n), f"d_{n}(M_chi)")
        beta: dict[int, Scalar] = {}
        if n > 0:
            inv = (Scalar.from_int(1) - Scalar.root_of_unity(n, l)).inverse()
            for (_, s), v in dnM.entries.items():
                beta[s] = v * ulc_eval(chi, s).conj() * inv
        else:
            q = -n
            inv = (Scalar.root_of_unity(q, l) - Scalar.from_int(1)).inverse()
            for (k, _), v in dnM.entries.items():
                beta[k] = v * ulc_eval(chi, k).conj() * inv
        betas[n] = {k: v for k, v in beta.items() if not v.is_zero()}

    ent: dict[tuple[int, int], Scalar] = {}
    for n, beta in betas.items():
        for k, v in beta.items():
            key = (k + n, k) if n >= 0 else (k, k - n)
            ent[key] = ent[key] + v if key in ent else v
    c = CompactMatrix(ent)

    _verify_reconstruction(d, c, S)
    return c


def _verify_reconstruction(d, c: CompactMatrix, S: Supernatural):
    divs = sn_divisors_upto(S, 16) or [1]
    corpus: list[BdtElement] = [
        toeplitz(bd_v(S, 1)),
        toeplitz(bd_v(S, -1)),
        toeplitz(bd_v(S, 2)),
        bdt_from_compact(S, k_units(0, 0)),
        bdt_from_compact(S, k_units(1, 3)),
    ]
    for m in range(2, 9):
        l = divs[m % len(divs)]
        f = ulc([Fraction(p + 1, m) for p in range(l)])
        corpus.append(toeplitz(bd_element(S, {m % 5 - 2: f})))
    for k in range(7):
        corpus.append(bdt_from_compact(S, k_units(k % 3, (k * 2 + 1) % 5)))
    inner = derivation(S, 0, None, c)
    for a in corpus[:20]:
        if not bdt_equal(d(a), der_apply(inner, a)):
            raise ReconstructionMismatchError("reconstructed commutator disagrees with d")
