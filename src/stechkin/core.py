"""Sharp additive bounds for spectral functionals and their best approximation.

For a symbol pair (phi, psi), an element f represented by its scalar
spectral measure mu, and a parameter tau > 0, the two central quantities
are

    N(tau) = { integral |phi|^2 / (1 + tau |psi|^2)^2  dmu }^(1/2)
    M(tau) = { integral |phi psi|^2 / (1 + tau |psi|^2)^2  dmu }^(1/2)

The best approximation of the functional x -> (phi(A)x, f) by bounded
functionals of norm N(tau) on the unit ball of ||psi(A)x|| equals
E = tau*M(tau), the additive bound |F(x)| <= tau*M*||psi(A)x|| + N*||x||
is sharp, and equality holds at the element with spectral coefficients
conj(phi)/(1 + tau|psi|^2).  This module computes the constants, the
extremal element with its equality certificates, the single-constant
(Schwarz-combined) coefficient, the supremum-based operator-norm constant,
and a quantitative behavior report for N and M as functions of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import AdmissibilityError, TargetOutOfRangeError
from .numerics import solve_monotone
from .spectral import (
    SpectralMeasure,
    Symbol,
    _denom,
    _growth,
    _integral,
    _ratio_sup,
    norm_phi_f,
    spectral_integral,
    weight,
)

DEFAULT_RTOL = 1e-10


@dataclass(frozen=True)
class SharpConstants:
    """The parametric solution (tau, N, M, E) with E = tau*M exactly."""

    tau: float
    N: float
    M: float
    E: float


@dataclass(frozen=True)
class ExtremalElement:
    """Extremal element x_tau: coefficient map, norms and equality certificate.

    ``coefficient(t)`` evaluates conj(phi(t)) / (1 + tau |psi(t)|^2).
    ``residual`` is |functional_value - (N*norm_x + tau*M*norm_psi_x)|, the
    defect of the additive equality at x_tau.
    """

    tau: float
    norm_x: float
    norm_psi_x: float
    functional_value: float
    residual: float
    constants: SharpConstants
    _phi: Symbol = field(default=None, repr=False)
    _psi: Symbol = field(default=None, repr=False)

    def coefficient(self, t):
        return np.conjugate(self._phi(t)) / _denom(self._psi, self.tau)(t)


@dataclass(frozen=True)
class LemmaReport:
    """Quantitative behavior of N and M over a tau grid.

    ``continuity_max_jump`` is the largest relative defect of the exact
    difference identity
    N(t1)^2 - N(t2)^2 = (t2-t1) * integral |phi psi|^2 (2 + (t1+t2)|psi|^2)
    / ((1+t1|psi|^2)^2 (1+t2|psi|^2)^2) dmu over adjacent grid pairs, so a
    small value certifies the continuity modulus numerically.
    ``small_tau_envelope`` is tau_min * sup_t |phi|^2/(1+tau_min|psi|^2),
    the quantity whose decay drives tau*M(tau) -> 0 for finite-mass
    measures.
    """

    monotonicity_violations: int
    continuity_max_jump: float
    limit_tau0: float
    limit_tau_inf: float
    tauM_limit0: float
    small_tau_envelope: float


def _require_tau(tau: float) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")


# ----------------------------------------------------------------------
# the parametric pair


def n_value(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
            rel_tol: float = DEFAULT_RTOL) -> float:
    """N(tau): the norm of the extremal approximating functional."""
    _require_tau(tau)
    if phi.is_zero:
        return 0.0
    return math.sqrt(spectral_integral(measure, weight(phi, psi, tau, 0, 2), rel_tol=rel_tol,
                                       growth=_growth(phi, psi, 2, False)))


def m_value(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
            rel_tol: float = DEFAULT_RTOL) -> float:
    """M(tau): E = tau*M(tau) is the best-approximation error at budget N(tau)."""
    _require_tau(tau)
    if phi.is_zero or psi.is_zero:
        return 0.0
    return math.sqrt(spectral_integral(measure, weight(phi, psi, tau, 1, 2), rel_tol=rel_tol,
                                       growth=_growth(phi, psi, 2, True)))


def best_approx(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
                rel_tol: float = DEFAULT_RTOL) -> SharpConstants:
    """Evaluate the parametric solution at a given tau."""
    n = n_value(measure, phi, psi, tau, rel_tol)
    m = m_value(measure, phi, psi, tau, rel_tol)
    return SharpConstants(tau=tau, N=n, M=m, E=tau * m)


def _psi_kernel_mass(measure: SpectralMeasure, phi: Symbol, psi: Symbol) -> float:
    """Mass of |phi|^2 dmu carried by points where psi vanishes exactly."""
    if measure.variant == "density":
        return 0.0  # densities: symbol zero sets carry no mass
    if measure.atoms is None:
        # only finitely many lattice points can null a nonzero analytic symbol;
        # n = 0 is the one that matters for power symbols
        measure = SpectralMeasure.discrete([(0.0, measure.uniform_weight)])
    return _integral(measure, lambda t: np.where(np.abs(psi(t)) == 0.0, phi.abs2(t), 0.0)).value


def solve_tau(measure: SpectralMeasure, phi: Symbol, psi: Symbol, N_target: float,
              rel_tol: float = DEFAULT_RTOL) -> SharpConstants:
    """Find tau with N(tau) = N_target and return the constants there.

    The attainable targets form the open interval between the large-tau
    floor (driven by |phi|^2-mass on the zero set of psi) and the small-tau
    limit ||phi(A)f||; targets outside raise
    :class:`TargetOutOfRangeError` naming the violated end.
    """
    if not (N_target > 0.0):
        raise ValueError("N_target must be positive")
    upper = norm_phi_f(measure, phi, rel_tol=rel_tol)
    if N_target >= upper:
        raise TargetOutOfRangeError(
            f"N_target {N_target:g} is not below the small-tau limit "
            f"||phi(A)f|| = {upper:g}; no tau attains it",
            limit="small-tau",
            bound=upper,
        )
    floor = math.sqrt(_psi_kernel_mass(measure, phi, psi))
    if N_target <= floor * (1.0 + 1e-12):
        raise TargetOutOfRangeError(
            f"N_target {N_target:g} does not exceed the large-tau floor {floor:g} "
            "(|phi|^2-mass where psi vanishes); no tau attains it",
            limit="large-tau",
            bound=floor,
        )

    root_tol = max(1e-12, 10.0 * rel_tol) if measure.variant != "discrete" else 1e-12
    tau_star = solve_monotone(
        lambda tau: n_value(measure, phi, psi, tau, rel_tol), N_target, rel_tol=root_tol
    )
    return best_approx(measure, phi, psi, tau_star, rel_tol)


# ----------------------------------------------------------------------
# extremal element and bounds


def extremal_element(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
                     rel_tol: float = DEFAULT_RTOL) -> ExtremalElement:
    """Build x_tau and evaluate its norms, functional value and equality defect."""
    constants = best_approx(measure, phi, psi, tau, rel_tol)
    if phi.is_zero:
        fv = 0.0
    else:
        fv = spectral_integral(measure, weight(phi, psi, tau, 0, 1), rel_tol=rel_tol,
                               growth=_growth(phi, psi, 1, False))
    bound = additive_bound(constants, constants.N, constants.M)
    return ExtremalElement(
        tau=tau,
        norm_x=constants.N,
        norm_psi_x=constants.M,
        functional_value=fv,
        residual=abs(fv - bound),
        constants=constants,
        _phi=phi,
        _psi=psi,
    )


def additive_bound(constants: SharpConstants, norm_x: float, norm_psi_x: float) -> float:
    """Right-hand side of the sharp additive inequality: E*||psi(A)x|| + N*||x||."""
    if norm_x < 0 or norm_psi_x < 0:
        raise ValueError("norms must be nonnegative")
    return constants.E * norm_psi_x + constants.N * norm_x


def hormander_coefficient(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
                          rel_tol: float = DEFAULT_RTOL) -> float:
    """Single sharp constant { integral |phi|^2/(1+tau|psi|^2) dmu }^(1/2).

    The integral is the extremal element's functional value; it is
    cross-checked against N^2 + tau*M^2, which it must equal.
    """
    return hormander_from_element(extremal_element(measure, phi, psi, tau, rel_tol), measure)


def hormander_from_element(x: ExtremalElement, measure: SpectralMeasure) -> float:
    """:func:`hormander_coefficient` from an extremal element already built on ``measure``."""
    val = x.functional_value
    if math.isinf(val):
        return math.inf
    combo = x.constants.N ** 2 + x.tau * x.constants.M ** 2
    tol = 1e-6 if measure.variant != "discrete" else 1e-10
    if abs(val - combo) > tol * max(val, 1e-300):
        raise AdmissibilityError(
            f"internal identity failed: coefficient^2 = {val:.17g} vs "
            f"N^2 + tau*M^2 = {combo:.17g}"
        )
    return math.sqrt(val)


def hlp_constant(phi: Symbol, psi: Symbol, tau: float,
                 domain: Tuple[float, float] = (-math.inf, math.inf)) -> float:
    """Supremum constant sup_t { |phi(t)|^2 / (1 + tau |psi(t)|^2) }^(1/2).

    The square root of ``spectral._ratio_sup``, which admissibility reads at
    tau = 1: exact for power pairs on an unbounded domain containing 0 and
    for table phi, a supremum search otherwise.  Returns ``math.inf`` when
    the ratio is unbounded (the boundedness condition on |phi|/(1+|psi|^2)^(1/2)
    fails), which makes the operator-norm comparison vacuous.
    """
    _require_tau(tau)
    return math.sqrt(_ratio_sup(phi, psi, tau, domain))


# ----------------------------------------------------------------------
# behavior suite over a tau grid


def _continuity_weight(phi: Symbol, psi: Symbol, t1: float, t2: float) -> Callable:
    def w(t):
        p2 = psi.abs2(t)
        return phi.abs2(t) * p2 * (2.0 + (t1 + t2) * p2) / (
            (1.0 + t1 * p2) ** 2 * (1.0 + t2 * p2) ** 2
        )

    return w


def small_tau_envelope(phi: Symbol, psi: Symbol, tau: float) -> float:
    """tau * sup_t |phi(t)|^2 / (1 + tau |psi(t)|^2); controls tau*M for finite mass."""
    c = hlp_constant(phi, psi, tau)
    return tau * c * c if not math.isinf(c) else math.inf


def lemma_suite(measure: SpectralMeasure, phi: Symbol, psi: Symbol,
                tau_grid: Sequence[float],
                rel_tol_n: float = DEFAULT_RTOL,
                rel_tol_m: float = 1e-6) -> LemmaReport:
    """Check monotonicity, quantitative continuity and tau -> 0 / inf behavior of N.

    Violations are counted, never raised; the report carries the limits so
    callers can compare them against ||phi(A)f|| and a decay threshold.
    """
    taus = [float(t) for t in tau_grid]
    if len(taus) < 3:
        raise ValueError("tau grid needs at least 3 points")
    if any(t <= 0 for t in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be positive and strictly increasing")

    ns = [n_value(measure, phi, psi, t, rel_tol_n) for t in taus]
    violations = sum(
        1 for a, b in zip(ns, ns[1:]) if b > a * (1.0 + 1e-9) + 1e-300
    )

    max_defect = 0.0
    for (t1, n1), (t2, n2) in zip(zip(taus, ns), zip(taus[1:], ns[1:])):
        ident = spectral_integral(
            measure, _continuity_weight(phi, psi, t1, t2), rel_tol=rel_tol_m,
            growth=_growth(phi, psi, 2, False),
        )
        defect = abs(n1 ** 2 - n2 ** 2 - (t2 - t1) * ident) / max(n1 ** 2, 1e-300)
        max_defect = max(max_defect, defect)

    phi_norm = norm_phi_f(measure, phi, rel_tol=rel_tol_n)
    limit_tau0 = math.inf if math.isinf(phi_norm) else ns[0]
    tau_min = taus[0]
    m0 = m_value(measure, phi, psi, tau_min, rel_tol_m)

    return LemmaReport(
        monotonicity_violations=violations,
        continuity_max_jump=max_defect,
        limit_tau0=limit_tau0,
        limit_tau_inf=ns[-1],
        tauM_limit0=tau_min * m0,
        small_tau_envelope=small_tau_envelope(phi, psi, tau_min),
    )
