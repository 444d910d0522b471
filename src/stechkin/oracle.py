"""Brute-force verification on finite-dimensional diagonal instances.

On a discrete measure the whole problem is a weighted least-squares
problem in C^J: the functional is represented by the vector
v_j = conj(phi_j) sqrt(w_j), the deviation of a bounded functional g over
the constraint ball {sum |psi_j x_j|^2 <= 1} has the closed form

    U(g) = { sum_{psi_j != 0} |v_j - g_j|^2 / |psi_j|^2 }^(1/2)

(+inf when an atom with psi_j = 0 is not interpolated), and the norm-
constrained minimizer follows from KKT stationarity:
g_j = v_j / (1 + lambda |psi_j|^2) with the multiplier lambda fixed by
||g|| = N_budget.  This is an independent route to the same constants the
parametric formulas produce, used as the acceptance oracle.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import best_approx, extremal_element
from .spectral import SpectralMeasure, Symbol

_NORM_TOL = 1e-13
_AUDIT_SAMPLES = 200
_AUDIT_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DiagonalInstance:
    """Atoms (t_j, w_j) with symbols, plus the derived coordinate vectors."""

    locations: Tuple[float, ...]
    weights: Tuple[float, ...]
    phi: Symbol
    psi: Symbol
    phi_j: np.ndarray = field(init=False, repr=False)
    psi_j: np.ndarray = field(init=False, repr=False)
    f_j: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if len(set(self.locations)) != len(self.locations):
            raise ValueError("atom locations must be distinct")
        if np.any(w <= 0):
            raise ValueError("oracle instances require strictly positive weights")
        object.__setattr__(self, "phi_j", np.asarray([complex(self.phi(t)) for t in locs]))
        object.__setattr__(self, "psi_j", np.asarray([complex(self.psi(t)) for t in locs]))
        object.__setattr__(self, "f_j", np.sqrt(w))

    @property
    def target_vector(self) -> np.ndarray:
        """Riesz vector of the functional: v_j = conj(phi_j) f_j."""
        return np.conjugate(self.phi_j) * self.f_j

    def measure(self) -> SpectralMeasure:
        return SpectralMeasure.discrete(list(zip(self.locations, self.weights)))

    def seed(self) -> int:
        h = hashlib.sha256(repr((self.locations, self.weights)).encode()).digest()
        return int.from_bytes(h[:8], "big")


@dataclass(frozen=True)
class FunctionalVector:
    """Coordinates of a bounded functional with its norm."""

    values: np.ndarray
    norm: float

    @classmethod
    def from_values(cls, values) -> "FunctionalVector":
        v = np.asarray(values, dtype=complex)
        return cls(values=v, norm=float(np.linalg.norm(v)))


@dataclass(frozen=True)
class BruteForceResult:
    E: float
    g: Optional[FunctionalVector]
    lagrange_multiplier: float
    audit_max_improvement: float = 0.0


@dataclass(frozen=True)
class TheoremResiduals:
    """Relative residuals of the certified identities on one instance."""

    parametric: float       # oracle E at budget N(tau) vs tau*M(tau)
    deviation_at_gtau: float  # U(g_tau) vs tau*M(tau)
    norm_of_gtau: float     # ||g_tau|| vs N(tau)
    extremal_equality: float  # additive-equality defect at x_tau
    coefficient_max: float  # max_j |g_oracle_j - g_tau_j| / max_j |g_tau_j|

    def max_residual(self) -> float:
        return max(self.parametric, self.deviation_at_gtau, self.norm_of_gtau,
                   self.extremal_equality, self.coefficient_max)


def deviation(instance: DiagonalInstance, g: FunctionalVector) -> float:
    """Worst-case error of g against the functional over the constraint ball."""
    v = instance.target_vector
    r = v - np.asarray(g.values, dtype=complex)
    psi_mag = np.abs(instance.psi_j)
    zero = psi_mag == 0.0
    if np.any(zero) and np.any(np.abs(r[zero]) > 0.0):
        return math.inf
    nz = ~zero
    return float(np.sqrt(np.sum((np.abs(r[nz]) / psi_mag[nz]) ** 2)))


def extremal_vector(instance: DiagonalInstance, tau: float) -> FunctionalVector:
    """Coordinates of the extremal approximating functional at parameter tau."""
    v = instance.target_vector
    return FunctionalVector.from_values(v / (1.0 + tau * np.abs(instance.psi_j) ** 2))


def _norm_at(instance: DiagonalInstance, lam: float) -> float:
    v = instance.target_vector
    return float(np.linalg.norm(v / (1.0 + lam * np.abs(instance.psi_j) ** 2)))


def _audit(instance: DiagonalInstance, g: np.ndarray, budget: float, u_best: float) -> float:
    """Check that random feasible perturbations do not beat the returned optimum."""
    rng = np.random.default_rng(instance.seed())
    n = g.shape[0]
    worst = 0.0
    for k in range(_AUDIT_SAMPLES):
        eps = 10.0 ** rng.uniform(-6, -1) * max(budget, 1.0)
        delta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cand = g + eps * delta
        nc = np.linalg.norm(cand)
        if nc > budget:
            cand = cand * (budget / nc)
        u = deviation(instance, FunctionalVector.from_values(cand))
        worst = max(worst, u_best - u)
    return worst


def brute_force_best_approx(instance: DiagonalInstance, N_budget: float,
                            audit: bool = True) -> BruteForceResult:
    """Minimize the deviation over functionals of norm <= N_budget.

    Atoms with psi_j = 0 must be interpolated for a finite deviation; when
    their combined |v_j|^2 already exceeds the squared budget the problem
    is infeasible and E = +inf is reported.  Otherwise the multiplier is
    bisected until the norm constraint is met to within 1e-13 relative.
    """
    if not (N_budget > 0.0):
        raise ValueError("N_budget must be positive")
    v = instance.target_vector
    psi_mag = np.abs(instance.psi_j)
    pinned = psi_mag == 0.0
    pinned_mass = float(np.sum(np.abs(v[pinned]) ** 2))
    if pinned_mass >= N_budget ** 2:
        # interpolating the psi-kernel atoms alone exhausts the budget
        return BruteForceResult(E=math.inf, g=None, lagrange_multiplier=math.inf)

    if float(np.linalg.norm(v)) <= N_budget:
        g = FunctionalVector.from_values(v)
        worst = _audit(instance, v, N_budget, 0.0) if audit else 0.0
        return BruteForceResult(E=0.0, g=g, lagrange_multiplier=0.0,
                                audit_max_improvement=worst)

    lo = 0.0
    hi = 1.0
    while _norm_at(instance, hi) >= N_budget:
        hi *= 2.0
        if hi > 1e18:
            return BruteForceResult(E=math.inf, g=None, lagrange_multiplier=math.inf)
    lam = hi
    for _ in range(300):
        lam = 0.5 * (lo + hi)
        nv = _norm_at(instance, lam)
        if abs(nv - N_budget) <= _NORM_TOL * N_budget:
            break
        if nv > N_budget:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-16 * hi:
            lam = 0.5 * (lo + hi)
            break

    gv = v / (1.0 + lam * psi_mag ** 2)
    g = FunctionalVector.from_values(gv)
    e = deviation(instance, g)
    worst = _audit(instance, gv, N_budget, e) if audit else 0.0
    return BruteForceResult(E=e, g=g, lagrange_multiplier=lam,
                            audit_max_improvement=worst)


def verify_theorems(instance: DiagonalInstance, tau: float) -> TheoremResiduals:
    """Residuals tying the oracle to the parametric formulas on one instance."""
    measure = instance.measure()
    cons = best_approx(measure, instance.phi, instance.psi, tau)
    g_tau = extremal_vector(instance, tau)

    scale_e = max(cons.E, 1e-300)
    dev = deviation(instance, g_tau)
    res_dev = abs(dev - cons.E) / scale_e
    res_norm = abs(g_tau.norm - cons.N) / max(cons.N, 1e-300)

    if cons.N > 0:
        bf = brute_force_best_approx(instance, cons.N, audit=False)
        res_par = abs(bf.E - cons.E) / scale_e
        coeff = math.inf if bf.g is None else float(
            np.max(np.abs(bf.g.values - g_tau.values)) / max(np.max(np.abs(g_tau.values)), 1e-300))
    else:
        res_par = 0.0
        coeff = 0.0

    xel = extremal_element(measure, instance.phi, instance.psi, tau)
    res_eq = xel.residual / max(xel.functional_value, 1e-300)

    return TheoremResiduals(
        parametric=res_par,
        deviation_at_gtau=res_dev,
        norm_of_gtau=res_norm,
        extremal_equality=res_eq,
        coefficient_max=coeff,
    )
