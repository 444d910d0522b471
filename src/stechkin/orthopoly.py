"""Orthonormal classical polynomial families.

Three weight/interval settings:

* Hermite:      w(t) = exp(-t^2)            on R
* Laguerre(a):  w(t) = t^a exp(-t), a > -1  on (0, inf)
* Jacobi(a, b): w(t) = (1-t)^a (1+t)^b      on (-1, 1), a, b > -1

Polynomials are built from the monic three-term recurrences plus norm
ratios (one code path for every family and parameter choice) and
normalized to unit weighted L2 norm.  A quadrature Gram check gates first
use of every recurrence table.  The families are eigenfunctions of a
second-order differential operator; :func:`ode_residual` measures the
defect of that equation using exact derivative recurrences.

Sign convention: Hermite and Jacobi polynomials have positive leading
coefficients; Laguerre polynomials carry the classical alternating
(-1)^n leading sign, so the degree-1 Laguerre polynomial is 1 - t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigError

_GL64_U, _GL64_W = np.polynomial.legendre.leggauss(64)
_GRAM_GATE_TOL = 1e-10
_validated: Dict[Tuple, bool] = {}


@dataclass(frozen=True, eq=True)
class OrthogonalFamily:
    """One of the three classical families with its parameters."""

    kind: str                  # 'hermite' | 'laguerre' | 'jacobi'
    alpha: float = 0.0
    beta: float = 0.0

    @classmethod
    def hermite(cls) -> "OrthogonalFamily":
        return cls(kind="hermite")

    @classmethod
    def laguerre(cls, alpha: float = 0.0) -> "OrthogonalFamily":
        if alpha <= -1:
            raise ConfigError("laguerre requires alpha > -1")
        return cls(kind="laguerre", alpha=float(alpha))

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "OrthogonalFamily":
        if alpha <= -1 or beta <= -1:
            raise ConfigError("jacobi requires alpha, beta > -1")
        return cls(kind="jacobi", alpha=float(alpha), beta=float(beta))

    # -- interval / weight / differential data ---------------------------

    def interval(self) -> Tuple[float, float]:
        return {
            "hermite": (-math.inf, math.inf),
            "laguerre": (0.0, math.inf),
            "jacobi": (-1.0, 1.0),
        }[self.kind]

    def weight(self, t):
        if self.kind == "hermite":
            return np.exp(-np.asarray(t, dtype=float) ** 2)
        if self.kind == "laguerre":
            tt = np.asarray(t, dtype=float)
            return tt ** self.alpha * np.exp(-tt)
        tt = np.asarray(t, dtype=float)
        return (1.0 - tt) ** self.alpha * (1.0 + tt) ** self.beta

    def eigenvalue(self, n: int) -> float:
        """gamma_n in D y'' + (A + D') y' - gamma_n y = 0."""
        if self.kind == "hermite":
            return -2.0 * n
        if self.kind == "laguerre":
            return -1.0 * n
        return -1.0 * n * (n + self.alpha + self.beta + 1.0)

    def ode_coefficients(self, t: float) -> Tuple[float, float, float]:
        """(A(t), D(t), D'(t)) of the defining differential equation."""
        if self.kind == "hermite":
            return -2.0 * t, 1.0, 0.0
        if self.kind == "laguerre":
            return self.alpha - t, t, 1.0
        return (
            self.beta - self.alpha - (self.alpha + self.beta) * t,
            1.0 - t * t,
            -2.0 * t,
        )

    def mu0(self) -> float:
        """Total weight mass (the 0-th moment)."""
        if self.kind == "hermite":
            return math.sqrt(math.pi)
        if self.kind == "laguerre":
            return math.gamma(self.alpha + 1.0)
        a, b = self.alpha, self.beta
        return 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)

    def sign(self, n: int) -> float:
        """Leading-coefficient sign relative to the monic-orthonormal chain."""
        if self.kind == "laguerre":
            return -1.0 if n % 2 else 1.0
        return 1.0

    def _key(self) -> Tuple:
        return (self.kind, self.alpha, self.beta)


@lru_cache(maxsize=64)
def _recurrence(key: Tuple, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Monic recurrence coefficients (a_n, b_n), p_{n+1} = (t-a_n)p_n - b_n p_{n-1}.

    b_0 carries the 0-th moment so that prod(b_0..b_n) = ||p_n||^2.
    """
    kind, alpha, beta = key
    n = np.arange(0, n_max + 1, dtype=float)
    if kind == "hermite":
        a = np.zeros(n_max + 1)
        b = n / 2.0
    elif kind == "laguerre":
        a = 2.0 * n + alpha + 1.0
        b = n * (n + alpha)
    else:
        s = alpha + beta
        a = np.empty(n_max + 1)
        b = np.empty(n_max + 1)
        a[0] = (beta - alpha) / (s + 2.0)
        for k in range(1, n_max + 1):
            den = (2.0 * k + s) * (2.0 * k + s + 2.0)
            a[k] = (beta * beta - alpha * alpha) / den
            if k + s == 0.0:  # alpha + beta = -1 makes b_1 0/0: take its limit
                b[k] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + s) ** 2 * (3.0 + s))
            else:
                b[k] = (
                    4.0 * k * (k + alpha) * (k + beta) * (k + s)
                    / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0))
                )
    b[0] = OrthogonalFamily(*key).mu0()
    return a, b


def _gate(family: OrthogonalFamily) -> None:
    """Run the one-time Gram self-check that gates use of a recurrence table."""
    key = family._key()
    if _validated.get(key):
        return
    g = gram_matrix(family, 8)
    defect = float(np.max(np.abs(g - np.eye(9))))
    if defect > _GRAM_GATE_TOL:
        raise ConfigError(
            f"orthonormality self-check failed for {family}: Gram defect {defect:.3e}"
        )
    _validated[key] = True


def evaluate_all(family: OrthogonalFamily, n_max: int, t) -> np.ndarray:
    """Values F_0(t), ..., F_{n_max}(t); t may be a scalar or 1-d array.

    Returns shape (n_max+1,) for scalars and (n_max+1, len(t)) for arrays.
    """
    _gate(family)
    tt = np.asarray(t, dtype=float)
    lo, hi = family.interval()
    if np.any(tt < lo) or np.any(tt > hi):
        raise ValueError(f"evaluation point outside the family interval {family.interval()}")
    return _eval_block(family, n_max, float(tt) if tt.ndim == 0 else tt)


def evaluate(family: OrthogonalFamily, n: int, t):
    """F_n(t) for one degree; see :func:`evaluate_all` for batches."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    vals = evaluate_all(family, n, t)
    return float(vals[n]) if np.asarray(t).ndim == 0 else vals[n]


def evaluate_with_derivatives(family: OrthogonalFamily, n: int, t: float) -> Tuple[float, float, float]:
    """(F_n, F_n', F_n'') by differentiating the recurrence exactly."""
    _gate(family)
    a, b = _recurrence(family._key(), n + 1)
    lo, hi = family.interval()
    if not (lo <= t <= hi):
        raise ValueError("evaluation point outside the family interval")
    q_prev = d_prev = s_prev = 0.0
    q = 1.0 / math.sqrt(b[0])
    d = 0.0
    s = 0.0
    for k in range(n):
        rb = math.sqrt(b[k + 1])
        q_next = ((t - a[k]) * q - math.sqrt(b[k]) * q_prev) / rb
        d_next = (q + (t - a[k]) * d - math.sqrt(b[k]) * d_prev) / rb
        s_next = (2.0 * d + (t - a[k]) * s - math.sqrt(b[k]) * s_prev) / rb
        q_prev, q = q, q_next
        d_prev, d = d, d_next
        s_prev, s = s, s_next
    sg = family.sign(n)
    return sg * q, sg * d, sg * s


def ode_residual(family: OrthogonalFamily, n: int, t: float) -> float:
    """|D(t) F_n'' + (A(t)+D'(t)) F_n' - gamma_n F_n| at an interior point."""
    lo, hi = family.interval()
    if not (lo < t < hi):
        raise ValueError("ODE residual requires an interior point")
    f, fp, fpp = evaluate_with_derivatives(family, n, t)
    A, D, Dp = family.ode_coefficients(t)
    return abs(D * fpp + (A + Dp) * fp - family.eigenvalue(n) * f)


# ----------------------------------------------------------------------
# quadrature Gram check


_SLIVER = 2.0 ** -40


def _panels(family: OrthogonalFamily, n_max: int) -> np.ndarray:
    """Panel edges adapted to the family: graded toward algebraic endpoints,
    truncated where the exponential weight is negligible.

    Endpoint slivers of width 2^-40 are excluded here; their contribution is
    added analytically in :func:`gram_matrix` (the polynomials are constant
    at that scale), which sidesteps node rounding at the singular ends.
    """
    if family.kind == "hermite":
        L = 2.0 * math.sqrt(n_max + 1.0) + 10.0
        return np.linspace(-L, L, int(4 * L) + 1)
    if family.kind == "laguerre":
        T = 8.0 * n_max + 80.0
        graded = [_SLIVER * 2.0 ** k for k in range(0, 41)]
        body = np.linspace(1.0, T, int(2 * T) + 1)[1:]
        return np.concatenate([np.asarray(graded), body])
    graded = np.asarray([_SLIVER * 2.0 ** k for k in range(0, 40)])
    left = -1.0 + graded
    right = (1.0 - graded)[::-1]
    body = np.linspace(-0.5, 0.5, 41)
    return np.unique(np.concatenate([left, body, right]))


def _eval_block(family: OrthogonalFamily, n_max: int, t) -> np.ndarray:
    """Recurrence evaluated without the Gram gate, which itself calls this path.

    A float ``t`` runs on Python floats, a 1-d array on numpy arrays, with the
    same bits per point; the shape is (n_max+1,) + np.shape(t).
    """
    a, b = _recurrence(family._key(), n_max + 1)
    a, rb = a.tolist(), np.sqrt(b).tolist()
    Q = np.empty((n_max + 1,) + np.shape(t))
    q_prev, q = 0.0, 1.0 / rb[0]
    Q[0] = q
    for k in range(n_max):
        q_prev, q = q, ((t - a[k]) * q - rb[k] * q_prev) / rb[k + 1]
        Q[k + 1] = q
    Q[1::2] *= family.sign(1)
    return Q


def gram_matrix(family: OrthogonalFamily, n_max: int) -> np.ndarray:
    """Weighted Gram matrix of F_0..F_{n_max} under composite Gauss-Legendre."""
    edges = _panels(family, n_max)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(c + h * _GL64_U)
        weights.append(h * _GL64_W)
    tt = np.concatenate(nodes)
    ww = np.concatenate(weights) * family.weight(tt)
    Q = _eval_block(family, n_max, tt)
    G = (Q * ww) @ Q.T

    # analytic sliver terms at algebraic endpoints
    if family.kind == "laguerre":
        q0 = _eval_block(family, n_max, 0.0)
        mass = _SLIVER ** (family.alpha + 1.0) / (family.alpha + 1.0)
        G += mass * np.outer(q0, q0)
    elif family.kind == "jacobi":
        qm = _eval_block(family, n_max, -1.0)
        qp = _eval_block(family, n_max, 1.0)
        mass_m = 2.0 ** family.alpha * _SLIVER ** (family.beta + 1.0) / (family.beta + 1.0)
        mass_p = 2.0 ** family.beta * _SLIVER ** (family.alpha + 1.0) / (family.alpha + 1.0)
        G += mass_m * np.outer(qm, qm) + mass_p * np.outer(qp, qp)
    return G
