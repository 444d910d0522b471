"""Concrete settings: line, circle and orthogonal-polynomial constants.

Each setting reduces to the parametric pair (N, tau*M) against a concrete
measure: Lebesgue density on the line, unit weights on the integer lattice
for the circle, and atoms (n, F_n(t)^2) for the polynomial expansions.
``taikov_constants`` evaluates the classical closed forms for derivative
functionals on the line; the parametric curve produced by
:func:`line_constants` matches them after the Fourier-normalization factor
(2*pi)^((1+gamma)/2) is accounted for (see :func:`taikov_law_constant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .core import DEFAULT_RTOL, _require_tau
from .errors import AdmissibilityError, NonConvergenceError
from .numerics import integrate, sum_lattice
from .orthopoly import OrthogonalFamily, evaluate_all
from .spectral import (
    Symbol,
    SpectralMeasure,
    _denom,
    _finite_sum,
    _growth,
    _integral,
    check_admissibility,
    effective_growth,
    weight,
)


@dataclass(frozen=True)
class TaikovParams:
    """Derivative orders k < r and the trade-off parameter h > 0."""

    k: int
    r: int
    h: float = 1.0

    def __post_init__(self):
        if not (0 < self.k < self.r):
            raise ValueError("need 0 < k < r")
        if not self.h > 0:
            raise ValueError("need h > 0")


@dataclass(frozen=True)
class TaikovConstants:
    a: float
    b: float
    N: float
    E: float


@dataclass(frozen=True)
class PointConstants:
    """Constants of one concrete setting; ``t`` is None for shift-invariant ones.

    ``truncation`` counts the work behind the sums: quadrature panels on the
    line, lattice terms on the circle, the cutoff degree for expansions.
    """

    N_pt: float
    E_pt: float
    tau: float
    t: Optional[float] = None
    truncation: Optional[int] = None
    tail_bound: float = 0.0


def taikov_constants(params: TaikovParams) -> TaikovConstants:
    """Sharp constants for bounding the k-th derivative's uniform norm.

    a = {(r-k-1/2) / (2 r^2 sin(pi (2k+1)/(2r)))}^(1/2),
    b = {(k+1/2)   / (2 r^2 sin(pi (2k+1)/(2r)))}^(1/2),
    and at budget N = a h^(-k-1/2) the best approximation error is
    E = b h^(r-k-1/2).

    The b numerator is (k+1/2): it is pinned down by the parametric
    integrals (which reproduce a exactly) and by the classical k=0, r=1
    bound |x(0)|^2 <= ||x|| * ||x'|| with constant 1.
    """
    k, r, h = params.k, params.r, params.h
    s = math.sin(math.pi * (2 * k + 1) / (2 * r))
    a = math.sqrt((r - k - 0.5) / (2.0 * r * r) / s)
    b = math.sqrt((k + 0.5) / (2.0 * r * r) / s)
    return TaikovConstants(a=a, b=b, N=a * h ** (-(k + 0.5)), E=b * h ** (r - k - 0.5))


def taikov_exponent(k: int, r: int) -> float:
    """gamma = (r-k-1/2)/(k+1/2): E(N) ~ N^(-gamma) along the sharp curve."""
    return (r - k - 0.5) / (k + 0.5)


def taikov_law_constant(k: int, r: int) -> float:
    """The tau-free product E_pt * N_pt^gamma of :func:`line_constants`.

    line_constants carries the plain (unnormalized) frequency integrals, so
    the product equals (2*pi)^((1+gamma)/2) * b * a^gamma.
    """
    c = taikov_constants(TaikovParams(k=k, r=r, h=1.0))
    g = taikov_exponent(k, r)
    return (2.0 * math.pi) ** (0.5 * (1.0 + g)) * c.b * c.a ** g


# ----------------------------------------------------------------------
# line (Lebesgue density)


def _require_l2(phi: Symbol, psi: Symbol, measure: SpectralMeasure) -> None:
    report = check_admissibility(phi, psi, measure)
    if report.condition_holds is False:
        raise AdmissibilityError(
            "|phi|/(1+|psi|^2)^(1/2) is unbounded; the constants are infinite"
        )
    if report.l2_condition_holds is False:
        raise AdmissibilityError(
            "square-integrability hypothesis fails: |phi|/(1+|psi|^2)^(1/2) "
            "is not square-summable/integrable on this measure"
        )
    if report.condition_holds is None or report.l2_condition_holds is None:
        raise AdmissibilityError(
            f"admissibility undecidable: {report.notes or 'missing growth metadata'}"
        )


def _setting_constants(measure: SpectralMeasure, phi: Symbol, psi: Symbol, tau: float,
                       rel_tol: float) -> PointConstants:
    """N and E = tau*M on a builtin measure, with the error carried into ``tail_bound``."""
    _require_tau(tau)
    _require_l2(phi, psi, measure)
    n2 = _integral(measure, weight(phi, psi, tau, 0, 2), rel_tol, _growth(phi, psi, 2, False))
    m2 = _integral(measure, weight(phi, psi, tau, 1, 2), rel_tol, _growth(phi, psi, 2, True))
    return _point_constants(tau, n2.value, n2.tail_bound, m2.value, m2.tail_bound,
                            truncation=n2.terms_used + m2.terms_used)


def _point_constants(tau: float, n2: float, n2_err: float, m2: float, m2_err: float,
                     t: Optional[float] = None, truncation: Optional[int] = None) -> PointConstants:
    """N and E = tau*M from N^2 and M^2, their errors carried by d sqrt(x) = dx / (2 sqrt x)."""
    err = n2_err / max(2.0 * math.sqrt(max(n2, 1e-300)), 1e-300) \
        + tau * m2_err / max(2.0 * math.sqrt(max(m2, 1e-300)), 1e-300)
    return PointConstants(N_pt=math.sqrt(max(n2, 0.0)), E_pt=tau * math.sqrt(max(m2, 0.0)),
                          tau=tau, t=t, truncation=truncation, tail_bound=err)


def line_constants(phi: Symbol, psi: Symbol, tau: float,
                   rel_tol: float = DEFAULT_RTOL) -> PointConstants:
    """N and E for pointwise bounds on the line:

    N^2 = integral over R of |phi(s)|^2/(1+tau|psi(s)|^2)^2 ds,
    E = tau * {integral of |phi psi|^2/(1+tau|psi|^2)^2 ds}^(1/2).
    The quadrature tolerance is clamped to rel_tol >= 1e-12.
    """
    return _setting_constants(SpectralMeasure.density(), phi, psi, tau, rel_tol)


def line_extremal_functional(phi: Symbol, psi: Symbol, tau: float,
                             xhat,
                             support=(-math.inf, math.inf),
                             rel_tol: float = 1e-9) -> complex:
    """Apply the optimal bounded functional to a frequency profile ``xhat``:

    g(x) = integral of phi(s) * xhat(s) / (1 + tau |psi(s)|^2) ds.

    ``xhat`` is a callable, or a sampled profile as an (s_grid, values) pair
    which is interpolated linearly and treated as zero outside the grid.
    """
    _require_tau(tau)
    if isinstance(xhat, tuple):
        grid, values = (np.asarray(xhat[0], dtype=float), np.asarray(xhat[1]))
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("sampled profile needs matching 1-d grid and values")
        support = (float(grid[0]), float(grid[-1]))
        re = lambda s: float(np.interp(s, grid, np.real(values)))
        im = lambda s: float(np.interp(s, grid, np.imag(values)))
        xhat = lambda s: complex(re(s), im(s))
    d = _denom(psi, tau)

    def f(s: float) -> complex:
        return complex(phi(s)) * complex(xhat(s)) / float(d(s))

    return integrate(f, support, rel_tol=rel_tol).value


# ----------------------------------------------------------------------
# circle (unit lattice)


def circle_constants(phi: Symbol, psi: Symbol, tau: float,
                     rel_tol: float = 1e-8) -> PointConstants:
    """Lattice analog of :func:`line_constants` over integer frequencies:

    N^2 = sum over n in Z of |phi(n)|^2/(1+tau|psi(n)|^2)^2, and
    E = tau * {sum of |phi(n) psi(n)|^2/(1+tau|psi(n)|^2)^2}^(1/2).
    """
    return _setting_constants(SpectralMeasure.lattice("Z", uniform=1.0), phi, psi, tau, rel_tol)


def circle_extremal_functional(phi: Symbol, psi: Symbol, tau: float,
                               xhat,
                               rel_tol: float = 1e-9) -> complex:
    """g(x) = sum over n in Z of phi(n) * xhat(n) / (1 + tau |psi(n)|^2).

    ``xhat`` maps integers to coefficients; a finite mapping is summed
    exactly, a callable is summed under the tail-bound policy.
    """
    _require_tau(tau)
    d = _denom(psi, tau)
    if isinstance(xhat, Mapping):
        return complex(sum(
            complex(phi(float(n))) * complex(c) / float(d(float(n)))
            for n, c in sorted(xhat.items())
        ))

    def term(n):
        return complex(phi(float(n))) * complex(xhat(int(n))) / float(d(float(n)))

    res = sum_lattice(term, "Z", rel_tol=rel_tol)
    return complex(res.value)


# ----------------------------------------------------------------------
# orthogonal polynomial expansions


def _endpoint_growth(family: OrthogonalFamily, t: float) -> float:
    """Growth exponent in n of F_n(t)^2 at a closed end of the interval, 0 elsewhere.

    F_n(1)^2 ~ n^(2 alpha+1), F_n(-1)^2 ~ n^(2 beta+1) (Jacobi) and F_n(0)^2 ~ n^alpha
    (Laguerre), from P_n^(alpha,beta)(1) = L_n^(alpha)(0) = binom(n+alpha, n) (Szego).
    """
    if family.kind == "jacobi" and abs(t) == 1.0:
        return 2.0 * (family.alpha if t > 0 else family.beta) + 1.0
    if family.kind == "laguerre" and t == 0.0:
        return family.alpha
    return 0.0


def _opoly_tail_exponents(family: OrthogonalFamily, t: float, phi: Symbol, psi: Symbol):
    """Raise unless the N^2 and M^2 terms decay faster than n^-1 (growth in n < -1)."""
    expo_n, expo_e = _growth(phi, psi, 2, False), _growth(phi, psi, 2, True)
    if expo_n is None or expo_e is None:
        raise AdmissibilityError("orthogonal-polynomial sums need symbol growth metadata")
    g_f = _endpoint_growth(family, float(t))
    expo_n, expo_e = expo_n + g_f, expo_e + g_f
    if max(expo_n, expo_e) >= -1.0:
        raise AdmissibilityError(
            "uniform-convergence condition fails: the weighted coefficient sequence is "
            f"not square-summable (terms grow like n^{max(expo_n, expo_e):g} with F_n(t)^2 ~ "
            f"n^{g_f:g}; power symbols need alpha_psi - alpha_phi > {(1.0 + g_f) / 2.0:g})"
        )


def _sym_tail(c2: float, g_num: float, g_psi: float, tau: float, n0: int) -> float:
    """Bound sum_{n>n0} c2 * n^(2 g_num) / (1 + tau n^(2 g_psi))^2.

    Valid once tau * n0^(2 g_psi) >= 1 (then the denominator is at least
    (tau n^(2 g_psi))^2); returns inf while the bound is not yet applicable
    or the exponent does not decay.
    """
    if c2 == 0.0:
        return 0.0
    if g_psi <= 0.0:
        expo = 2.0 * g_num
        if expo >= -1.0:
            return math.inf
        return c2 * n0 ** (expo + 1.0) / (-(expo + 1.0))
    if tau * float(n0) ** (2.0 * g_psi) < 1.0:
        return math.inf
    expo = 2.0 * g_num - 4.0 * g_psi
    if expo >= -1.0:
        return math.inf
    return (c2 / tau ** 2) * n0 ** (expo + 1.0) / (-(expo + 1.0))


def _cutoffs(family: OrthogonalFamily, t: float, max_n: int, phi: Symbol):
    """The truncation loop of the expansion sums: (cutoff, F, c2) for cutoff = 64, 128, ..., max_n.

    F holds F_0(t), ..., F_cutoff(t); c2 = (2 max |F_n(t)|)^2 over the last 33
    degrees is the envelope the tail estimates take for F_n(t)^2 beyond the cutoff.
    A table ``phi`` has no tail past its largest index, so the first cutoff
    reaches that index (up to ``max_n``).
    """
    cutoff = 64
    if phi.kind == "table":
        cutoff = max(cutoff, min(max(phi.table, default=0), max_n))
    while True:
        F = evaluate_all(family, cutoff, float(t))
        yield cutoff, F, (2.0 * float(np.max(np.abs(F[max(0, cutoff - 32):])))) ** 2
        if cutoff >= max_n:
            return
        cutoff = min(2 * cutoff, max_n)


def _induced(F: np.ndarray) -> SpectralMeasure:
    """The discrete measure with atoms (n, F_n(t)^2) from F = (F_0(t), ..., F_cutoff(t))."""
    return SpectralMeasure.discrete(np.column_stack((np.arange(len(F)), F * F)))


def opoly_constants(family: OrthogonalFamily, phi: Symbol, psi: Symbol, tau: float,
                    t: float, max_n: int = 10000,
                    rel_tol: float = 1e-8) -> PointConstants:
    """Pointwise constants of the eigenfunction expansion at t:

    N^2 = sum over n >= 0 of |phi(n) F_n(t)|^2 / (1 + tau |psi(n)|^2)^2,
    E analogous with the extra |psi(n)|^2 factor; the spectral measure is
    discrete with atoms (n, F_n(t)^2), and both sums are ``best_approx``'s
    integrals on its truncation.  The truncation grows until the
    envelope tail bound falls below ``rel_tol`` or the ``max_n`` cap is
    reached; the reported ``tail_bound`` is authoritative either way (for
    slowly decaying pairs the oscillatory factor admits no integral
    acceleration, so the cap limits the reachable bound).
    """
    _require_tau(tau)
    lo, hi = family.interval()
    if not (lo <= t <= hi):
        raise ValueError("t outside the family interval")
    _opoly_tail_exponents(family, t, phi, psi)  # raises when the sums cannot converge
    g_phi = effective_growth(phi)
    g_psi = max(effective_growth(psi), 0.0)
    w_n, w_e = weight(phi, psi, tau, 0, 2), weight(phi, psi, tau, 1, 2)

    for cutoff, F, c2_env in _cutoffs(family, t, max_n, phi):
        measure = _induced(F)
        n2, e2 = _integral(measure, w_n).value, _integral(measure, w_e).value
        del measure  # keep one cutoff's atoms alive at a time

        # the envelope bounds the tail factor F_n(t)^2; the power tail of the
        # symbols does the rest
        if phi.is_zero:
            tail_n = tail_e = 0.0
        else:
            tail_n = _sym_tail(c2_env, g_phi, g_psi, tau, cutoff)
            tail_e = 0.0 if psi.is_zero else _sym_tail(c2_env, g_phi + g_psi, g_psi, tau, cutoff)

        if (tail_n <= rel_tol * max(n2, 1e-300) and tail_e <= rel_tol * max(e2, 1e-300)) \
                or cutoff >= max_n:
            if math.isinf(tail_n) or math.isinf(tail_e):
                raise NonConvergenceError(
                    f"orthogonal expansion shows no bounded tail at the {max_n}-term cap"
                )
            return _point_constants(tau, n2, tail_n, e2, tail_e, t=float(t), truncation=cutoff)


def induced_measure(family: OrthogonalFamily, t: float, cutoff: int) -> SpectralMeasure:
    """Discrete measure with atoms (n, F_n(t)^2), n = 0..cutoff."""
    return _induced(evaluate_all(family, cutoff, float(t)))


def opoly_extremal_functional(family: OrthogonalFamily, phi: Symbol, psi: Symbol,
                              tau: float, t: float,
                              x_coeffs: Union[Callable[[int], float], Mapping[int, float]],
                              max_n: int = 10000,
                              rel_tol: float = 1e-10) -> float:
    """g(x) = sum over n >= 0 of phi(n) x_n F_n(t) / (1 + tau |psi(n)|^2).

    ``x_coeffs`` is a mapping (finite support: summed exactly) or a callable
    with square-summable values (truncated under the envelope policy).
    """
    _require_tau(tau)
    d = _denom(psi, tau)
    coefficient = lambda s: phi(s) / d(s)

    if isinstance(x_coeffs, Mapping):
        n = sorted(x_coeffs)
        F = evaluate_all(family, max(n, default=0), float(t))
        return _finite_sum(coefficient, np.array(n, float), np.array([x_coeffs[k] * F[k] for k in n]))

    g_phi, g_psi = effective_growth(phi), effective_growth(psi)
    if g_phi is None or g_psi is None:
        raise AdmissibilityError("truncation policy needs symbol growth metadata")

    for cutoff, F, c2_env in _cutoffs(family, t, max_n, phi):
        x = np.asarray([float(x_coeffs(n)) for n in range(cutoff + 1)])
        val = _finite_sum(coefficient, np.arange(len(F), dtype=float), x * F)
        # Cauchy-Schwarz split: |tail| <= {sym tail}^(1/2) * x-envelope * sqrt(window)
        x_env = 2.0 * float(np.max(np.abs(x[max(0, cutoff - 32):])))
        # tail of |phi F / (1 + tau |psi|^2)|^2
        sym2 = _sym_tail(c2_env, g_phi, max(g_psi, 0.0), tau, cutoff)
        tail = math.inf if math.isinf(sym2) else x_env * math.sqrt(sym2) * math.sqrt(cutoff)
        if x_env == 0.0 or tail <= rel_tol * max(abs(val), 1e-12):
            return val
        if cutoff >= max_n:
            raise NonConvergenceError(
                f"extremal-functional sum not converged at the {max_n}-term cap"
            )
