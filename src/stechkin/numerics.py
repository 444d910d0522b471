"""Reusable numerical kernels.

Four primitives used throughout the package:

* :func:`integrate`   -- adaptive Gauss-Legendre quadrature on finite or
  infinite intervals (infinite ends are mapped to (-1, 1) by t = u/(1-u^2),
  which flattens algebraic decay uniformly);
* :func:`sum_lattice` -- summation over Z or Z+ for eventually monotone
  terms, with a midpoint-integral tail correction and a bracket for the
  remaining error that holds while the terms keep decreasing;
* :func:`solve_monotone` -- bracketing bisection for non-increasing
  functions of a positive parameter;
* :func:`sup_search`  -- grid-plus-refinement supremum search with growth
  metadata for unbounded domains.

All routines are pure functions of their arguments and evaluate panels and
blocks in a fixed order, so repeated calls are bit-for-bit reproducible.

Integrands and lattice terms that accept a numpy array and return an array
of its shape are called once per batch: :func:`integrate` once for its 8
initial panels and once per split (22 nodes a panel), :func:`sum_lattice`
once per block.  Scalar-only callables still work: when the array call
raises or returns another shape, they are called once per point
(quadrature nodes as numpy scalars, lattice indices as ints) and give the
same bits as a per-point loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import NonConvergenceError, TargetOutOfRangeError

Scalar = Union[float, complex]
Interval = Tuple[float, float]

DEFAULT_QUAD_RTOL = 1e-10
DEFAULT_QUAD_ATOL = 1e-14
DEFAULT_SERIES_RTOL = 1e-10
DEFAULT_ROOT_RTOL = 1e-12
# widest bracket solve_monotone probes
_TAU_MIN = 1e-300
_TAU_MAX = 1e300

_GL_ORDER = 15
_GL_U, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL7_U, _GL7_W = np.polynomial.legendre.leggauss(7)
# the GL15 and GL7 nodes share no point: a panel costs 22 integrand values
_NODES = np.concatenate([_GL_U, _GL7_U])
_WEIGHTS = np.concatenate([_GL_W, _GL7_W])


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive quadrature run."""

    value: Scalar
    abs_error_estimate: float
    panels_used: int


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a lattice summation: value, tail bound and term count."""

    value: Scalar
    tail_bound: float
    terms_used: int


@dataclass(frozen=True)
class SupResult:
    """Supremum estimate; ``location`` is None when attained at infinity."""

    value: float
    location: Optional[float]
    at_infinity: bool


# ----------------------------------------------------------------------
# quadrature


def _map_to_u(domain: Interval):
    """Return (u_lo, u_hi, t(u), dt/du) mapping ``domain`` into u-space.

    Finite intervals map affinely from (-1, 1); semi-infinite and doubly
    infinite intervals use the rational stretch t = u/(1-u^2).
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isinf(a) and math.isinf(b):
        return -1.0, 1.0, (lambda u: u / (1.0 - u * u)), (
            lambda u: (1.0 + u * u) / (1.0 - u * u) ** 2
        )
    if math.isinf(b):
        s = max(1.0, abs(a))  # stretch by the left end's magnitude so far tails stay resolved
        return 0.0, 1.0, (lambda u: a + s * u / (1.0 - u * u)), (
            lambda u: s * (1.0 + u * u) / (1.0 - u * u) ** 2
        )
    if math.isinf(a):
        s = max(1.0, abs(b))
        return -1.0, 0.0, (lambda u: b + s * u / (1.0 - u * u)), (
            lambda u: s * (1.0 + u * u) / (1.0 - u * u) ** 2
        )
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return -1.0, 1.0, (lambda u: mid + half * u), (lambda u: half)


def _array_call(fn, x: np.ndarray) -> Optional[np.ndarray]:
    """``fn(x)`` as an array of ``x``'s shape, or None when ``fn`` cannot take arrays.

    A callable that raises on an array, or returns another shape (a scalar,
    say), is left to its caller's per-element loop.
    """
    try:
        out = np.asarray(fn(x))
    except Exception:
        return None
    return out if out.shape == x.shape else None


def _panels(integrand, t_of_u, jac, lo: np.ndarray, hi: np.ndarray, vectorized: bool):
    """Evaluate panels [lo_i, hi_i] (in u) with GL15 and GL7 in one batch.

    The batch is one array call of ``integrand`` when ``vectorized`` and the
    call succeeds, else the per-node loop on numpy scalars.  Returns
    (values, errors, |values|, vectorized).  Each panel's sums run over its
    nodes in rule order (``np.add.accumulate`` is sequential), so a panel's
    numbers do not depend on the batch it was evaluated in.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    u = (c[:, None] + h[:, None] * _NODES).ravel()
    # the rational map divides by zero where a node rounds to u = +-1; the
    # non-finite result is caught by the caller
    with np.errstate(all="ignore"):
        fx = _array_call(integrand, t_of_u(u)) if vectorized else None
        if fx is not None:
            fx = fx * jac(u)
        else:
            vectorized = False
            fx = np.asarray([integrand(t_of_u(v)) * jac(v) for v in u])
    fx = fx.reshape(len(lo), len(_NODES))
    wf = fx * _WEIGHTS
    v15 = np.add.accumulate(wf[:, :_GL_ORDER], axis=1)[:, -1]
    v7 = np.add.accumulate(wf[:, _GL_ORDER:], axis=1)[:, -1]
    l1 = np.add.accumulate(_GL_W * _abs(fx[:, :_GL_ORDER]), axis=1)[:, -1]
    return h * v15, _abs(h * (v15 - v7)), h * l1, vectorized


def _abs(x: np.ndarray) -> np.ndarray:
    # np.abs of a complex array can differ in the last bit from abs() of a
    # complex scalar, which is hypot; np.hypot keeps the scalar bits
    return np.hypot(x.real, x.imag) if np.iscomplexobj(x) else np.abs(x)


def integrate(
    integrand: Callable[[float], Scalar],
    domain: Interval,
    rel_tol: float = DEFAULT_QUAD_RTOL,
    abs_tol: float = DEFAULT_QUAD_ATOL,
    max_panels: int = 20000,
) -> QuadResult:
    """Adaptively integrate ``integrand`` over ``domain``.

    ``domain`` is an (a, b) pair; either end may be ``±math.inf``.  The
    returned error estimate satisfies approximately
    ``|value - true| <= rel_tol*|true| + abs_tol`` for integrands that are
    smooth away from finitely many points with algebraic or exponential
    decay at infinite ends.

    Raises :class:`NonConvergenceError` once ``max_panels`` panels failed
    to meet the tolerance; a wrong value is never returned silently.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    u_lo, u_hi, t_of_u, jac = _map_to_u(domain)
    panels = []  # entries: (err, lo, hi, value, l1)
    vectorized = True

    def add(lo: np.ndarray, hi: np.ndarray) -> None:
        nonlocal vectorized
        v, e, l1, vectorized = _panels(integrand, t_of_u, jac, lo, hi, vectorized)
        # a non-finite node value makes its panel's error estimate non-finite,
        # and no later split can repair it
        if not np.isfinite(e).all():
            raise NonConvergenceError(
                f"quadrature met a non-finite integrand value on domain {domain}"
            )
        panels.extend(zip(e, lo, hi, v, l1))

    # initial split keeps the first pass symmetric around 0 for even maps
    n0 = 8
    edges = np.linspace(u_lo, u_hi, n0 + 1)
    add(edges[:-1], edges[1:])

    for _ in range(max_panels):
        total = sum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
        l1 = math.fsum(p[4] for p in panels)
        tol = rel_tol * max(abs(total), 1e-3 * l1) + abs_tol
        if err <= tol:
            return QuadResult(value=total, abs_error_estimate=err, panels_used=len(panels))
        # split the worst panel; ties resolved by interval position
        worst = max(range(len(panels)), key=lambda i: (panels[i][0], -panels[i][1]))
        _, lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        add(np.array([lo, mid]), np.array([mid, hi]))
    raise NonConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} within {max_panels} panels "
        f"on domain {domain}"
    )


# ----------------------------------------------------------------------
# lattice series


def _try_vectorized(term, n_arr: np.ndarray) -> np.ndarray:
    # feed float arrays: the callables are functions of a real variable, and
    # integer arrays would silently overflow under large powers
    out = _array_call(term, n_arr.astype(float))
    return out if out is not None else np.asarray([term(int(k)) for k in n_arr])


def sum_lattice(
    term: Callable[[int], Scalar],
    index_set: str = "Z+",
    rel_tol: float = DEFAULT_SERIES_RTOL,
    abs_tol: float = 1e-300,
    max_terms: int = 5_000_000,
) -> SeriesResult:
    """Sum ``term(n)`` over ``Z+`` (n >= 0) or ``Z``.

    Terms are summed in blocks of 64 indices, doubling up to 262,144.  Decay
    is a heuristic read off the block just summed: once the last three terms
    of a block decrease in magnitude, the tail beyond its last index N is
    estimated by the midpoint integral of the term's continuous extension on
    (N + 1/2, inf); for a non-increasing tail this estimate is bracketed
    within ``term(N)/2`` of the true tail, which is reported as
    ``tail_bound``.  The correction is only added when the block is real and
    of constant sign; otherwise the integral of ``|term|`` is used purely
    as a bound.

    Raises :class:`NonConvergenceError` when no decay is detected within
    ``max_terms`` terms.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    two_sided = index_set == "Z"
    if index_set not in ("Z", "Z+"):
        raise ValueError(f"unknown index set {index_set!r}")

    def sided(n_arr: np.ndarray) -> np.ndarray:
        vals = _try_vectorized(term, n_arr)
        if two_sided:
            vals = vals + _try_vectorized(term, -n_arr)
        return vals

    def g_abs(x):
        v = abs(term(x))
        if two_sided:
            v = v + abs(term(-x))
        return v

    s0 = term(0)
    is_complex = isinstance(s0, (complex, np.complexfloating))
    partial = complex(s0) if is_complex else float(s0)
    comp = 0.0  # Neumaier compensation, real path only
    terms_used = 1
    last_nonzero = 0 if abs(s0) > 0 else -1
    n_next = 1
    block = 64

    def current_value():
        return partial if is_complex else partial + comp

    while terms_used < max_terms:
        n_arr = np.arange(n_next, n_next + block)
        vals = sided(n_arr)
        mags = np.abs(vals)
        nz = np.nonzero(mags > 0)[0]
        if nz.size:
            last_nonzero = int(n_arr[nz[-1]])
        if np.iscomplexobj(vals) and not is_complex:
            is_complex = True
            partial = complex(partial + comp)
            comp = 0.0
        block_sum = complex(np.sum(vals)) if is_complex else float(np.sum(vals).real)
        if is_complex:
            partial = partial + block_sum
        else:
            t = partial + block_sum
            if abs(partial) >= abs(block_sum):
                comp += (partial - t) + block_sum
            else:
                comp += (block_sum - t) + partial
            partial = t
        terms_used += block
        n_last = int(n_arr[-1])
        n_next = n_last + 1

        # finitely supported terms: a long run of exact zeros terminates the sum
        if n_last >= max(512, 4 * max(last_nonzero, 1)):
            return SeriesResult(value=current_value(), tail_bound=0.0, terms_used=terms_used)

        # decay: the block's last three terms decrease (a block holds >= 64)
        if n_last >= 8 and np.all(np.diff(mags[-4:]) < 0):
            edge = float(g_abs(float(n_last)))
            value_scale = max(abs(current_value()), abs_tol)
            # cheap pre-check before paying for the tail integral
            if edge <= 2.0 * rel_tol * value_scale:
                try:
                    tail = integrate(
                        g_abs, (n_last + 0.5, math.inf), rel_tol=1e-8, abs_tol=1e-300,
                        max_panels=4000,
                    )
                except (TypeError, ValueError, NonConvergenceError):
                    tail = None
                if tail is not None:
                    half_bracket = 0.5 * edge + 2.0 * tail.abs_error_estimate
                    if half_bracket <= rel_tol * value_scale + abs_tol:
                        value, bound = current_value(), half_bracket
                        if np.iscomplexobj(vals) or not (np.all(vals >= 0) or np.all(vals <= 0)):
                            # bound-only: the integral majorizes the dropped tail
                            bound = tail.value + half_bracket
                        else:
                            value = value + (1.0 if np.all(vals >= 0) else -1.0) * tail.value
                        return SeriesResult(value=value, tail_bound=float(bound), terms_used=terms_used)
        block = min(2 * block, 262144)

    raise NonConvergenceError(
        f"series over {index_set} showed no usable decay within {max_terms} terms"
    )


# ----------------------------------------------------------------------
# monotone root finding


def _log_midpoint(lo: float, hi: float) -> float:
    """sqrt(lo*hi), without over- or underflow on the widened brackets."""
    prod = lo * hi
    if sys.float_info.min <= prod < math.inf:
        return math.sqrt(prod)
    return math.sqrt(lo) * math.sqrt(hi)


def solve_monotone(
    fn: Callable[[float], float],
    target: float,
    rel_tol: float = DEFAULT_ROOT_RTOL,
    bracket_lo: float = 1e-8,
    bracket_hi_cap: float = 1e12,
) -> float:
    """Solve fn(tau) = target for a continuous non-increasing ``fn`` on (0, inf).

    The bracket starts at [1e-8, 1] and the upper end doubles up to 1e12.
    Only when that bracket misses the target does it widen further: the
    lower end is squared toward 1e-300, or the upper end toward 1e300.
    Bisection runs in log-space until ``|fn(tau*) - target| <= rel_tol*target``.
    Raises :class:`TargetOutOfRangeError` naming the violated limit when the
    target is outside the probed range of ``fn``.
    """
    hi = None
    lo = bracket_lo
    f_lo = fn(lo)
    while f_lo < target and _TAU_MIN < lo < 1.0:
        hi = lo
        lo = max(lo * lo, _TAU_MIN)
        f_lo = fn(lo)
    if f_lo < target:
        raise TargetOutOfRangeError(
            f"target {target:g} exceeds fn({lo:g}) = {f_lo:g}; the small-tau limit "
            "of fn is below the target",
            limit="small-tau",
            bound=f_lo,
        )
    if hi is None:
        hi = 1.0
        f_hi = fn(hi)
        while f_hi > target and hi < bracket_hi_cap:
            hi *= 2.0
            f_hi = fn(hi)
        while f_hi > target and 1.0 < hi < _TAU_MAX:
            lo = hi
            hi = min(hi * hi, _TAU_MAX)
            f_hi = fn(hi)
        if f_hi > target:
            raise TargetOutOfRangeError(
                f"target {target:g} is below fn({hi:g}) = {f_hi:g}; the large-tau limit "
                "of fn stays above the target",
                limit="large-tau",
                bound=f_hi,
            )

    best = None
    for _ in range(300):
        mid = _log_midpoint(lo, hi)
        f_mid = fn(mid)
        if abs(f_mid - target) <= rel_tol * abs(target):
            best = mid
            break
        if f_mid > target:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-15:
            break
    if best is None:
        best = _log_midpoint(lo, hi)
        if not abs(fn(best) - target) <= rel_tol * abs(target):
            raise NonConvergenceError(
                "bisection bracket collapsed before |fn - target| met rel_tol; "
                "fn may be noisier than the requested tolerance"
            )
    # monotonicity sanity on the final bracket
    if fn(lo) < fn(hi) - 1e-9 * (abs(target) + 1.0):
        raise ValueError("fn is not non-increasing on the final bracket")
    return best


# ----------------------------------------------------------------------
# supremum search


def sup_search(
    fn: Callable[[float], float],
    domain: Interval = (-math.inf, math.inf),
    growth: Optional[float] = None,
    samples: int = 2001,
) -> SupResult:
    """Estimate sup of ``fn`` over ``domain``.

    ``growth`` is the net growth exponent of ``fn`` at infinite ends:
    positive means the supremum is infinite (reported explicitly, no
    search), zero means a finite limit may be approached at infinity, and
    negative (or a bounded domain) means an interior search suffices.

    The grid maximum is refined by golden-section search around the best
    grid cell.
    """
    a, b = domain
    unbounded = math.isinf(a) or math.isinf(b)
    if unbounded and growth is not None and growth > 0:
        return SupResult(value=math.inf, location=None, at_infinity=True)

    u_lo, u_hi, t_of_u, _ = _map_to_u(domain)
    # the rational map is singular at u = +-1; finite ends need no padding
    pad = 1e-6 * (u_hi - u_lo)
    pad_lo = pad if math.isinf(a) else 0.0
    pad_hi = pad if math.isinf(b) else 0.0
    us = np.linspace(u_lo + pad_lo, u_hi - pad_hi, samples)
    ts = np.asarray([t_of_u(float(u)) for u in us])
    vals = np.asarray([float(fn(float(t))) for t in ts])
    i = int(np.argmax(vals))

    # golden-section refinement in u-space around the best cell
    gl = us[max(i - 1, 0)]
    gr = us[min(i + 1, samples - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = gr - invphi * (gr - gl)
    x2 = gl + invphi * (gr - gl)
    f1 = float(fn(t_of_u(float(x1))))
    f2 = float(fn(t_of_u(float(x2))))
    for _ in range(90):
        if f1 < f2:
            gl = x1
            x1, f1 = x2, f2
            x2 = gl + invphi * (gr - gl)
            f2 = float(fn(t_of_u(float(x2))))
        else:
            gr = x2
            x2, f2 = x1, f1
            x1 = gr - invphi * (gr - gl)
            f1 = float(fn(t_of_u(float(x1))))
    u_best = 0.5 * (gl + gr)
    t_best = t_of_u(float(u_best))
    v_best = float(fn(t_best))
    v_best = max(v_best, float(vals[i]))

    if unbounded and i in (0, 1, samples - 2, samples - 1):
        # sup may be approached at an infinite end: probe geometrically
        sign = -1.0 if i <= 1 else 1.0
        t_probe = max(abs(ts[i]), 1.0)
        probe_best = v_best
        increasing = False
        for _ in range(40):
            t_probe *= 4.0
            v = float(fn(sign * t_probe))
            if v > probe_best + 1e-15 * (abs(probe_best) + 1.0):
                probe_best = v
                increasing = True
            if t_probe > 1e12:
                break
        if increasing and probe_best >= v_best:
            return SupResult(value=probe_best, location=None, at_infinity=True)
    return SupResult(value=v_best, location=float(t_best), at_infinity=False)
