"""Symbols and scalar spectral measures.

A :class:`Symbol` is a scalar function of the real spectral variable with
growth metadata; a :class:`SpectralMeasure` is the nonnegative scalar
measure against which every constant in this package is an integral.
Operators themselves never appear: the measure is all the downstream
formulas consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, NonConvergenceError
from . import numerics
from .numerics import SeriesResult, integrate, sum_lattice, sup_search

Interval = Tuple[float, float]

_INT_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Symbol:
    """Scalar symbol t -> phi(t), possibly complex-valued.

    ``kind`` is one of ``power`` (sign-preserving |t|^alpha: integer alpha
    keeps the sign of t, fractional alpha uses |t|^alpha), ``zero``,
    ``table`` (defined on lattice points only, zero off its table) or ``custom``.
    ``growth_order`` is an exponent g with |phi(t)| <= C(1+|t|)^g, or None
    when unknown.
    """

    kind: str
    alpha: Optional[float] = None
    table: Optional[Mapping[int, complex]] = None
    fn: Optional[Callable] = None
    growth_order: Optional[float] = None

    @classmethod
    def power(cls, alpha: float) -> "Symbol":
        if alpha < 0:
            raise ConfigError("power symbols require alpha >= 0")
        return cls(kind="power", alpha=float(alpha), growth_order=float(alpha))

    @classmethod
    def zero(cls) -> "Symbol":
        return cls(kind="zero", growth_order=-math.inf)

    @classmethod
    def from_table(cls, table: Mapping[int, complex], growth_order: Optional[float] = None) -> "Symbol":
        return cls(kind="table", table=dict(table), growth_order=growth_order)

    @classmethod
    def custom(cls, fn: Callable, growth_order: Optional[float] = None) -> "Symbol":
        return cls(kind="custom", fn=fn, growth_order=growth_order)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def __call__(self, t):
        if self.kind == "power":
            a = self.alpha
            if isinstance(t, np.ndarray):
                tf = np.asarray(t, dtype=float)  # int arrays would overflow under **
                return np.power(tf, int(a)) if a == int(a) else np.abs(tf) ** a
            return float(t) ** int(a) if a == int(a) else abs(float(t)) ** a
        if self.kind == "zero":
            if isinstance(t, np.ndarray):
                return np.zeros_like(t, dtype=float)
            return 0.0
        if self.kind == "table":
            if isinstance(t, np.ndarray):
                return np.asarray([self(float(x)) for x in t])
            r = round(float(t))
            if abs(float(t) - r) > _INT_EPS:
                raise ValueError("table symbols are defined on lattice points only")
            return self.table.get(int(r), 0.0)
        return self.fn(t)

    def abs2(self, t):
        """|phi(t)|^2, array-aware."""
        v = self(t)
        return np.abs(v) ** 2 if isinstance(v, np.ndarray) else abs(v) ** 2


def parse_symbol(descriptor: str) -> Symbol:
    """Parse a symbol descriptor: ``pow:<alpha>``, ``zero`` or ``table:<path>``."""
    d = descriptor.strip()
    if d == "zero":
        return Symbol.zero()
    if d.startswith("pow:"):
        try:
            return Symbol.power(float(d[4:]))
        except ValueError as exc:
            raise ConfigError(f"bad power descriptor {descriptor!r}") from exc
    if d.startswith("table:"):
        path = d[6:]
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read symbol table {path!r}: {exc}") from exc
        table = {}
        for k, v in raw.items():
            if k.startswith("_"):
                continue
            table[int(k)] = complex(v[0], v[1]) if isinstance(v, list) else float(v)
        return Symbol.from_table(table, growth_order=raw.get("_growth"))
    raise ConfigError(f"unknown symbol descriptor {descriptor!r}")


# ----------------------------------------------------------------------
# measures


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Nonnegative scalar measure in one of three variants.

    * ``discrete``: finitely many atoms (t_j, w_j), w_j >= 0, t_j distinct;
    * ``lattice``: weights on Z or Z+, either a finite mapping or a uniform
      value with tail-bound summation;
    * ``density``: a nonnegative density on a union of intervals (the
      constant density 1 on R is the translation-invariant case).

    ``atoms`` holds a finitely supported measure as a read-only (J, 2) float
    array of (t_j, w_j) rows (a finite lattice's in index order), and is
    None exactly when the support is infinite.
    """

    variant: str
    atoms: Optional[np.ndarray] = None
    index_set: str = "Z"
    uniform_weight: Optional[float] = None
    support: Tuple[Interval, ...] = ()
    density_fn: Optional[Callable[[float], float]] = None
    density_desc: str = "one"

    @classmethod
    def discrete(cls, atoms) -> "SpectralMeasure":
        """Atoms from (t, w) pairs: a sequence of pairs or a (J, 2) array."""
        pts = _atom_array(atoms if isinstance(atoms, np.ndarray) else list(atoms))
        if len(set(pts[:, 0].tolist())) != len(pts):
            raise ConfigError("discrete atom locations must be pairwise distinct")
        return cls(variant="discrete", atoms=pts)

    @classmethod
    def lattice(cls, index_set: str = "Z", weights: Optional[Mapping[int, float]] = None,
                uniform: Optional[float] = None) -> "SpectralMeasure":
        if index_set not in ("Z", "Z+"):
            raise ConfigError("lattice index set must be 'Z' or 'Z+'")
        if (weights is None) == (uniform is None):
            raise ConfigError("lattice measures take exactly one of weights / uniform")
        if weights is not None:
            w = {int(k): float(v) for k, v in weights.items()}
            if index_set == "Z+" and any(k < 0 for k in w):
                raise ConfigError("Z+ lattice weights must have nonnegative indices")
            return cls(variant="lattice", index_set=index_set, atoms=_atom_array(sorted(w.items())))
        if not 0.0 <= uniform < math.inf:
            raise ConfigError("uniform lattice weight must be finite and nonnegative")
        return cls(variant="lattice", index_set=index_set, uniform_weight=float(uniform))

    @classmethod
    def density(cls, support=((-math.inf, math.inf),), density="one") -> "SpectralMeasure":
        sup = tuple((float(a), float(b)) for a, b in support)
        for a, b in sup:
            if not a < b:
                raise ConfigError("support intervals must have a < b")
        if density == "one":
            return cls(variant="density", support=sup, density_fn=None, density_desc="one")
        if isinstance(density, (int, float)):
            c = float(density)
            if not 0.0 <= c < math.inf:
                raise ConfigError("constant density must be finite and nonnegative")
            return cls(variant="density", support=sup,
                       density_fn=(lambda t, c=c: c), density_desc=f"const:{c:g}")
        return cls(variant="density", support=sup, density_fn=density, density_desc="callable")

    # -- helpers ---------------------------------------------------------

    def density_at(self, t):
        if self.density_fn is None:
            return np.ones_like(t, dtype=float) if isinstance(t, np.ndarray) else 1.0
        return self.density_fn(t)

    def total_mass(self) -> float:
        """Total measure mass; may be +inf (allowed for density / uniform lattice)."""
        if self.atoms is not None:
            return _integral(self, np.ones_like).value
        if self.variant == "lattice":
            return math.inf if self.uniform_weight > 0 else 0.0
        mass = 0.0
        for a, b in self.support:
            if not math.isinf(b - a):
                mass += integrate(lambda t: float(self.density_at(t)), (a, b), rel_tol=1e-10).value
            elif not (self.density_desc.startswith("const:") and float(self.density_desc[6:]) == 0.0):
                return math.inf  # on an unbounded interval only the zero density is claimed finite
        return mass

    # -- JSON schema -----------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralMeasure":
        if not isinstance(obj, dict):
            raise ConfigError("a measure must be a JSON object")
        kind = obj.get("type")
        if kind == "discrete":
            return cls.discrete([(a["t"], a["w"]) for a in obj["atoms"]])
        if kind == "lattice":
            if "weights" in obj:
                return cls.lattice(obj.get("set", "Z"), weights=obj["weights"])
            return cls.lattice(obj.get("set", "Z"), uniform=obj.get("uniform", 1.0))
        if kind == "density":
            # float() reads the ends "-inf" and "inf" as well as numbers
            support = [(float(a), float(b)) for a, b in obj.get("support", [["-inf", "inf"]])]
            dens = obj.get("density", "one")
            if dens != "one" and not isinstance(dens, (int, float)):
                raise ConfigError("density files support 'one' or a constant")
            return cls.density(support, dens)
        raise ConfigError(f"unknown measure type {kind!r}")

    @classmethod
    def load(cls, path: str) -> "SpectralMeasure":
        try:
            with open(path) as fh:
                return cls.from_json(json.load(fh))
        # ValueError also covers malformed JSON and unparsable indices or numbers,
        # OverflowError an index beyond the float range
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"cannot load measure file {path!r}: {exc}") from exc

    def to_json(self) -> dict:
        if self.variant == "discrete":
            return {"type": "discrete", "atoms": [{"t": t, "w": w} for t, w in self.atoms.tolist()]}
        if self.variant == "lattice":
            if self.atoms is not None:
                return {"type": "lattice", "set": self.index_set,
                        "weights": {str(int(n)): w for n, w in self.atoms.tolist()}}
            return {"type": "lattice", "set": self.index_set, "uniform": self.uniform_weight,
                    "cutoff_policy": "tail-bound"}
        def end(x):
            return "-inf" if x == -math.inf else ("inf" if x == math.inf else x)
        return {"type": "density", "support": [[end(a), end(b)] for a, b in self.support],
                "density": self.density_desc if self.density_desc == "one" else self.density_desc}


def _atom_array(pairs) -> np.ndarray:
    """(t, w) pairs as a read-only (J, 2) float array, checked finite with weights >= 0."""
    pts = np.array(pairs, dtype=float).reshape(len(pairs), 2)
    if not (np.isfinite(pts).all() and (pts[:, 1] >= 0.0).all()):
        raise ConfigError("atoms need finite locations and finite nonnegative weights")
    pts.flags.writeable = False
    return pts


# ----------------------------------------------------------------------
# spectral integrals


def _denom(psi: Symbol, tau: float):
    return lambda t: 1.0 + tau * psi.abs2(t)


def weight(phi: Symbol, psi: Symbol, tau: float, psi_power: int, denom_power: int) -> Callable:
    """The kernel |phi|^2 |psi|^(2 psi_power) / (1 + tau |psi|^2)^denom_power, array-aware.

    N^2, M^2 and the squared Hormander coefficient integrate it with
    (psi_power, denom_power) = (0, 2), (1, 2) and (0, 1).
    """
    d = _denom(psi, tau)
    # single expressions, no named temporaries: numpy then reuses the large
    # intermediate arrays of a lattice block in place
    if psi_power:
        return lambda t: phi.abs2(t) * psi.abs2(t) ** psi_power / d(t) ** denom_power
    return lambda t: phi.abs2(t) / d(t) ** denom_power


def _growth(phi: Symbol, psi: Symbol, denom_power: int, psi_factor: bool) -> Optional[float]:
    """Net tail growth of |phi|^2 (|psi|^2)? / (1+tau|psi|^2)^denom_power."""
    g_phi = effective_growth(phi)
    g_psi = effective_growth(psi)
    if g_phi is None or g_psi is None:
        return None
    g = 2.0 * g_phi
    if psi_factor:
        g += 2.0 * g_psi
    g -= 2.0 * denom_power * max(g_psi, 0.0)
    return g


def _finite_sum(weight: Callable, t: np.ndarray, w: np.ndarray) -> float:
    """fsum of weight(t_j) * w_j over the float arrays t and w, the weight called once on all t.

    Fewer than 8 points, a weight that cannot take the array, or one that
    gives a non-finite value on it, get a per-point loop on Python floats.
    A sum that overflows the float range raises :class:`NonConvergenceError`.
    """
    terms = None
    if len(t) >= 8:  # below that numpy's fixed cost per call exceeds the loop's
        with np.errstate(all="ignore"):
            vals = numerics._array_call(weight, t)
            if vals is not None and np.isfinite(vals).all():
                terms = (np.real(vals) * w).tolist()
    try:
        if terms is None:
            terms = [float(np.real(weight(p))) * c for p, c in zip(t.tolist(), w.tolist())]
        total = math.fsum(terms)
    except OverflowError:  # Python's ** raises where numpy's gives inf
        total = math.inf
    if not math.isfinite(total):
        raise NonConvergenceError("sum over the atoms overflowed the float range")
    return total


def _not_converged(what: str, growth: Optional[float], exc: Exception) -> NonConvergenceError:
    """The error for a sum or integral that failed numerically, saying what growth tells."""
    if growth is None:
        known = "no growth metadata decides whether it is finite"
    elif growth < -1.0:
        known = f"the weight's growth exponent {growth:g} < -1 makes its tail finite"
    else:  # only densities that decay themselves get here
        known = f"the weight's growth exponent {growth:g} decides nothing against this density"
    return NonConvergenceError(f"{what} did not converge ({exc}); {known}")


def _integral(
    measure: SpectralMeasure,
    weight: Callable,
    rel_tol: float = numerics.DEFAULT_SERIES_RTOL,
    growth: Optional[float] = None,
) -> SeriesResult:
    """:func:`spectral_integral` with its error bound and its term (or panel) count."""
    if measure.atoms is not None:
        t, w = measure.atoms[:, 0], measure.atoms[:, 1]
        return SeriesResult(_finite_sum(weight, t, w), 0.0, len(t))

    if measure.variant == "lattice":
        w0 = measure.uniform_weight
        if w0 == 0.0:
            return SeriesResult(0.0, 0.0, 0)
        if growth is not None and growth >= -1.0:
            return SeriesResult(math.inf, 0.0, 0)

        def term(n):
            return w0 * np.real(weight(n))

        try:
            res = sum_lattice(term, measure.index_set, rel_tol=rel_tol)
        except NonConvergenceError as exc:
            raise _not_converged("lattice sum", growth, exc) from exc
        return SeriesResult(float(np.real(res.value)), res.tail_bound, res.terms_used)

    total = err = 0.0
    panels = 0
    dens = measure.density_at
    desc = measure.density_desc
    nondecaying = desc == "one" or (desc.startswith("const:") and float(desc[6:]) > 0)
    for a, b in measure.support:
        # the growth shortcut presumes the density itself does not decay
        if math.isinf(b - a) and nondecaying and growth is not None and growth >= -1.0:
            return SeriesResult(math.inf, 0.0, panels)

        def f(t):
            return np.real(weight(t)) * dens(t)

        try:
            # abs_tol 0: the tolerance is relative to the integral's L1 mass,
            # however small the integral is
            res = integrate(f, (a, b), rel_tol=max(rel_tol, 1e-12), abs_tol=0.0)
        except NonConvergenceError as exc:
            raise _not_converged("density integral", growth, exc) from exc
        total += res.value
        err += res.abs_error_estimate
        panels += res.panels_used
    return SeriesResult(total, err, panels)


def spectral_integral(
    measure: SpectralMeasure,
    weight: Callable,
    rel_tol: float = numerics.DEFAULT_SERIES_RTOL,
    growth: Optional[float] = None,
) -> float:
    """Integrate a nonnegative ``weight`` against the measure.

    ``growth`` is the weight's net growth exponent on unbounded supports;
    a value >= -1 proves divergence and is reported as ``math.inf``.
    Without growth metadata a divergent tail surfaces as
    :class:`NonConvergenceError` ("did not converge") rather than a guess.
    """
    return _integral(measure, weight, rel_tol, growth).value


def norm_phi_f(measure: SpectralMeasure, phi: Symbol,
               rel_tol: float = numerics.DEFAULT_SERIES_RTOL) -> float:
    """||phi(A)f|| = {integral of |phi|^2 d mu}^(1/2); +inf when f is outside D(phi(A))."""
    if phi.is_zero:
        return 0.0
    g = None if phi.growth_order is None else 2.0 * phi.growth_order
    return math.sqrt(spectral_integral(measure, phi.abs2, rel_tol=rel_tol, growth=g))


# ----------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the symbol-pair admissibility checks.

    ``condition_holds`` is the boundedness of |phi|/(1+|psi|^2)^(1/2) on the
    real line (None when undecidable from the available metadata);
    ``l2_condition_holds`` is the square-integrability / square-summability
    hypothesis appropriate to the measure variant (None = not applicable).
    """

    condition_holds: Optional[bool]
    ess_sup_estimate: float
    l2_condition_holds: Optional[bool]
    notes: str = ""


def power_ratio_sup(a_phi: float, a_psi: float, tau: float) -> float:
    """sup over t of |t|^(2a)/(1 + tau |t|^(2b)) in closed form for power symbols."""
    if a_phi == 0.0:
        return 1.0
    if a_psi <= 0.0:
        return math.inf
    if a_phi > a_psi:
        return math.inf
    if a_phi == a_psi:
        return 1.0 / tau
    a, b = a_phi, a_psi
    # stationary point: tau u^(2b) = a/(b-a)
    return (a / ((b - a) * tau)) ** (a / b) * (b - a) / b


def effective_growth(sym: Symbol) -> Optional[float]:
    """Growth exponent usable in tail tests: None only when truly unknown."""
    if sym.is_zero:
        return -math.inf
    if sym.kind == "power":
        return sym.alpha
    if sym.kind == "table":
        return -math.inf  # zero outside its table: no tail at all
    return sym.growth_order


def _ratio_sup(phi: Symbol, psi: Symbol, tau: float,
               domain: Interval = (-math.inf, math.inf)) -> float:
    """sup over t in ``domain`` of |phi(t)|^2 / (1 + tau |psi(t)|^2); ``math.inf`` if unbounded.

    Exact for zero and table phi (zero off its keys) and for power pairs on an
    unbounded domain containing 0; otherwise :func:`sup_search`.
    """
    if phi.is_zero:
        return 0.0
    lo, hi = domain
    d = _denom(psi, tau)
    ratio = lambda t: float(abs(phi(t)) ** 2) / float(d(t))
    if phi.kind == "table":
        return max((ratio(float(k)) for k in phi.table if lo <= k <= hi), default=0.0)
    unbounded = math.isinf(lo) or math.isinf(hi)
    if phi.kind == "power" and (psi.kind == "power" or psi.is_zero) and unbounded \
            and lo <= 0.0 <= hi:
        return power_ratio_sup(phi.alpha, 0.0 if psi.is_zero else psi.alpha, tau)
    # a bounded domain needs only the interior search
    growth = _growth(phi, psi, 1, False) if unbounded else -1.0
    return sup_search(ratio, domain, growth=growth).value


def check_admissibility(phi: Symbol, psi: Symbol, measure: SpectralMeasure) -> AdmissibilityReport:
    """Decide the |phi|/(1+|psi|^2)^(1/2) boundedness and the variant L2 condition.

    The bound is the supremum ``hlp_constant`` takes, at tau = 1 (:func:`_ratio_sup`).
    """
    notes = []
    growth = _growth(phi, psi, 1, False)

    if growth is None and not phi.is_zero:
        holds, ess = None, math.nan
        notes.append("undecidable: custom symbol lacks growth metadata on an unbounded domain")
    else:
        sup = _ratio_sup(phi, psi, 1.0)
        holds, ess = not math.isinf(sup), math.sqrt(sup)

    l2: Optional[bool]
    if measure.atoms is not None:
        l2 = None
        notes.append("l2 condition not applicable to finitely supported measures")
    elif phi.is_zero:
        l2 = True
    elif growth is None:
        l2 = None
        notes.append("l2 condition undecidable without growth metadata")
    elif growth >= -1.0:
        l2 = False
    elif phi.kind == "power" and (psi.kind == "power" or psi.is_zero):
        l2 = True  # the exponent decides for power pairs: no integral
    else:
        try:
            l2 = math.isfinite(_integral(measure, weight(phi, psi, 1.0, 0, 1), 1e-6).value)
        except NonConvergenceError:
            l2 = False

    return AdmissibilityReport(
        condition_holds=holds,
        ess_sup_estimate=ess,
        l2_condition_holds=l2,
        notes="; ".join(notes),
    )
