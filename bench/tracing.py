"""Timing wrappers placed around stechkin's public functions from outside.

:func:`bindings` finds, for each function named in :data:`LAYERS`, every
namespace that binds it, and :func:`apply` swaps in the wrappers there: the defining module, modules
that imported it by name (``spectral.integrate``,
``applications.evaluate_all``, ...) and the re-exports of the ``stechkin``
package.  A wrapper keeps a span stack, so ``self_ms`` is its own time
minus the time spent in wrapped callees, and it counts work where a
result or argument shows it (quadrature panels and integrand points,
lattice terms, root-finder evaluations, recurrence degrees, truncations,
CLI output bytes).  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = {
    "numerics": ("integrate", "sum_lattice", "solve_monotone", "sup_search"),
    "spectral": ("spectral_integral", "check_admissibility", "norm_phi_f"),
    "core": ("best_approx", "n_value", "m_value", "solve_tau", "extremal_element",
             "hormander_coefficient", "lemma_suite", "hlp_constant"),
    "orthopoly": ("evaluate_all", "gram_matrix"),
    "applications": ("opoly_constants", "circle_constants", "line_constants"),
    "oracle": ("verify_theorems", "brute_force_best_approx"),
    "cli": ("main",),
}

# counters beyond calls and self_ms, per layer
EXTRA = {
    "numerics.integrate": ("panels", "points"),
    "numerics.sum_lattice": ("terms",),
    "numerics.solve_monotone": ("fn_evals",),
    "orthopoly.evaluate_all": ("degrees",),
    "applications.opoly_constants": ("truncation",),
    "cli.main": ("stdout_bytes",),
}


def metric_names() -> list:
    """Every per-layer metric name, in report order (without the overhead ratio)."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            layer = f"{module}.{fn}"
            names += [f"{layer}.calls", f"{layer}.self_ms"]
            names += [f"{layer}.{c}" for c in EXTRA.get(layer, ())]
            if layer == "orthopoly.evaluate_all":
                names.append(f"{layer}.degrees_per_truncation")
    return names


class Tracer:
    """Span stack and counters shared by all wrappers of one process."""

    def __init__(self):
        self.counts = defaultdict(float)
        self._stack = []  # per open span: seconds spent in wrapped callees

    def _span(self, layer, fn, args, kwargs, before=None, after=None):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            inner = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            self.counts[f"{layer}.calls"] += 1
            self.counts[f"{layer}.self_ms"] += 1e3 * (elapsed - inner)
        if after is not None:
            after(args, kwargs, result)
        return result

    def wrap(self, layer: str, fn):
        counts = self.counts
        before = after = None

        def counted(arg_index, name, counter, size_of):
            def swap(args, kwargs):
                if name in kwargs:
                    kwargs = dict(kwargs, **{name: _counting(kwargs[name], counts, counter, size_of)})
                else:
                    args = list(args)
                    args[arg_index] = _counting(args[arg_index], counts, counter, size_of)
                return tuple(args), kwargs
            return swap

        if layer == "numerics.integrate":
            before = counted(0, "integrand", f"{layer}.points", lambda x: getattr(x, "size", 1))

            def after(args, kwargs, res):
                counts[f"{layer}.panels"] += res.panels_used
        elif layer == "numerics.sum_lattice":
            def after(args, kwargs, res):
                counts[f"{layer}.terms"] += res.terms_used
        elif layer == "numerics.solve_monotone":
            before = counted(0, "fn", f"{layer}.fn_evals", lambda _: 1)
        elif layer == "orthopoly.evaluate_all":
            def after(args, kwargs, res):
                counts[f"{layer}.degrees"] += res.shape[0]
        elif layer == "applications.opoly_constants":
            def after(args, kwargs, res):
                counts[f"{layer}.truncation"] += res.truncation
        elif layer == "cli.main":
            start = []

            def before(args, kwargs):
                start.append(_stdout_position())
                return args, kwargs

            def after(args, kwargs, res):
                counts[f"{layer}.stdout_bytes"] += _stdout_position() - start.pop()

        def wrapper(*args, **kwargs):
            return self._span(layer, fn, args, kwargs, before, after)

        wrapper.__wrapped__ = fn
        wrapper.layer = layer
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def per_op(self, n_ops: int) -> dict:
        """Every per-layer metric divided by the number of traced operations."""
        out = {}
        for name in metric_names():
            if name.endswith("degrees_per_truncation"):
                trunc = self.counts["applications.opoly_constants.truncation"]
                out[name] = self.counts["orthopoly.evaluate_all.degrees"] / trunc if trunc else 0.0
            else:
                out[name] = self.counts[name] / n_ops
        return out


def _counting(fn, counts, counter, size_of):
    def inner(x):
        counts[counter] += size_of(x)
        return fn(x)
    return inner


def _stdout_position() -> int:
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def bindings(tracer: Tracer) -> list:
    """(namespace, name, original, wrapper) for every binding of every LAYERS function.

    Only loaded stechkin modules are searched; a function whose module is not
    loaded, or that no longer exists, gets no wrapper and reads 0 calls.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "stechkin" or name.startswith("stechkin."))]
    patches = []
    for module, functions in LAYERS.items():
        home = sys.modules.get(f"stechkin.{module}")
        for fn_name in functions:
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                continue
            wrapper = tracer.wrap(f"{module}.{fn_name}", original)
            patches += [(m, attr, original, wrapper) for m in modules
                        for attr, value in list(vars(m).items()) if value is original]
    return patches


def apply(patches: list, traced: bool) -> None:
    """Bind the wrappers (``traced``) or the original functions."""
    for namespace, attr, original, wrapper in patches:
        setattr(namespace, attr, wrapper if traced else original)
