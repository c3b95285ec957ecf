"""Per-layer tracing of qfb from outside the program.

``install`` replaces each traced public function of ``src/qfb`` with a
wrapper in every qfb module namespace that holds it (``series``, ``zeros``,
``qpoly``, ``expansions`` and ``cli`` import the ``bessel_j*`` functions by
name, so patching ``qbessel`` alone would miss their calls), on the classes
for methods, and in ``cli.FAMILIES`` for the verify families.  Each call
opens a span: its name, start, end and the span that caused it.  The spans
of one operation are kept in memory and folded into per-name call counts and
self times (duration minus the time covered by child spans) when the
operation ends, so memory stays bounded by the largest operation.  The
layers never see the tracer.
"""

from __future__ import annotations

import functools
import time
from array import array

# module -> public functions and methods whose calls are traced
TRACED = {
    "qcore": ("q_pochhammer", "q_integral", "jackson_sum"),
    "qbessel": ("bessel_j", "bessel_j_qpow", "bessel_j_prime"),
    "zeros": ("find_zero",),
    "series": ("eta_norm", "eta_norm_integral", "fourier_coefficient",
               "partial_sum_at_node", "convergence_report", "gram_integral"),
    "expansions": ("power_nu_coefficient", "g_nu_mu_coefficient",
                   "ClosedFormExpansion.coefficient_list", "ClosedFormExpansion.target_grid"),
    "highprec": ("solve_zero_offset", "ZeroColumn.__init__", "ZeroColumn.j_at",
                 "bessel_j_prime_mp"),
    "qpoly": ("check_finite_sum_identities", "poly_p_by_recurrence", "poly_p_explicit",
              "poly_p_by_convolution", "poly_p_explicit_alt", "check_factorization"),
    "cli": ("main", "load_zero_cache", "save_zero_cache", "emit_table"),
}
# the four builders of P_n report as one; expansion methods by method name
ALIASES = {f"qpoly.{f}": "qpoly.poly_p" for f in
           ("poly_p_by_recurrence", "poly_p_explicit", "poly_p_by_convolution",
            "poly_p_explicit_alt")}
ALIASES.update({f"expansions.ClosedFormExpansion.{f}": f"expansions.{f}"
                for f in ("coefficient_list", "target_grid")})
J_EVALS = ("qbessel.bessel_j.", "qbessel.bessel_j_qpow.", "qbessel.bessel_j_prime")


class Recorder:
    """Spans of the current operation plus the totals of the finished ones."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {"qbessel.bessel_j_qpow.terms": 0.0,
                                           "zeros.find_zero.cold_calls": 0.0,
                                           "zeros.find_zero.cold_j_evals": 0.0,
                                           "highprec.max_dps": 0.0}
        self.qpow_args: set = set()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._open)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._open = idx
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._open = self._parent[idx]

    def fold(self) -> None:
        """Fold the finished operation's spans into the totals and drop them."""
        n = len(self._name)
        child = [0.0] * n
        j_children = [0] * n
        names = self.names
        is_j = [names[i].startswith(J_EVALS) for i in range(len(names))]
        for i in range(n):
            par = self._parent[i]
            if par >= 0:
                child[par] += self._end[i] - self._start[i]
                if is_j[self._name[i]]:
                    j_children[par] += 1
        for i in range(n):
            name = names[self._name[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + self._end[i] - self._start[i] - child[i])
            if name == "zeros.find_zero" and j_children[i]:
                self.counters["zeros.find_zero.cold_calls"] += 1
                self.counters["zeros.find_zero.cold_j_evals"] += j_children[i]
        for arr in (self._name, self._parent):
            del arr[:]
        for arr in (self._start, self._end):
            del arr[:]
        self._open = -1


def _route_qpow(args, kwargs):
    ctx, n, frac = args[0], args[1], args[2]
    return "series" if n + frac >= -1.0 else "product"


def _route_j(args, kwargs):
    ctx, z = args[0], args[1]
    return "series" if z <= 1.0 / ctx.q else "product"


def _wrap(fn, name: str, rec: Recorder, route=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        full = f"{name}.{route(args, kwargs)}" if route else name
        idx = rec.open(full)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after:
            after(args, result)
        return result
    return traced


def install(rec: Recorder) -> None:
    """Wrap every traced function of the already imported qfb package."""
    import mpmath
    import qfb
    from qfb import cli, expansions, highprec, qbessel, qcore, qpoly, series, zeros

    modules = {"qcore": qcore, "qbessel": qbessel, "zeros": zeros, "series": series,
               "expansions": expansions, "highprec": highprec, "qpoly": qpoly, "cli": cli}
    namespaces = [qfb] + list(modules.values())

    def after_qpow(args, result):
        ctx = args[0]
        rec.counters["qbessel.bessel_j_qpow.terms"] += result.terms_used
        rec.qpow_args.add((ctx.q, ctx.nu, ctx.term_tol, ctx.max_terms, args[1], args[2]))

    def after_mp(args, result):
        rec.counters["highprec.max_dps"] = max(rec.counters["highprec.max_dps"], mpmath.mp.dps)

    special = {"qbessel.bessel_j_qpow": (_route_qpow, after_qpow),
               "qbessel.bessel_j": (_route_j, None)}
    for mod_name, attrs in TRACED.items():
        mod = modules[mod_name]
        for attr in attrs:
            key = f"{mod_name}.{attr}"
            name = ALIASES.get(key, key)
            route, after = special.get(key, (None, None))
            if mod_name == "highprec":
                after = after_mp
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, _wrap(getattr(cls, meth), name, rec, route, after))
                continue
            original = getattr(mod, attr)
            wrapped = _wrap(original, name, rec, route, after)
            for ns in namespaces:
                for var, val in list(vars(ns).items()):
                    if val is original:
                        setattr(ns, var, wrapped)
    for family, fn in list(cli.FAMILIES.items()):
        cli.FAMILIES[family] = _wrap(fn, f"cli.verify.{family}", rec)


def per_layer(rec: Recorder, families) -> dict[str, float]:
    """Every per-layer metric, 0 for layers the workload never called."""
    out: dict[str, float] = {}

    def pair(name, calls=True, self_s=True):
        if calls:
            out[f"{name}.calls"] = float(rec.calls.get(name, 0))
        if self_s:
            out[f"{name}.self_s"] = rec.self_s.get(name, 0.0)

    for route in ("series", "product"):
        pair(f"qbessel.bessel_j_qpow.{route}")
    qpow_calls = sum(rec.calls.get(f"qbessel.bessel_j_qpow.{r}", 0) for r in ("series", "product"))
    out["qbessel.bessel_j_qpow.terms"] = rec.counters["qbessel.bessel_j_qpow.terms"]
    out["qbessel.bessel_j_qpow.distinct_ratio"] = (len(rec.qpow_args) / qpow_calls
                                                   if qpow_calls else 0.0)
    for route in ("series", "product"):
        pair(f"qbessel.bessel_j.{route}")
    pair("qbessel.bessel_j_prime")
    for f in ("eta_norm", "eta_norm_integral", "fourier_coefficient", "partial_sum_at_node",
              "convergence_report", "gram_integral"):
        pair(f"series.{f}")
    pair("zeros.find_zero")
    fz = rec.calls.get("zeros.find_zero", 0)
    cold = rec.counters["zeros.find_zero.cold_calls"]
    out["zeros.find_zero.cold_calls"] = cold
    out["zeros.find_zero.repeat_ratio"] = (fz - cold) / fz if fz else 0.0
    out["zeros.j_evals_per_cold_zero"] = (rec.counters["zeros.find_zero.cold_j_evals"] / cold
                                          if cold else 0.0)
    for f in ("q_pochhammer", "q_integral", "jackson_sum"):
        pair(f"qcore.{f}")
    for f in ("solve_zero_offset", "ZeroColumn.__init__", "ZeroColumn.j_at",
              "bessel_j_prime_mp"):
        pair(f"highprec.{f}")
    out["highprec.max_dps"] = rec.counters["highprec.max_dps"]
    pair("qpoly.check_finite_sum_identities", calls=False)
    pair("qpoly.poly_p")
    pair("qpoly.check_factorization")
    for f in ("coefficient_list", "target_grid", "power_nu_coefficient",
              "g_nu_mu_coefficient"):
        pair(f"expansions.{f}")
    for f in ("main", "load_zero_cache", "save_zero_cache", "emit_table"):
        pair(f"cli.{f}", calls=False)
    for family in families:
        pair(f"cli.verify.{family}", calls=False)
    return out


def per_layer_names(families) -> list[str]:
    """The names per_layer reports, in its order, plus the two run-level ones."""
    return list(per_layer(Recorder(), families)) + ["trace.overhead_s", "src.lines"]
