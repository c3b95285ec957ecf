"""Command-line front-end: tables, verification report, zero cache.

Subcommands: zeros, eval, coeffs, expand, verify, converge.  Output is CSV
or JSON, both locale-free and byte-deterministic for a fixed configuration
(fixed summation order, seeded gamma sequences, shortest round-trip float
formatting).  Exit codes: 1 parameter validation, 2 zero localization
failure, 3 input-file parse error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

from .qcore import QContext, GridFunction, NonConvergentTail, q_pochhammer, q_integral
from .qbessel import bessel_j, bessel_j_prime, check_difference_relation, \
    difference_relation_budget, check_shift_identity
from . import zeros as zeros_mod
from . import qpoly
from . import series
from . import expansions
from . import highprec
from .qcore import check_q_integration_by_parts, symmetric_q_derivative
from .zeros import ZeroLocalizationError, OutOfRegimeError

CACHE_ENV = "QBF_CACHE_DIR"
CACHE_VERSION = "qbf-zeros v1"


# ---------------------------------------------------------------- zero cache

def cache_dir(override: str | None) -> str:
    if override:
        return override
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qfb")


def cache_path(directory: str, q: float, nu: float,
               term_tol: float = QContext.term_tol) -> str:
    return os.path.join(directory, f"zeros-q{q:.12f}-nu{nu:.12f}-tol{term_tol!r}.txt")


def _cache_header(q: float, nu: float, term_tol: float) -> str:
    return f"#{CACHE_VERSION} q={q:.12f} nu={nu:.12f} tol={term_tol!r}"


def load_zero_cache(path: str, q: float, nu: float,
                    term_tol: float = QContext.term_tol) -> dict[int, dict]:
    """The rows of a zero-cache file, keyed by k, or {} (a miss) if the file
    is absent, was written for another (q, nu, term_tol), or holds any row
    that _cache_row rejects."""
    ctx = QContext(q, nu, term_tol)
    out: dict[int, dict] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != _cache_header(q, nu, term_tol):
                return {}
            for line in fh:
                row = _cache_row(ctx, line)
                out[row["k"]] = row
    except (OSError, ValueError, ArithmeticError):
        return {}
    return out


def _cache_row(ctx: QContext, line: str) -> dict:
    """One cache line, parsed and checked against what find_zero writes.

    Raises ValueError unless value is q^(-k + eps) to the rounding of that
    power, alpha is alpha_bound(ctx, k) (nan where it is undefined), and a
    row marked certified has k in the regime and 0 < eps < alpha.  Zeros
    found by scanning are never certified, whatever their eps.
    """
    k_text, value_text, eps_text, alpha_text, flag = line.rstrip("\n").split("\t")
    k, value, eps = int(k_text), float(value_text), float(eps_text)
    try:
        alpha = zeros_mod.alpha_bound(ctx, k)
    except OutOfRegimeError:
        alpha = math.nan
    power = ctx.q**(-k + eps)
    if not abs(value - power) <= 2.0 * sys.float_info.epsilon * (
            2.0 + k * abs(math.log(ctx.q))) * power:
        raise ValueError(f"cached j_{k} = {value!r} is not q^(-k + eps)")
    if alpha_text != f"{alpha:.17g}" or flag not in ("0", "1"):
        raise ValueError(f"cached alpha or flag of j_{k} is not what find_zero gives")
    certified = flag == "1"
    if certified and not (k >= zeros_mod.regime_start(ctx) and 0.0 < eps < alpha):
        raise ValueError(f"cached j_{k} is marked certified outside 0 < eps < alpha")
    return {"k": k, "value": value, "eps": eps, "alpha": alpha, "certified": certified}


def save_zero_cache(path: str, q: float, nu: float, rows: dict[int, dict],
                    term_tol: float = QContext.term_tol) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    body = [_cache_header(q, nu, term_tol)]
    for k in sorted(rows):
        r = rows[k]
        body.append("\t".join([
            str(k), f"{r['value']:.17g}", f"{r['eps']:.17g}",
            f"{r['alpha']:.17g}", "1" if r["certified"] else "0"]))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".zeros-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(body) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ------------------------------------------------------------------- output

def emit_table(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
        return
    if not rows:
        return
    cols: list[str] = []
    for r in rows:
        for c in r:
            if c not in cols:
                cols.append(c)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(cols)
    for r in rows:
        writer.writerow([_fmt_cell(r[c]) if c in r else "" for c in cols])


def _fmt_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    return v


# ------------------------------------------------------------------ parsing

def parse_k_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def load_values_file(ctx: QContext, path: str) -> GridFunction:
    """CSV with header n,f; rows map grid index n to f(q^n); n may also be
    -1 (the q^-1 sample) or inf (the limit at 0+)."""
    samples: dict[int, float] = {}
    pre = None
    limit = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [c.strip().lower() for c in header[:2]] != ["n", "f"]:
                raise ValueError(f"expected header 'n,f', got {header!r}")
            for row in reader:
                if not row or not row[0].strip():
                    continue
                key = row[0].strip().lower()
                val = float(row[1])
                if key == "inf":
                    limit = val
                elif key == "-1":
                    pre = val
                else:
                    samples[int(key)] = val
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        raise ValueError(f"cannot parse values file {path}: {exc}") from exc
    if not samples:
        raise ValueError(f"values file {path} holds no grid samples")
    depth = max(samples)
    missing = [n for n in range(depth + 1) if n not in samples]
    if missing:
        raise ValueError(f"values file {path} misses grid indices {missing[:8]}")
    vals = tuple(samples[n] for n in range(depth + 1))
    return GridFunction(ctx, vals, pre, limit)


def _build_target(args, ctx: QContext):
    """(GridFunction, closed-form expansion or None) for coeffs/expand/converge."""
    depth = args.depth
    if args.values:
        return load_values_file(ctx, args.values), None
    if args.f == "power-nu":
        exp = expansions.power_nu_expansion(ctx)
        return exp.target_grid(depth, with_pre=True), exp
    if args.f == "g-nu-mu":
        if args.mu is None:
            raise ValueError("--f g-nu-mu needs --mu")
        exp = expansions.g_nu_mu_expansion(ctx, args.mu)
        return exp.target_grid(depth), exp
    raise ValueError("choose a built-in target with --f or supply --values FILE")


# ----------------------------------------------------------------- commands

def cmd_zeros(args) -> int:
    ctx = _context(args)
    try:
        ks = parse_k_range(args.k)
    except ValueError:
        print(f"error: --k must be an index or a range lo..hi, got {args.k!r}", file=sys.stderr)
        return 1
    if not ks or min(ks) < 1:
        print(f"error: zero indices must be >= 1, got --k {args.k}", file=sys.stderr)
        return 1
    directory = cache_dir(args.cache)
    path = cache_path(directory, ctx.q, ctx.nu, ctx.term_tol)
    rows = load_zero_cache(path, ctx.q, ctx.nu, ctx.term_tol)
    try:
        for k in ks:
            if k not in rows:
                zk = zeros_mod.find_zero(ctx, k)
                rows[k] = {"k": k, "value": zk.value, "eps": zk.eps_k,
                           "alpha": zk.alpha_k, "certified": zk.certified}
    except (ZeroLocalizationError, OutOfRegimeError, NonConvergentTail) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_zero_cache(path, ctx.q, ctx.nu, rows, ctx.term_tol)
    emit_table([rows[k] for k in ks], args.format, sys.stdout)
    return 0


def cmd_eval(args) -> int:
    ctx = _context(args)
    if args.z is not None and not (math.isfinite(args.z) and args.z >= 0.0):
        print(f"error: --z must be finite and nonnegative, got {args.z}", file=sys.stderr)
        return 1
    if args.poly_n is not None and args.poly_n < 0:
        print(f"error: --poly-n must be >= 0, got {args.poly_n}", file=sys.stderr)
        return 1
    out = []
    if args.z is not None:
        try:
            ev = bessel_j(ctx, args.z)
            evp = bessel_j_prime(ctx, args.z)
        except (OverflowError, ValueError) as exc:
            # z beyond the double range, or z = 0 where J or J' is singular
            print(f"error: cannot evaluate at z={args.z}: {exc}", file=sys.stderr)
            return 1
        # J = 0 exactly (z = 0) has no cancellation to warn about
        if ev.value != 0.0 and ev.condition > 1e12:
            print(f"warning: evaluation at z={args.z} survived cancellation "
                  f"{ev.condition:.2e}; trust at most ~{16 - math.log10(ev.condition):.0f} digits",
                  file=sys.stderr)
        out.append({"kind": "bessel_j", "z": args.z, "value": ev.value,
                    "terms": ev.terms_used, "tail_bound": ev.tail_bound,
                    "condition": ev.condition})
        out.append({"kind": "bessel_j_prime", "z": args.z, "value": evp.value,
                    "terms": evp.terms_used, "tail_bound": evp.tail_bound,
                    "condition": evp.condition})
    if args.poly_n is not None:
        pn = qpoly.poly_p_by_recurrence(ctx, args.poly_n)
        if args.x is not None:
            val, mag = pn.eval_with_condition(args.x)
            out.append({"kind": "poly_p", "n": args.poly_n, "x": args.x,
                        "value": val, "condition": mag / abs(val) if val else math.inf})
        else:
            for j, a in enumerate(pn.coeffs):
                out.append({"kind": "poly_p_coeff", "n": args.poly_n, "j": j, "value": a})
    if not out:
        print("error: eval needs --z and/or --poly-n", file=sys.stderr)
        return 1
    emit_table(out, args.format, sys.stdout)
    return 0


def cmd_coeffs(args) -> int:
    ctx = _context(args)
    try:
        f, exp = _build_target(args, ctx)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.values else 1
    rows = []
    for k in range(1, args.kmax + 1):
        c = series.fourier_coefficient(ctx, f, k)
        row = {"k": k, "a_numeric": c.value, "eta": c.eta}
        if exp is not None:
            row["a_closed"] = exp.coefficient(k)
        rows.append(row)
    emit_table(rows, args.format, sys.stdout)
    return 0


def cmd_expand(args) -> int:
    ctx = _context(args)
    try:
        f, exp = _build_target(args, ctx)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.values else 1
    if exp is not None:
        coeffs = exp.coefficient_list(args.kmax)
    else:
        coeffs = [series.fourier_coefficient(ctx, f, k) for k in range(1, args.kmax + 1)]
    n_grid = min(args.ngrid, f.depth)
    points = []
    for n in range(n_grid + 1):
        s = series.partial_sum_at_node(ctx, coeffs, n)
        points.append({"n": n, "target": f.values[n], "partial_sum": s,
                       "abs_error": abs(f.values[n] - s)})
    if args.format == "json":
        payload = {
            "coefficients": [{"k": c.k, "value": c.value, "eta": c.eta,
                              "source": c.source} for c in coeffs],
            "points": points,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        emit_table([{"k": c.k, "value": c.value, "eta": c.eta, "source": c.source}
                    for c in coeffs], "csv", sys.stdout)
        sys.stdout.write("\n")
        emit_table(points, "csv", sys.stdout)
    return 0


def cmd_converge(args) -> int:
    ctx = _context(args)
    try:
        f, exp = _build_target(args, ctx)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.values else 1
    coeffs = exp.coefficient_list(args.kmax) if exp is not None else None
    rep = series.convergence_report(ctx, f, k_max=args.kmax, n_grid=args.ngrid,
                                    coeffs=coeffs)
    if args.format == "json":
        payload = {
            "sup_errors": rep.sup_errors,
            "rate": rep.rate,
            "term_rate": rep.term_rate,
            "holder_order": rep.holder_order,
            "hypotheses": rep.hypotheses,
            "warnings": rep.warnings,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        emit_table([{"K": K, "sup_error": s, "term_sup": t}
                    for K, s, t in zip(rep.partial_sum_depths, rep.sup_errors, rep.term_sup)],
                   "csv", sys.stdout)
        for w in rep.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return 0


# ------------------------------------------------------------ verify suites

def _family_pochhammer(cfg) -> dict:
    q = cfg["q"]
    worst = 0.0
    for a in (0.3, -0.7, 1.4, q):
        for m in range(0, 21, 4):
            for k in range(0, 21, 4):
                lhs = q_pochhammer(a, q, m + k)
                rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, k)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
                den1 = q_pochhammer(a, q, k)
                den2 = q_pochhammer(a, q, m)
                if den1 != 0.0 and den2 != 0.0:
                    s1 = q_pochhammer(a * q**m, q, k) / den1
                    s2 = q_pochhammer(a * q**k, q, m) / den2
                    worst = max(worst, abs(s1 - s2) / max(abs(s1), abs(s2), 1e-300))
    return {"residual": worst, "tolerance": 1e-13}


def _family_qintegral(cfg) -> dict:
    ctx = cfg["ctx"]
    # the tail models carry the sums past the grid at q >~ 0.88
    one = GridFunction.from_callable(ctx, lambda t: 1.0, tail_exponent=0)
    lin = GridFunction.from_callable(ctx, lambda t: t, tail_exponent=1)
    sq = GridFunction.from_callable(ctx, lambda t: t * t, tail_exponent=2)
    worst = abs(q_integral(one) - 1.0)
    worst = max(worst, abs(q_integral(lin) - 1.0 / (1.0 + ctx.q)))
    combo = GridFunction(ctx, tuple(2.0 * a + 3.0 * b for a, b in zip(lin.values, sq.values)),
                         tail_exponent=1)
    worst = max(worst, abs(q_integral(combo) - 2.0 * q_integral(lin) - 3.0 * q_integral(sq)))
    return {"residual": worst, "tolerance": 1e-13}


def _family_qderivative(cfg) -> dict:
    ctx = cfg["ctx"]
    q = ctx.q
    worst = abs(symmetric_q_derivative(ctx, lambda t: 3.5, 0.25))
    x = q**3
    got = symmetric_q_derivative(ctx, lambda t: t * t, x)
    want = (math.sqrt(q) + 1.0 / math.sqrt(q)) * x
    worst = max(worst, abs(got - want) / abs(want))
    return {"residual": worst, "tolerance": 1e-13}


def _family_byparts(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = check_q_integration_by_parts(ctx, lambda t: t, lambda t: t)
    zk = zeros_mod.find_zero(ctx, 1)
    nu = ctx.nu
    g = lambda t: (t**nu) * bessel_j(ctx, ctx.q * zk.value * t).value
    worst = max(worst, check_q_integration_by_parts(ctx, lambda t: t**nu, g))
    return {"residual": worst, "tolerance": 1e-10}


def _family_difference_relation(cfg) -> dict:
    seed = cfg["seed"]
    worst = 0.0
    for i in range(100):
        u1, u2, u3 = (qpoly.gamma_sequence(2, seed + 7919 * i))[0:3]
        q = 0.1 + 0.425 * (u1 + 1.0)
        nu = min(2.5 * (u2 + 1.0) + 1e-3, 5.0)
        x = (u3 + 1.0) / 2.0 * q**-3
        ctx = QContext(q, nu)
        resid = check_difference_relation(ctx, x)
        budget = difference_relation_budget(ctx, x)
        worst = max(worst, resid / budget if budget > 0.0 else 0.0)
    return {"residual": worst, "tolerance": 1.0}


def _family_shift_identity(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = max(check_shift_identity(ctx, k) for k in range(1, cfg["kmax"] + 1))
    return {"residual": worst, "tolerance": 1e-10}


def _family_jacobi(cfg) -> dict:
    return {"residual": zeros_mod.jacobi_identity_residual(cfg["q"]), "tolerance": 1e-13}


def _family_finite_sums(cfg) -> dict:
    rep = qpoly.check_finite_sum_identities(cfg["q"], nu=cfg["nu"], seed=cfg["seed"])
    return {"residual": max(rep.values()), "tolerance": 1e-12, "detail": rep}


def _family_poly(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = 0.0
    for n in range(11):
        a = qpoly.poly_p_by_recurrence(ctx, n).coeffs
        b = qpoly.poly_p_explicit(ctx, n).coeffs
        c = qpoly.poly_p_by_convolution(ctx, n).coeffs
        d = qpoly.poly_p_explicit_alt(ctx, n).coeffs
        for j in range(n + 1):
            s = max(abs(a[j]), abs(b[j]), 1e-300)
            worst = max(worst, abs(a[j] - b[j]) / s, abs(a[j] - c[j]) / s,
                        abs(a[j] - d[j]) / s)
    return {"residual": worst, "tolerance": 1e-12}


def _family_factorization(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = 0.0
    for n in range(7):
        for k in range(1, 5):
            r = qpoly.check_factorization(ctx, n, k)
            b = qpoly.factorization_error_budget(ctx, n, k)
            worst = max(worst, r / b if b > 0.0 else 0.0)
    return {"residual": worst, "tolerance": 1.0}


def _family_orthogonality(cfg) -> dict:
    ctx = cfg["ctx"]
    kmax = cfg["kmax"]
    worst = 0.0
    for n in range(1, kmax + 1):
        for m in range(n + 1, kmax + 1):
            g = series.gram_integral(ctx, n, m)
            allow = math.sqrt(series.eta_norm(ctx, n) * series.eta_norm(ctx, m))
            worst = max(worst, abs(g) / allow)
    return {"residual": worst, "tolerance": 1e-10}


def _family_eta(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = 0.0
    for k in range(1, cfg["kmax"] + 1):
        eta = series.eta_norm(ctx, k)
        worst = max(worst, abs(series.eta_closed(ctx, k) - eta) / eta)
    return {"residual": worst, "tolerance": 1e-9}


def _family_theorem_c(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = 0.0
    for k in range(3, max(10, cfg["kmax"]) + 1):
        lhs, rhs = zeros_mod.check_zero_value_bound(ctx, k)
        worst = max(worst, lhs / rhs)
    return {"residual": worst, "tolerance": 1.0}


def _family_derivative_asymptotics(cfg) -> dict:
    ctx = cfg["ctx"]
    rep = zeros_mod.check_derivative_asymptotics(ctx, 3, max(10, cfg["kmax"]))
    shortfall = max(0.0, 0.1 - rep.min_abs_s / rep.max_abs_s)
    return {"residual": shortfall, "tolerance": 0.0,
            "detail": {"min_abs_s": rep.min_abs_s, "max_abs_s": rep.max_abs_s}}


def _family_coefficient_integral(cfg) -> dict:
    ctx = cfg["ctx"]
    if ctx.nu <= 0.0:
        return {"residual": 0.0, "tolerance": 1e-9, "detail": "skipped: nu <= 0"}
    exp = expansions.power_nu_expansion(ctx)
    f = exp.target_grid(with_pre=True)
    worst = 0.0
    for k in (1, 4):
        resid = series.check_coefficient_integral_identity(ctx, f, k)
        lhs = abs(series.fourier_coefficient(ctx, f, k).value * series.eta_norm(ctx, k))
        worst = max(worst, resid / lhs)
    return {"residual": worst, "tolerance": 1e-9}


def _family_expansion_power(cfg) -> dict:
    ctx = cfg["ctx"]
    if ctx.nu <= 1.0:
        return {"residual": 0.0, "tolerance": 1e-8, "detail": "skipped: needs nu > 1"}
    exp = expansions.power_nu_expansion(ctx)
    coeffs = exp.coefficient_list(cfg["kmax"] + 10)
    sup = max(abs(ctx.q**(n * ctx.nu) - series.partial_sum_at_node(ctx, coeffs, n))
              for n in range(21))
    return {"residual": sup, "tolerance": 1e-8}


def _family_expansion_g(cfg) -> dict:
    ctx = cfg["ctx"]
    worst = 0.0
    for k in range(1, cfg["kmax"] + 1):
        a = expansions.power_nu_coefficient(ctx, k)
        b = expansions.g_nu_mu_coefficient(ctx, ctx.nu + 1.0, k)
        worst = max(worst, abs(a - b) / abs(a))
    return {"residual": worst, "tolerance": 1e-10}


def _family_numeric_vs_closed(cfg) -> dict:
    r = highprec.power_coefficient_agreement(cfg["q"], max(cfg["nu"], 1.5), 6, dps=45)
    return {"residual": r, "tolerance": 1e-9}


def _family_roundtrip(cfg) -> dict:
    r = highprec.roundtrip_agreement(cfg["q"], max(cfg["nu"], 1.5),
                                     k_sum=20, k_check=10, dps=90)
    return {"residual": r, "tolerance": 1e-9}


FAMILIES = {
    "pochhammer": _family_pochhammer,
    "qintegral": _family_qintegral,
    "qderivative": _family_qderivative,
    "byparts": _family_byparts,
    "difference-relation": _family_difference_relation,
    "shift-identity": _family_shift_identity,
    "jacobi": _family_jacobi,
    "finite-sums": _family_finite_sums,
    "poly": _family_poly,
    "factorization": _family_factorization,
    "orthogonality": _family_orthogonality,
    "eta": _family_eta,
    "theorem-c": _family_theorem_c,
    "derivative-asymptotics": _family_derivative_asymptotics,
    "coefficient-integral": _family_coefficient_integral,
    "expansion-power": _family_expansion_power,
    "expansion-g": _family_expansion_g,
    "numeric-vs-closed": _family_numeric_vs_closed,
    "roundtrip": _family_roundtrip,
}


def cmd_verify(args) -> int:
    ctx = _context(args)
    cfg = {"ctx": ctx, "q": ctx.q, "nu": ctx.nu, "seed": args.seed,
           "kmax": min(args.kmax, 10)}
    names = args.family or sorted(FAMILIES)
    for n in names:
        if n not in FAMILIES:
            print(f"error: unknown family {n!r}; known: {', '.join(sorted(FAMILIES))}",
                  file=sys.stderr)
            return 1
    report = {"command": "verify", "q": ctx.q, "nu": ctx.nu, "seed": args.seed,
              "families": {}, "passed": True}
    for name in names:
        try:
            res = FAMILIES[name](cfg)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            # a family that cannot finish fails; its reason goes in the report
            res = {"residual": None, "tolerance": None, "passed": False,
                   "detail": f"{type(exc).__name__}: {exc}"}
        else:
            res["passed"] = bool(res["residual"] <= res["tolerance"])
        report["families"][name] = res
        if not res["passed"]:
            report["passed"] = False
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 4


# -------------------------------------------------------------------- main

def _context(args) -> QContext:
    return QContext(args.q, args.nu, term_tol=args.tol)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--ngrid", type=int, default=32)
    p.add_argument("--depth", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache", default=None, help=f"cache dir (or ${CACHE_ENV})")
    p.add_argument("--seed", type=int, default=12345)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfb",
        description="q-Fourier-Bessel toolkit: zeros, coefficients, expansions, verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="certified positive zeros j_k")
    _add_common(p)
    p.add_argument("--k", default="1..10", help="index or range, e.g. 3 or 1..10")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("eval", help="point evaluation of J_nu and P_n")
    _add_common(p)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--poly-n", type=int, default=None)
    p.add_argument("--x", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coeffs", help="expansion coefficients a_k")
    _add_common(p)
    p.add_argument("--f", choices=("power-nu", "g-nu-mu"), default=None)
    p.add_argument("--values", default=None, help="CSV file with header n,f")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("expand", help="coefficients plus per-point partial sums")
    _add_common(p)
    p.add_argument("--f", choices=("power-nu", "g-nu-mu"), default=None)
    p.add_argument("--values", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="identity suites; JSON report")
    _add_common(p)
    p.add_argument("--family", action="append", default=None,
                   help="run one family (repeatable); default all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="sup-error curve and fitted rates")
    _add_common(p)
    p.add_argument("--f", choices=("power-nu", "g-nu-mu"), default=None)
    p.add_argument("--values", default=None)
    p.set_defaults(func=cmd_converge)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        QContext(args.q, args.nu, term_tol=args.tol)
        if args.mu is not None and args.mu <= args.nu:
            raise ValueError(f"--mu must exceed --nu, got mu={args.mu}, nu={args.nu}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ZeroLocalizationError, OutOfRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergentTail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
