"""The three workloads of the qfb benchmark.

A workload is a sequence of rounds.  Round r draws its inputs from the seed
(and r) alone and lists the same operations every time: ``timed`` ones, one
``qfb.cli.main(argv)`` call each, which make up the measured mix, and fault
probes, which fail every time today because of a named fault and are never
timed into the metrics.  ``check`` runs after the measured loop and compares
every output of a round against ``reference`` (which shares no code with
qfb) or against a property the method must have.

Inputs are stratified: the rounds of each block of ``BLOCK`` rounds take one
(q, nu) from each of ``BLOCK`` equal slices of the q range, jittered within
the middle quarter of the slice, with the nu slices paired at random (a
Latin hypercube).  A run ends at a block boundary, so it sees the whole
range evenly and its mean cost and order statistics hardly depend on the
seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

from reference import Reference, digits_of_agreement

# binary64 unit roundoff
UNIT = 2.0 ** -53
# A float result is held to ROUNDING * UNIT times the sum of the magnitudes
# it was formed from, each weighted by the condition number of its own float
# evaluation: the J' series behind a closed form, or each J of the column a
# quadrature or partial sum adds up.  On the benchmark's inputs the
# numeric coefficients, the largest such sums, came within a tenth of this
# allowance (together with their share of eta_k's tolerance).
ROUNDING = 64.0
# closed forms (eta_k, a_k, alpha_k) are a few dozen float operations beyond
# the J' series they contain
CLOSED_TOL = 1e-12
# a zero j_k = q^(-k+eps_k) is one pow away from its exact value
ZERO_TOL = 1e-14
# F2: the relative accuracy the README promises for eps_k
EPS_TOL = 1e-10
# outputs whose float evaluation has at most this condition number (eval's
# own, or that of the J' series behind a closed form) count towards
# min_digits
WELL_CONDITIONED = 1e3


@dataclass
class Op:
    """One qfb.cli.main call; probes carry their fault tag and location."""

    argv: list[str]
    fault: str | None = None
    where: str | None = None
    rc: object = None
    out: str = ""
    seconds: float = 0.0
    scaled: float = 0.0  # seconds at the nominal machine speed (speed.py)

    @property
    def ok(self) -> bool:
        return self.rc == 0


@dataclass
class Round:
    index: int
    params: dict
    ops: list[Op] = field(default_factory=list)

    def timed(self) -> list[Op]:
        return [op for op in self.ops if op.fault is None]


class CheckError(AssertionError):
    """An output of the program disagrees with the reference or a property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def stratified(rng: random.Random, count: int, jitter: float = 1.0) -> list[float]:
    """count points in [0, 1), one per equal slice, in random order, each
    uniform over the middle ``jitter`` share of its slice."""
    order = list(range(count))
    rng.shuffle(order)
    return [(s + 0.5 + jitter * (rng.random() - 0.5)) / count for s in order]


def fmt(x: float) -> str:
    return repr(float(x))


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def widened(zero, q: float, k: int) -> tuple[float, float]:
    """The bracket of a BesselZero, widened by the rounding of its ends.

    The program computes each end as q**(-k + w) in binary64 and rounds to
    nearest, not outward: the exponent sum is off by up to k UNIT and pow by
    another ulp, so an end can land a few ulps on the wrong side of j_k when
    eps_k sits near it (CHANGES.md, FOUND).  Twice that allowance is added.
    """
    rel = 2.0 * UNIT * (2.0 + k * abs(math.log(q)))
    return zero.bracket_lo * (1.0 - rel), zero.bracket_hi * (1.0 + rel)


def closed_tol(mode: dict) -> float:
    """Relative tolerance of a closed form built on J'(j_k) (eta_k, a_k)."""
    return CLOSED_TOL + ROUNDING * UNIT * mode["jp_condition"]


class Workload:
    """Rounds of one workload; subclasses fill in inputs, ops and checks."""

    name = ""
    BLOCK = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._rng = random.Random(f"{self.name}:{seed}")
        self._points: list[dict] = []

    def point(self, r: int) -> dict:
        """Inputs of round r, drawn block by block in a fixed order."""
        while len(self._points) <= r:
            self._points.extend(self.block(self._rng))
        return self._points[r]

    def block(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def round(self, r: int) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> list[float]:
        """Raise CheckError on a wrong output; return the digits measured."""
        raise NotImplementedError

    def probe_failed(self, op: Op) -> bool:
        """Whether a probe showed its fault (an escaped exception by default)."""
        return not isinstance(op.rc, int) or op.rc != 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


# ---------------------------------------------------------------- expand

class Expand(Workload):
    """Coefficients, convergence curves and expansions over a warm zero table.

    Each round is one (q, nu) with q in [0.4, 0.8] and nu in [0.5, 2.5].
    The first operation finds the zeros; the rest reuse them.  Targets are
    seeded combinations c1 x^nu + c2 g_{nu,mu}, sampled on the grid into a
    ``--values`` file.
    """

    name = "expand"
    BLOCK = 4
    Q = (0.4, 0.8)
    NU = (0.5, 2.5)
    KMAX = 20
    TARGETS = 3
    DEPTH = 256
    NGRID = 32

    def block(self, rng):
        # op_tail_s is set by the rounds of the top q slice, whose cost climbs
        # with q: q stays in the middle quarter of its slice so that the same
        # slice sets it whatever the seed
        qs, nus = stratified(rng, self.BLOCK, jitter=0.25), stratified(rng, self.BLOCK)
        out = []
        for a, b in zip(qs, nus):
            q = round(self.Q[0] + a * (self.Q[1] - self.Q[0]), 6)
            nu = round(self.NU[0] + b * (self.NU[1] - self.NU[0]), 6)
            mu = round(nu + 0.5 + 1.5 * rng.random(), 6)
            weights = [tuple(rng.choice((-1, 1)) * (0.5 + rng.random()) for _ in range(2))
                       for _ in range(self.TARGETS)]
            out.append({"q": q, "nu": nu, "mu": mu, "weights": weights})
        return out

    def round(self, r):
        p = self.point(r)
        q, nu = p["q"], p["nu"]
        ref = Reference(q, nu, digits=20)
        power, g = ref.targets_on_grid(p["mu"], self.DEPTH)
        common = ["--q", fmt(q), "--nu", fmt(nu), "--kmax", str(self.KMAX)]
        rnd = Round(r, dict(p))
        rnd.params["samples"] = []
        for t, (c1, c2) in enumerate(p["weights"]):
            samples = [float(c1 * a + c2 * b) for a, b in zip(power, g)]
            rnd.params["samples"].append(samples)
            path = self.path(f"values-{r}-{t}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n,f\n")
                fh.writelines(f"{n},{fmt(v)}\n" for n, v in enumerate(samples))
                fh.write("inf,0.0\n")
            rnd.ops.append(Op(["coeffs", *common, "--values", path]))
            rnd.ops.append(Op(["converge", *common, "--values", path,
                               "--ngrid", str(self.NGRID), "--format", "json"]))
        rnd.ops.append(Op(["expand", *common, "--f", "power-nu",
                           "--ngrid", str(self.NGRID), "--format", "json"]))
        rnd.ops.append(self._probe_f3())
        return rnd

    def _probe_f3(self) -> Op:
        path = self.path("values-f3.csv")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n,f\n")
                fh.writelines(f"{n},{fmt(0.9 ** n)}\n" for n in range(self.DEPTH + 1))
        return Op(["coeffs", "--q", "0.9", "--nu", "1", "--values", path, "--kmax", "8"],
                  fault="F3", where="qfb/series.py eta_norm: quadrature cross-check "
                                    "raises ConditioningError from k=8 at q=0.9")

    def check(self, rnd):
        from qfb.qcore import QContext
        from qfb.zeros import find_zero

        p = rnd.params
        q, nu, mu, kmax = p["q"], p["nu"], p["mu"], self.KMAX
        ctx = QContext(q, nu)
        ref = Reference(q, nu, digits=20)
        modes = {}
        for k in range(1, kmax + 1):
            z = find_zero(ctx, k)
            eps = ref.refine_offset(k, z.eps_k, *widened(z, q, k))
            zq = ref.zero_quantities(k, eps, mu)
            zq["column"], conditions = ref.grid_column(k, eps, self.NGRID)
            # the float lane sums the power series where q^(n+1) j_k <= 1/q
            # and keeps full relative precision on the product route beyond
            zq["kappa"] = [c if n + 1 - k >= -1 else 1.0 for n, c in enumerate(conditions)]
            modes[k] = zq
        digits = []
        ops = rnd.timed()
        for t, (c1, c2) in enumerate(p["weights"]):
            coeffs_op, converge_op = ops[2 * t], ops[2 * t + 1]
            samples = p["samples"][t]
            a_num = self._check_coeffs(coeffs_op.out, modes, samples, c1, c2, q, digits)
            self._check_converge(converge_op.out, modes, samples, a_num)
        powers, _ = ref.targets_on_grid(mu, self.NGRID)
        self._check_expand(ops[-1].out, modes, powers, digits)
        return digits

    @staticmethod
    def _closed_form(label, value, want, mode, digits) -> None:
        d = digits_of_agreement(value, want)
        require(abs(value - float(want)) <= closed_tol(mode) * abs(float(want)),
                f"closed-form {label}: {value!r} vs reference {float(want)!r} ({d:.1f} digits)")
        if mode["jp_condition"] <= WELL_CONDITIONED:
            digits.append(d)

    def _abs_sum(self, mode, samples, q):
        """(1-q) sum_n q^(2n) |f(q^n) J(q^(n+1) j_k)| kappa_n, tail closed geometrically.

        kappa_n, the condition of the float evaluation of that J, scales the
        rounding error each term brings in.
        """
        column, kappa = mode["column"], mode["kappa"]
        terms = [float(abs(q ** (2 * n) * samples[n] * column[n])) * kappa[n]
                 for n in range(len(column))]
        total = sum(terms)
        if terms[-2] > 0.0:
            r = terms[-1] / terms[-2]
            total += terms[-1] * r / (1.0 - r) if r < 1.0 else total  # not yet decaying
        return (1.0 - q) * total

    def _check_coeffs(self, out, modes, samples, c1, c2, q, digits):
        rows = parse_csv(out)
        require(len(rows) == self.KMAX, f"coeffs printed {len(rows)} rows")
        a_num = {}
        for row in rows:
            k = int(row["k"])
            m = modes[k]
            eta, a = float(row["eta"]), float(row["a_numeric"])
            self._closed_form(f"eta_{k}", eta, m["eta"], m, digits)
            want = c1 * m["a_power"] + c2 * m["a_g"]
            budget = (ROUNDING * UNIT * self._abs_sum(m, samples, q) / float(m["eta"])
                      + closed_tol(m) * abs(float(want)))
            require(abs(a - float(want)) <= budget,
                    f"a_{k} numeric {a!r} vs reference {float(want)!r}, budget {budget:.2e}")
            a_num[k] = a
        return a_num

    def _partial_sums(self, modes, coeffs, n):
        """(reference S_K(q^n) for K = 1..kmax, sum of |terms| kappa up to each K)."""
        sums, mags = [], []
        s = mag = 0.0
        for k in range(1, self.KMAX + 1):
            term = coeffs[k] * modes[k]["column"][n]
            s += term
            mag += abs(float(term)) * modes[k]["kappa"][n]
            sums.append(s)
            mags.append(mag)
        return sums, mags

    def _check_converge(self, out, modes, samples, a_num):
        sup = json.loads(out)["sup_errors"]
        require(len(sup) == self.KMAX, f"converge printed {len(sup)} sup errors")
        want = [0.0] * self.KMAX
        slack = [0.0] * self.KMAX
        for n in range(self.NGRID + 1):
            sums, mags = self._partial_sums(modes, a_num, n)
            for K in range(self.KMAX):
                want[K] = max(want[K], float(abs(samples[n] - sums[K])))
                slack[K] = max(slack[K], ROUNDING * UNIT * (abs(samples[n]) + mags[K]))
        for K in range(self.KMAX):
            require(abs(sup[K] - want[K]) <= slack[K],
                    f"sup error at K={K + 1}: {sup[K]!r} vs reference {want[K]!r}")

    def _check_expand(self, out, modes, powers, digits):
        payload = json.loads(out)
        coeffs = payload["coefficients"]
        require(len(coeffs) == self.KMAX, f"expand printed {len(coeffs)} coefficients")
        a_prog = {}
        for c in coeffs:
            k = c["k"]
            require(c["source"] == "closed-form", f"a_{k} source {c['source']!r}")
            for key, name in (("value", "a_power"), ("eta", "eta")):
                self._closed_form(f"{name}_{k}", c[key], modes[k][name], modes[k], digits)
            a_prog[k] = c["value"]
        a_ref = {k: m["a_power"] for k, m in modes.items()}
        for pt in payload["points"]:
            n = pt["n"]
            exact = powers[n]
            require(abs(pt["target"] - float(exact)) <= 4 * UNIT * float(exact),
                    f"target at node {n}: {pt['target']!r} vs q^(n nu) {float(exact)!r}")
            sums, mags = self._partial_sums(modes, a_ref, n)
            spread = sum(abs(a_prog[k] - float(a_ref[k])) * abs(float(modes[k]["column"][n]))
                         for k in a_ref)
            allow = ROUNDING * UNIT * mags[-1] + spread
            require(abs(pt["partial_sum"] - float(sums[-1])) <= allow,
                    f"partial sum at node {n}: {pt['partial_sum']!r} vs {float(sums[-1])!r}")
            # S_K reproduces x^nu up to its own truncation error
            truncation = float(abs(exact - sums[-1]))
            require(abs(pt["partial_sum"] - float(exact)) <= truncation + allow,
                    f"partial sum at node {n} misses x^nu beyond the truncation error")
            require(pt["abs_error"] == abs(pt["target"] - pt["partial_sum"]),
                    f"abs_error at node {n} is not |target - partial_sum|")


# ----------------------------------------------------------------- zeros

# Largest K for which `qfb zeros --k 1..K` succeeds at every nu in
# {0, 0.5, ..., 3}, measured at q on a 0.05 grid by envelope.py (README,
# "Envelope").
ENVELOPE = {0.30: 21, 0.35: 23, 0.40: 25, 0.45: 27, 0.50: 29, 0.55: 31,
            0.60: 35, 0.65: 39, 0.70: 43, 0.75: 50, 0.80: 54, 0.85: 60}


def zero_count(q: float) -> int:
    """K for a zeros round: three quarters of the envelope, interpolated
    linearly in q between grid points (the envelope rises with q, so this
    stays below the measured counts on either side by a quarter)."""
    lo = max(g for g in ENVELOPE if g <= q + 1e-12)
    hi = min((g for g in ENVELOPE if g >= q - 1e-12), default=lo)
    env = ENVELOPE[lo] if hi == lo else (
        ENVELOPE[lo] + (ENVELOPE[hi] - ENVELOPE[lo]) * (q - lo) / (hi - lo))
    return int(0.75 * env)


class Zeros(Workload):
    """Cold and warm zero tables against an on-disk cache, and point evaluations.

    Each round is one (q, nu) with q in [0.3, 0.85] and nu in [0, 3]; it
    asks for j_1..j_K with K three quarters of the envelope at q, and
    evaluates J_nu and J_nu' at three z on the series route (q^3 <= z <=
    q^-1) and three on the product route (q^-1 < z <= q^-9).
    """

    name = "zeros"
    Q = (0.3, 0.85)
    NU = (0.0, 3.0)
    SERIES_POINTS = 3
    PRODUCT_POINTS = 3
    # product-route points stay below q^-9: further out the reported
    # tail_bound misses the error of the x^nu prefactor (CHANGES.md, FOUND)
    PRODUCT_REACH = 9.0
    F2_ROWS = ((0.5, 1.0, 20), (0.3, 3.0, 12))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._f2_reference: dict[tuple, object] = {}

    def block(self, rng):
        # op_tail_s is set by the cold tables of the top two q slices, whose
        # cost climbs steeply with q: q stays in the middle quarter of its
        # slice so that the same slices set it whatever the seed
        qs, nus = stratified(rng, self.BLOCK, jitter=0.25), stratified(rng, self.BLOCK)
        out = []
        for a, b in zip(qs, nus):
            q = round(self.Q[0] + a * (self.Q[1] - self.Q[0]), 6)
            nu = round(self.NU[0] + b * (self.NU[1] - self.NU[0]), 6)
            zs = ([q ** (3.0 - 4.0 * rng.random()) for _ in range(self.SERIES_POINTS)]
                  + [q ** -(1.0 + (self.PRODUCT_REACH - 1.0) * rng.random())
                     for _ in range(self.PRODUCT_POINTS)])
            out.append({"q": q, "nu": nu, "K": zero_count(q),
                        "z": [float(f"{z:.12g}") for z in zs],
                        "poly_n": rng.randint(2, 10)})
        return out

    def round(self, r):
        p = self.point(r)
        q, nu = p["q"], p["nu"]
        common = ["--q", fmt(q), "--nu", fmt(nu)]
        cache = self.path(f"cache-{r}")
        rnd = Round(r, dict(p))
        zeros = ["zeros", *common, "--k", f"1..{p['K']}", "--cache", cache]
        rnd.ops.append(Op(zeros))
        rnd.ops.append(Op(list(zeros)))
        for i, z in enumerate(p["z"]):
            extra = ["--poly-n", str(p["poly_n"])] if i == 0 else []
            rnd.ops.append(Op(["eval", *common, "--z", fmt(z), *extra]))
        for q2, nu2, k in self.F2_ROWS:
            rnd.ops.append(Op(["zeros", "--q", fmt(q2), "--nu", fmt(nu2), "--k", str(k),
                               "--cache", self.path("cache-f2")],
                              fault="F2", where="qfb/zeros.py _find_certified: float eps_k "
                                                "loses relative precision below ~1e-150"))
        for z in ("1e20", "nan"):
            rnd.ops.append(Op(["eval", "--z", z], fault="F4",
                              where="qfb/cli.py cmd_eval: bad --z ends in a traceback, "
                                    "not exit codes 1-4"))
        return rnd

    def probe_failed(self, op):
        if op.fault != "F2":
            return super().probe_failed(op)
        if op.rc != 0:
            return True
        row = parse_csv(op.out)[0]
        q, nu, k = float(op.argv[2]), float(op.argv[4]), int(row["k"])
        key = (q, nu, k)
        if key not in self._f2_reference:
            from qfb.qcore import QContext
            from qfb.zeros import find_zero
            z = find_zero(QContext(q, nu), k)
            ref = Reference(q, nu, digits=20)
            self._f2_reference[key] = ref.refine_offset(k, z.eps_k, *widened(z, q, k))
        want = self._f2_reference[key]
        eps = float(row["eps"])
        if eps == 0.0:
            return not want < 1e-300
        return abs(eps - float(want)) > EPS_TOL * float(want)

    def check(self, rnd):
        from qfb.qcore import QContext
        from qfb.zeros import find_zero

        p = rnd.params
        q, nu = p["q"], p["nu"]
        ctx = QContext(q, nu)
        ref = Reference(q, nu, digits=20)
        ops = rnd.timed()
        cold, warm = ops[0], ops[1]
        require(cold.out == warm.out, "warm zeros output differs from the cold output")
        rows = parse_csv(cold.out)
        require([int(r["k"]) for r in rows] == list(range(1, p["K"] + 1)),
                "zeros rows do not run 1..K")
        digits = []
        for row in rows:
            k = int(row["k"])
            value, eps, alpha = float(row["value"]), float(row["eps"]), float(row["alpha"])
            z = find_zero(ctx, k)
            require(z.value == value, f"j_{k}: table {value!r} vs find_zero {z.value!r}")
            lo, hi = widened(z, q, k)
            if value <= 1.0 / q:
                # here the program bisects on signs of the float power series,
                # which cannot resolve the zero closer than its rounding noise
                # over the slope, yet it narrows the bracket further
                # (CHANGES.md, FOUND); the check allows that much
                slack = ROUNDING * ref.series_noise(value) / abs(float(ref.bessel_j_prime(value, digits=5)))
                lo, hi = lo - slack, hi + slack
            f_lo, f_hi, j_ref = ref.zero_in_bracket(lo, hi)
            require(j_ref is not None, f"no sign change of J across the bracket of j_{k}")
            # the zero is pinned to its bracket, which the scan below the
            # regime leaves about 1e-13 wide
            allow = max(ZERO_TOL * value, hi - lo)
            d = digits_of_agreement(value, j_ref)
            require(abs(value - float(j_ref)) <= allow, f"j_{k}: {d:.1f} digits")
            digits.append(d)
            if row["certified"] == "1":
                alpha_ref = float(ref.alpha(k))
                require(abs(alpha - alpha_ref) <= CLOSED_TOL * alpha_ref,
                        f"alpha_{k} {alpha!r} vs {alpha_ref!r}")
                require(0.0 < eps < alpha_ref, f"certified j_{k} has eps {eps!r} "
                                               f"outside (0, {alpha_ref!r})")
        for i, op in enumerate(ops[2:]):
            self._check_eval(op.out, ref, p["poly_n"] if i == 0 else None, digits)
        return digits

    def _check_eval(self, out, ref, poly_n, digits):
        rows = parse_csv(out)
        for row in rows:
            if row["kind"] in ("bessel_j", "bessel_j_prime"):
                z = float(row["z"])
                value, bound = float(row["value"]), float(row["tail_bound"])
                want = (ref.bessel_j(z) if row["kind"] == "bessel_j"
                        else ref.bessel_j_prime(z))
                require(abs(value - float(want)) <= bound,
                        f"{row['kind']}({z!r}) = {value!r} is {abs(value - float(want)):.2e} "
                        f"from the reference, beyond its tail_bound {bound:.2e}")
                if float(row["condition"]) <= WELL_CONDITIONED:
                    digits.append(digits_of_agreement(value, want))
        if poly_n is not None:
            coeffs = [float(r["value"]) for r in rows if r["kind"] == "poly_p_coeff"]
            want = poly_coefficients(ref, poly_n)
            require(len(coeffs) == poly_n + 1, f"P_{poly_n} printed {len(coeffs)} coefficients")
            scale = max(abs(float(w)) for w in want)
            for j, (a, w) in enumerate(zip(coeffs, want)):
                require(abs(a - float(w)) <= ROUNDING * UNIT * (poly_n + 1) * scale,
                        f"P_{poly_n} coefficient {j}: {a!r} vs {float(w)!r}")


def poly_coefficients(ref: Reference, n: int) -> list:
    """Coefficients of P_n(x; q) from P_(m+1) = [(q^nu + q^-nu) - q^(2(m+1)-nu) x] P_m
    - P_(m-1), P_0 = 1, P_(-1) = 0, in exact-input mpmath arithmetic."""
    ref._set_dps(40)
    q, nu = ref.q(), ref.nu()
    c0 = q ** nu + q ** -nu
    prev, cur = [ref.mp.mpf(0)], [ref.mp.mpf(1)]
    for m in range(n):
        c1 = q ** (2 * (m + 1) - nu)
        nxt = [ref.mp.mpf(0)] * (m + 2)
        for j, a in enumerate(cur):
            nxt[j] += c0 * a
            nxt[j + 1] -= c1 * a
        for j, a in enumerate(prev):
            nxt[j] -= a
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------- verify

class Verify(Workload):
    """`qfb verify` twice at each (q, nu), q in [0.45, 0.6], nu in {0.5, 1, 2.5}."""

    name = "verify"
    Q = (0.45, 0.6)
    NUS = (0.5, 1.0, 2.5)
    BLOCK = 6
    MP_FAMILIES = ("numeric-vs-closed", "roundtrip")

    def block(self, rng):
        # A run times one block, twelve operations, so its median is the mean
        # of two of them: slice s of the q range always pairs with NUS[s % 3]
        # and q stays in the middle quarter of its slice, so that the same
        # two (q, nu) set the median whatever the seed.
        return [{"q": round(self.Q[0] + a * (self.Q[1] - self.Q[0]), 6),
                 "nu": self.NUS[int(a * self.BLOCK) % len(self.NUS)]}
                for a in stratified(rng, self.BLOCK, jitter=0.25)]

    def round(self, r):
        p = self.point(r)
        # verify keeps its default --seed: some seeds make the finite-sums
        # family fail (CHANGES.md, FOUND)
        argv = ["verify", "--q", fmt(p["q"]), "--nu", fmt(p["nu"])]
        rnd = Round(r, dict(p))
        rnd.ops += [Op(argv), Op(list(argv))]
        rnd.ops.append(Op(["verify", "--q", "0.7", "--family", "roundtrip"], fault="F1",
                          where="qfb/highprec.py solve_zero_offset: fixed point does not "
                                "settle for q >= ~0.65"))
        return rnd

    def check(self, rnd):
        first, second = rnd.timed()
        require(first.out == second.out, "repeated verify output differs")
        report = json.loads(first.out)
        require(report["passed"] is True, "verify did not pass")
        bad = [n for n, f in report["families"].items() if not f["passed"]]
        require(not bad, f"verify families failed: {bad}")
        # the mp lane works at 45 and 90 digits, so its residuals are not capped
        # at binary64's 17 digits
        return [-math.log10(report["families"][n]["residual"]) for n in self.MP_FAMILIES]


WORKLOADS = {w.name: w for w in (Expand, Zeros, Verify)}
