"""Workload `gram_secrecy`: numeric theta values and secrecy functions
computed from Gram matrices.

Why: `secrecy` calls `lattice` over and over.  `eval_gram_numeric`
doubles `max_norm` and enumerates again from scratch each time, and that
repeated work, which `oracle` does not show, is what a cutoff chosen up
front would remove.  The cost also depends on where y lies relative to
the symmetry point 1/sqrt(ell), so y lies on both sides.

Job mix: every cycle holds the same jobs in the same order, because
their costs differ by three orders of magnitude and a seeded subset or
order would make the run's cost depend on the seed:
  - the weak secrecy gain of E8, ExampleDim8, the Construction-A Gram of
    the shipped code, D4, A2, C2 and C3, and of K12 and BW16 under a
    node budget of BUDGET;
  - `secrecy_function` on a 1 dB grid within 3 dB of the symmetry point
    (the default search range of `locate_maximum`) for D4, A2, C2 and
    C3; for the 8-dimensional lattices the grid is cut where one
    evaluation costs more than about a second (ExampleDim8 takes 12.9 s
    at y = 0.5): ExampleDim8 at -0.5 and -0.25 dB and from +0.5 dB up
    by 0.5 dB, E8 from +2 dB up;
  - two tail-bound probes (below);
  - 13-sample `secrecy_curve`s over 3 dB windows on a 0.25 dB grid:
    thirteen windows each for A2, C2 and C3 (starting 3 dB below the
    symmetry point to at it), and a seeded one of them for D4;
  - `locate_maximum` on the D4 and A2 Grams over a seeded search range.
The counts put the median job in the middle of the curves (3-10 ms),
with about as many faster jobs below them as slower ones above, rather
than on the edge between sub-millisecond jobs and the rest; the many
curves make the median a stable statistic.

Checks: the Gram-path value agrees with the decomposition path within
max(EPS * value, sum of the reported tail bounds), the rule of the
package's two-path agreement test.  Where a result reports no tail bound
(gains and curves), the Gram path's own stopping rule, EPS relative, is
taken as its bound.  C3 has no decomposition and is compared with the
product theta3(y) * theta3(3y).  `locate_maximum` must find the symmetry
point within 1e-4 dB and the weak gain within 1e-9.

Known baseline defects, reported and not counted as failures:
  - with the default budget, the K12 and BW16 gains exhaust memory (a
    3 GB address cap is hit after 87 s), so they run under BUDGET
    nodes and raise BoundTooLarge after about 4 s;
  - the Gram path's tail bound is a ratio heuristic, not a bound, and
    at the two probe points (C2 at +0.73 dB, D4 at -4.70 dB from the
    symmetry point) its error exceeds the rule above.  A probe fails
    outright if its error exceeds PROBE_LIMIT relative.
"""

from __future__ import annotations

import math
from fractions import Fraction

from common import EPS, Cycler, Job, Mismatch

#: Cycles of the traced run's fixed job list.
TRACE_CYCLES = 1

TAIL_PERCENTILE = 90

BUDGET = 2 * 10 ** 6
PROBES = (("C2", 0.73), ("D4", -4.70))
PROBE_LIMIT = 1e-9

#: catalog name -> (ell, decomposition: fixture row name, basis
#: coefficients over (ell, n, kind), or None)
SOURCES = {
    "E8": (1, ("even", (1,))),
    "K12": (3, "K12"),
    "BW16": (2, "BW16"),
    "ExampleDim8": (2, "dim8"),
    "ConstructionA": (2, "dim8"),
    "D4": (2, "D4"),
    "A2": (3, "A2"),
    "C2": (2, ("general", (1,))),
    "C3": (3, None),
}
SMALL = ("D4", "A2", "C2", "C3")
GAINS = ("E8", "ExampleDim8", "ConstructionA") + SMALL
BUDGET_GAINS = ("K12", "BW16")


def _grid(lo, hi, step):
    """Nonzero offsets in dB from the symmetry point, lo..hi by step."""
    return [k * step for k in range(round(lo / step), round(hi / step) + 1)
            if k]


#: name -> offsets in dB from the symmetry point
Y_GRID = {name: _grid(-3.0, 3.0, 1.0) for name in SMALL}
Y_GRID["ExampleDim8"] = _grid(-0.5, -0.25, 0.25) + _grid(0.5, 3.0, 0.5)
Y_GRID["E8"] = _grid(2.0, 3.0, 0.5)
#: Curves: 3 dB windows on a 0.25 dB grid, starting at each of
#: CURVE_STARTS for A2, C2 and C3 and at a seeded one of them for D4.
CURVE_STARTS = tuple(k * 0.25 for k in range(-12, 1))
CURVE_WIDTH, CURVE_SAMPLES = 3.0, 13
CURVE_LATTICES = ("A2", "C2", "C3")
#: locate_maximum searches (symmetry point - a, symmetry point + b) dB
MAXIMUM_LATTICES = ("D4", "A2")
MAXIMUM_REACH = (2.0, 2.5, 3.0, 3.5, 4.0)


class State:
    pass


def setup(modlat, rng):
    st = State()
    st.m = modlat
    st.grams = {}
    st.refs = {}
    for name, (ell, src) in SOURCES.items():
        if name == "ConstructionA":
            code = modlat.CodeOverR.from_pairs(
                modlat.fixtures.PSOLE_DIM8_GENERATOR)
            st.grams[name] = modlat.construction_a_gram(code)
        else:
            st.grams[name] = modlat.catalog(name).gram
        n = st.grams[name].n
        if src is None:
            st.refs[name] = None
        elif isinstance(src, str):
            row = modlat.fixtures.table_row(src)
            st.refs[name] = modlat.ThetaDecomposition(
                modlat.build_basis(row.ell, row.dim, row.kind),
                tuple(Fraction(c) for c in row.coeffs))
        else:
            kind, coeffs = src
            st.refs[name] = modlat.ThetaDecomposition(
                modlat.build_basis(ell, n, kind),
                tuple(Fraction(c) for c in coeffs))
    st.d4_curve = Cycler(rng, CURVE_STARTS)
    st.reach = Cycler(rng, MAXIMUM_REACH)
    return st


def load_refs(st):
    pass


def _sym_db(ell):
    return 10.0 * math.log10(ell ** -0.5)


def _reference(st, name, y):
    """(value, tail bound) of theta at i*y by the decomposition path."""
    secrecy = st.m.secrecy
    d = st.refs[name]
    if d is None:  # C3 = Z + sqrt(3) Z
        return secrecy.theta3_numeric(y) * secrecy.theta3_numeric(y, 3.0), 0.0
    tv = secrecy.eval_theta_numeric(d, y)
    return tv.value, tv.bound_on_tail


def _excess(value, bound, ref, ref_bound):
    """Error over the two-path rule's tolerance; at most 1 passes."""
    tol = max(EPS * ref, bound + ref_bound)
    return abs(value - ref) / tol


def _side(offset):
    return "below" if offset < 0 else "above" if offset > 0 else "at"


def _xi_reference(st, name, y, ell, n):
    ref, ref_bound = _reference(st, name, y)
    xi = st.m.secrecy.theta3_numeric(y, math.sqrt(ell)) ** n / ref
    # The Gram path certifies EPS relative when it stops; the quotient
    # adds at most a few roundings.
    return xi, ref_bound / ref + EPS + 1e-15


def _gain_job(st, name, budget=None):
    secrecy = st.m.secrecy
    ell = SOURCES[name][0]
    g = st.grams[name]
    n = g.n
    y = 1.0 / math.sqrt(ell)

    if budget is None:
        def run():
            return secrecy.weak_secrecy_gain(g, ell)
        known = ()
        label = "weak_secrecy_gain %s" % name
    else:
        # weak_secrecy_gain takes no budget; this is its body with one.
        def run():
            tv = secrecy.eval_theta_numeric(g, y, EPS, budget)
            return secrecy.theta3_numeric(1.0) ** n / tv.value
        known = (st.m.errors.BoundTooLarge,)
        label = "weak_secrecy_gain %s budget %d" % (name, budget)

    def check(chi):
        want, rel = _xi_reference(st, name, y, ell, n)
        if abs(chi - want) > rel * want:
            raise Mismatch("gain %.17g, decomposition path %.17g"
                           % (chi, want))

    return Job("gain", label, run, check, lambda chi: chi * (1 + 1e-9),
               {"y": "at"}, known)


def _function_job(st, name, offset, probe=False):
    secrecy = st.m.secrecy
    ell = SOURCES[name][0]
    g = st.grams[name]
    y = 10.0 ** ((_sym_db(ell) + offset) / 10.0)

    def run():
        return secrecy.secrecy_function(g, ell, y)

    def check(ev):
        ref, ref_bound = _reference(st, name, y)
        excess = _excess(ev.theta_lattice, ev.bound_on_tail, ref, ref_bound)
        if abs(ev.xi * ev.theta_lattice - ev.theta_reference) > \
                1e-15 * ev.theta_reference:
            raise Mismatch("xi is not theta_reference / theta_lattice")
        if excess <= 1.0:
            return None
        err = abs(ev.theta_lattice - ref) / ref
        if probe and err <= PROBE_LIMIT:
            return ("tail bound exceeded: relative error %.3g is %.2f times "
                    "the two-path tolerance" % (err, excess))
        raise Mismatch("theta %.17g, decomposition path %.17g: %.2f times "
                       "the two-path tolerance"
                       % (ev.theta_lattice, ref, excess))

    def perturb(ev):
        bad = ev.theta_lattice * (1 + 1e-9)
        return type(ev)(ev.y, ev.theta_reference / bad, bad,
                        ev.theta_reference, ev.terms_used, ev.bound_on_tail)

    kind = "probe" if probe else "secrecy_function"
    return Job(kind, "secrecy_function %s %+.2f dB" % (name, offset), run,
               check, perturb, {"y": _side(offset)})


def _curve_job(st, name, start):
    secrecy = st.m.secrecy
    ell = SOURCES[name][0]
    g = st.grams[name]
    n = g.n
    lo = _sym_db(ell) + start
    hi = lo + CURVE_WIDTH

    def run():
        return secrecy.secrecy_curve(g, ell, (lo, hi), CURVE_SAMPLES)

    def check(pts):
        if len(pts) != CURVE_SAMPLES:
            raise Mismatch("curve has %d points" % len(pts))
        for i, (ydb, xi) in enumerate(pts):
            if ydb != lo + (hi - lo) * i / (CURVE_SAMPLES - 1):
                raise Mismatch("curve grid point %d is %r" % (i, ydb))
            want, rel = _xi_reference(st, name, 10.0 ** (ydb / 10.0), ell,
                                      n)
            if abs(xi - want) > rel * want:
                raise Mismatch("curve at %.3f dB: %.17g, decomposition "
                               "path %.17g" % (ydb, xi, want))

    def perturb(pts):
        return [(pts[0][0], pts[0][1] * (1 + 1e-9))] + list(pts[1:])

    side = "below" if start + CURVE_WIDTH <= 0 else \
        "above" if start >= 0 else "both"
    return Job("secrecy_curve", "secrecy_curve %s %+.1f..%+.1f dB"
               % (name, start, start + CURVE_WIDTH), run, check, perturb,
               {"y": side})


def _maximum_job(st, name, below, above):
    secrecy = st.m.secrecy
    ell = SOURCES[name][0]
    g = st.grams[name]
    search = (_sym_db(ell) - below, _sym_db(ell) + above)

    def run():
        return secrecy.locate_maximum(g, ell, search)

    def check(out):
        y_star, xi_star = out
        if abs(10.0 * math.log10(y_star) - _sym_db(ell)) >= 1e-4:
            raise Mismatch("maximum at %.6f dB, symmetry point %.6f dB"
                           % (10.0 * math.log10(y_star), _sym_db(ell)))
        want, _ = _xi_reference(st, name, 1.0 / math.sqrt(ell), ell, g.n)
        if abs(xi_star - want) >= 1e-9:
            raise Mismatch("maximum %.17g, weak gain %.17g"
                           % (xi_star, want))

    return Job("locate_maximum", "locate_maximum %s -%.1f..+%.1f dB"
               % (name, below, above), run, check,
               lambda out: (out[0], out[1] + 1e-6), {"y": "search"})


def anchors(st):
    return []


def cycle(st):
    jobs = [_gain_job(st, name) for name in GAINS]
    jobs += [_gain_job(st, name, BUDGET) for name in BUDGET_GAINS]
    jobs += [_function_job(st, name, offset)
             for name, grid in Y_GRID.items() for offset in grid]
    jobs += [_function_job(st, name, offset, probe=True)
             for name, offset in PROBES]
    jobs += [_curve_job(st, name, start)
             for name in CURVE_LATTICES for start in CURVE_STARTS]
    jobs.append(_curve_job(st, "D4", st.d4_curve.next()))
    jobs += [_maximum_job(st, name, st.reach.next(), st.reach.next())
             for name in MAXIMUM_LATTICES]
    return jobs
