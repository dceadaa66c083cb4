import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modlat import fixtures, modform, secrecy
from modlat.errors import TailBoundNotMet
from modlat.lattice import GramMatrix, _norm_counts, catalog, \
    theta_coefficients
from modlat.modform import ThetaDecomposition, build_basis, \
    decomposition_from_fixture
from modlat.secrecy import (eval_gram_numeric, eval_theta_numeric,
                            locate_maximum, secrecy_curve, secrecy_function,
                            theta3_numeric, weak_secrecy_gain)
from modlat.theta import FORM_NAMES, expand


def fixture_decomposition(name):
    return decomposition_from_fixture(fixtures.table_row(name))


def test_theta3_classical_value():
    # theta3(i) = pi^(1/4) / Gamma(3/4), checked against an independent
    # 60-term direct summation
    direct = 1.0 + 2.0 * sum(math.exp(-math.pi * m * m)
                             for m in range(1, 61))
    assert abs(theta3_numeric(1.0) - direct) < 1e-15
    assert abs(theta3_numeric(1.0)
               - math.pi ** 0.25 / math.gamma(0.75)) < 1e-12


@pytest.mark.parametrize("name", FORM_NAMES)
@pytest.mark.parametrize("y", [0.5, 1.0])
def test_float_form_matches_exact_expansion(name, y):
    # q = e^{-pi*y}; past order 40 every term carries e^{-20*pi} < 1e-27
    exact = sum(float(c) * math.exp(-math.pi * y * float(e))
                for e, c in expand(name, 40).terms())
    value = secrecy.form_numeric(name, y)
    assert value == pytest.approx(exact, rel=1e-13, abs=0)


def test_large_y_limit():
    assert abs(eval_theta_numeric(catalog("D4").gram, 50.0).value - 1.0) \
        < 1e-12
    d = fixture_decomposition("BW16")
    assert abs(eval_theta_numeric(d, 50.0).value - 1.0) < 1e-12


def _assert_two_paths_agree(d, g, y):
    # the enumeration itself, whatever route eval_theta_numeric takes
    a = eval_theta_numeric(d, y)
    b = eval_gram_numeric(g, y)
    assert abs(a.value - b.value) <= max(
        1e-12 * a.value, a.bound_on_tail + b.bound_on_tail), y


def test_two_path_agreement():
    pairs = [("D4", "D4", 2), ("A2", "A2", 3), ("dim8", "ExampleDim8", 2)]
    for fix_name, cat_name, ell in pairs:
        d = fixture_decomposition(fix_name) if fix_name != "A2" else \
            fixture_decomposition("A2")
        g = catalog(cat_name).gram
        for y in (0.5, 1.0 / math.sqrt(ell), 2.0):
            _assert_two_paths_agree(d, g, y)
    # the benchmark's two tail probes, in dB from the symmetry point
    c2 = ThetaDecomposition(build_basis(2, 2, "general"), (Fraction(1),))
    for d, name, offset in ((c2, "C2", 0.73),
                            (fixture_decomposition("D4"), "D4", -4.70)):
        y = 10.0 ** ((10.0 * math.log10(2 ** -0.5) + offset) / 10.0)
        _assert_two_paths_agree(d, catalog(name).gram, y)


def test_symmetry_functional_equation():
    for row in fixtures.TABLE1 + fixtures.TABLE2:
        d = decomposition_from_fixture(row)
        for k in range(20):
            y = 0.2 * (5.0 / 0.2) ** (k / 19.0)
            a = secrecy_function(d, row.ell, y).xi
            b = secrecy_function(d, row.ell, 1.0 / (row.ell * y)).xi
            assert abs(a - b) < 1e-9, (row.name, y)


def test_xi_at_least_one_at_symmetry():
    for row in fixtures.TABLE1 + fixtures.TABLE2:
        d = decomposition_from_fixture(row)
        assert weak_secrecy_gain(d, row.ell) >= 1.0, row.name


def test_monotone_tail_bound():
    g = catalog("D4").gram
    bounds = [eval_gram_numeric(g, 0.7, eps=e).bound_on_tail
              for e in (1e-6, 1e-9, 1e-12)]
    assert bounds[0] >= bounds[1] >= bounds[2]


@pytest.fixture
def enum_calls(monkeypatch):
    """Counts the enumerations the secrecy module makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return _norm_counts(*args, **kwargs)

    monkeypatch.setattr(secrecy, "_norm_counts", counting)
    return calls


@pytest.mark.parametrize("name", ["C2", "C3", "A2", "ExampleDim8"])
@pytest.mark.parametrize("dual", [False, True])
def test_cutoff_is_the_smallest_certifying_r(name, dual):
    # whatever the walk starts from, it ends at the first R of a scan
    side = secrecy._Side(catalog(name).gram, dual)
    for y in (0.05, 0.3, 0.7, 1.0, 1.4, 3.0, 20.0):
        a = side.rate(y)
        for eps in (1e-6, 1e-12, 1e-15, 1e-300):
            want = next((R for R in range(secrecy.MAX_CUTOFF + 1)
                         if side.tail(a, R) <= eps), None)
            R, tail = side.cutoff(a, eps)
            assert R == want, (y, eps)
            if R is not None:
                assert tail == side.tail(a, R)


def test_tail_bound_not_met(enum_calls):
    # far below the symmetry point the dual side certifies at once
    g = catalog("D4").gram
    _assert_two_paths_agree(fixture_decomposition("D4"), g, 1e-4)
    tv = eval_gram_numeric(g, 1e-4, eps=1e-15, budget=10 ** 6)
    assert tv.terms_used <= 2 and tv.bound_on_tail <= 1e-15 * tv.value
    # e^(-200*pi) ~ 1e-273: no cutoff up to 200 certifies 1e-300 on
    # either side at y = 1, and nothing is enumerated
    del enum_calls[:]
    with pytest.raises(TailBoundNotMet):
        eval_gram_numeric(g, 1.0, eps=1e-300)
    # y = inf lies past every bracket, so the plan gives it the primal
    # side without weighing the dual; at an infinite rate no cutoff of
    # that side certifies it
    with pytest.raises(TailBoundNotMet, match="at y=inf"):
        eval_gram_numeric(g, math.inf)
    assert enum_calls == []


@pytest.mark.parametrize("name,ell", [("A2", 3), ("D4", 2), ("C2", 2)])
@pytest.mark.parametrize("samples", [2, 13, 50])
def test_one_enumeration_per_side(monkeypatch, enum_calls, name, ell,
                                  samples):
    # A2 and D4 have a certified closed form; refuse it, so that every
    # call below takes the primal/dual path
    monkeypatch.setattr(secrecy, "certified_decomposition",
                        lambda gram, budget: None)
    g = catalog(name).gram
    sym = 10.0 * math.log10(ell ** -0.5)
    for call, most in ((lambda: secrecy_function(g, ell, 0.3), 1),
                       (lambda: weak_secrecy_gain(g, ell), 1),
                       (lambda: secrecy_curve(g, ell, (sym - 6, sym + 3),
                                              samples), 2),
                       (lambda: secrecy_curve(g, ell, (sym + 1, sym + 4),
                                              samples), 2),
                       (lambda: locate_maximum(g, ell), 2),
                       (lambda: locate_maximum(
                           g, ell, (sym - 0.25 * samples, sym + 4)), 2)):
        del enum_calls[:]
        call()
        assert 1 <= len(enum_calls) <= most


@pytest.mark.parametrize("name,ell", [("A2", 3), ("D4", 2), ("C2", 2)])
@pytest.mark.parametrize("below,above", [(6.0, 4.0), (0.5, 4.0),
                                         (6.0, -0.5), (-0.5, 4.0),
                                         (2.0, 2.0)])
def test_span_covers_every_point(enum_calls, name, ell, below, above):
    g = catalog(name).gram
    sym = 10.0 * math.log10(ell ** -0.5)
    lo, hi = sym - below, sym + above
    theta = secrecy._GramTheta(g, 1e-12, 10 ** 8).prepare_span(lo, hi)
    planned = list(enum_calls)
    for k in range(401):
        theta.value(10.0 ** ((lo + (hi - lo) * k / 400) / 10.0))
    assert enum_calls == planned and len(planned) <= 2


@pytest.mark.parametrize("name,ell", [("A2", 3), ("D4", 2), ("C2", 2),
                                      ("C3", 3), ("ExampleDim8", 2)])
@pytest.mark.parametrize("start", [-3.0, -1.5, 0.0, 1.5])
def test_curve_plans_both_sides_only_at_its_probes(monkeypatch, name, ell,
                                                    start):
    # a 13-point curve over 3 dB bisects for the switch from the dual
    # side to the primal: at most 2 + ceil(log2(12)) = 6 points get both
    # cutoffs, every other point only its own side's
    cutoffs = []
    cutoff = secrecy._Side.cutoff

    def counting(side, a, eps):
        cutoffs.append((side.dual, a))
        return cutoff(side, a, eps)

    monkeypatch.setattr(secrecy._Side, "cutoff", counting)
    g = catalog(name).gram
    lo = 10.0 * math.log10(ell ** -0.5) + start
    grid = [lo + 3.0 * i / 12 for i in range(13)]
    ys = [10.0 ** (db / 10.0) for db in grid]
    theta = secrecy._GramTheta(g, 1e-12, 10 ** 8).prepare(ys)
    rates = [(math.pi * y, math.pi / y) for y in ys]
    probes = [k for k, (p, d) in enumerate(rates)
              if (False, p) in cutoffs and (True, d) in cutoffs]
    assert 2 <= len(probes) <= 6 and 0 in probes and 12 in probes
    assert len(cutoffs) == 13 + len(probes)
    # each point has the side a plan in full gives it
    full = secrecy._GramTheta(g, 1e-12, 10 ** 8)
    for y in ys:
        full._probe(y)
        assert theta.plan(y) == full.plans[y]
    assert [theta.value(y) for y in ys] == \
        [eval_gram_numeric(g, y) for y in ys]
    # a single point is planned in full once
    del cutoffs[:]
    eval_gram_numeric(g, ys[0])
    assert len(cutoffs) == 2


@pytest.mark.parametrize("name,ell", [("E8", 1), ("D4", 2), ("A2", 3),
                                      ("K12", 3), ("BW16", 2)])
def test_closed_form_route(monkeypatch, enum_calls, fresh_certificates, name,
                           ell):
    g = catalog(name).gram
    sturm = []
    monkeypatch.setattr(modform, "theta_coefficients",
                        lambda gram, depth, budget: sturm.append(depth)
                        or theta_coefficients(gram, depth, budget))
    d = modform.certified_decomposition(g)
    for y in (0.05, 1.0 / math.sqrt(ell), 3.0):
        assert eval_theta_numeric(g, y) == \
            replace(eval_theta_numeric(d, y), route="closed_form")
        ev = secrecy_function(g, ell, y)
        assert ev.route == "closed_form"
        assert ev.xi == secrecy_function(d, ell, y).xi
    sym = 10.0 * math.log10(ell ** -0.5)
    assert secrecy_curve(g, ell, (sym - 3, sym + 3), 7) == \
        secrecy_curve(d, ell, (sym - 3, sym + 3), 7)
    assert locate_maximum(g, ell) == locate_maximum(d, ell)
    assert weak_secrecy_gain(g, ell) == weak_secrecy_gain(d, ell)
    # one enumeration to the Sturm depth for the Gram, shared by every
    # call, and none on either side
    assert sturm == [4 if name in ("K12", "BW16") else 0]
    assert enum_calls == []


@pytest.mark.parametrize("name", ["K12", "BW16"])
def test_closed_form_within_a_node_budget(name):
    # the enumeration needs about 1e9 vectors on either side; the
    # certificate needs the counts to norm 4
    row = fixtures.table_row(name)
    g = catalog(name).gram
    tv = eval_theta_numeric(g, 1.0 / math.sqrt(row.ell), budget=2 * 10 ** 6)
    chi = theta3_numeric(1.0) ** row.dim / tv.value
    assert tv.route == "closed_form"
    assert chi == weak_secrecy_gain(fixture_decomposition(name), row.ell)
    assert abs(chi - row.chi_w) < 1e-5


def test_a_decomposition_reads_only_the_generators_it_uses(monkeypatch):
    # A2 and D4 are Theta_A2 and Theta_D4 alone, so Delta_12 and
    # Delta_16 are never evaluated; every point of a curve reads its
    # generator once
    calls = []
    form_numeric = secrecy.form_numeric
    monkeypatch.setattr(secrecy, "form_numeric",
                        lambda name, y: calls.append(name)
                        or form_numeric(name, y))
    sym = 10.0 * math.log10(3 ** -0.5)
    secrecy_curve(catalog("A2").gram, 3, (sym - 3, sym + 3), 13)
    assert calls == ["Theta_A2"] * 13
    del calls[:]
    locate_maximum(catalog("D4").gram, 2)
    assert calls and set(calls) == {"Theta_D4"}


@pytest.mark.parametrize("gram", [
    catalog("C2").gram, catalog("ExampleDim8").gram,
    GramMatrix([[2, 0], [0, 2]]),
    GramMatrix([[Fraction(x, 2) for x in row]
                for row in catalog("D4").gram.entries])])
@pytest.mark.parametrize("y", [0.3, 1.0, 2.0])
def test_gate_refused_grams_are_enumerated(gram, y):
    tv = eval_theta_numeric(gram, y)
    assert tv.route in ("primal", "dual")
    assert tv == eval_gram_numeric(gram, y)
    assert secrecy_function(gram, 2, y).route == tv.route


def _random_gram(entries, den):
    """(M M^T + den*I) / den: at least I, so every LDL^T pivot is >= 1."""
    n = math.isqrt(len(entries))
    m = [entries[i * n:(i + 1) * n] for i in range(n)]
    return GramMatrix([[Fraction(sum(a * b for a, b in zip(m[i], m[j]))
                                 + den * (i == j), den)
                        for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda n: st.lists(st.integers(-1, 1), min_size=n * n,
                              max_size=n * n)),
       st.integers(1, 3), st.floats(0.25, 4.0),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_proven_tail_bound(entries, den, y, eps):
    g = _random_gram(entries, den)
    tv = eval_gram_numeric(g, y, eps)
    # a primal sum far beyond the primal cutoff
    a = math.pi * y
    deep = secrecy._Side(g, False).cutoff(a, eps)[0] + 20
    ref = math.fsum(k * math.exp(-a * float(m))
                    for m, k in theta_coefficients(g, deep))
    assert abs(tv.value - ref) <= tv.bound_on_tail + 1e-15 * tv.value
    assert tv.bound_on_tail <= eps * tv.value


@pytest.mark.parametrize("n", range(1, 9))
def test_cubic_shortcut_bound(n):
    # an identity Gram is read as theta3^n; its bound covers the
    # truncation and the rounding of the sum and of the power
    mpmath = pytest.importorskip("mpmath")
    g = GramMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    with mpmath.workdps(30):
        for y in (0.25, 0.5, 1.0, 2.0):
            tv = eval_gram_numeric(g, y)
            ref = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * y)) ** n
            assert abs(tv.value - ref) <= tv.bound_on_tail, (n, y)
            assert tv.route == "theta3_product"
            assert eval_theta_numeric(g, y) == tv


def test_a_dual_value_past_the_float_range_is_refused():
    # det^(-1/2) y^(-4) is 2.5e303 at y = 1e-76 and past the float range
    # at 1e-78
    g = catalog("ExampleDim8").gram
    assert eval_gram_numeric(g, 1e-76).value == pytest.approx(2.5e303)
    with pytest.raises(ValueError, match="y=1e-78"):
        eval_gram_numeric(g, 1e-78)
    with pytest.raises(ValueError, match="y=1e-78"):
        secrecy_function(g, 2, 1e-78)


@pytest.mark.parametrize("y", [0.0, -1.0, math.nan])
def test_every_route_refuses_a_y_not_above_0(y):
    # a decomposition, a closed form, count sums and theta3^n
    grams = [catalog(name).gram for name in ("D4", "C2", "Z8")]
    for source in [fixture_decomposition("D4")] + grams:
        with pytest.raises(ValueError, match="y must be positive"):
            eval_theta_numeric(source, y)
        with pytest.raises(ValueError, match="y must be positive"):
            secrecy_function(source, 2, y)
    for gram in grams:
        with pytest.raises(ValueError, match="y must be positive"):
            eval_gram_numeric(gram, y)


def test_zn_flat():
    g = catalog("Z16").gram
    for y in (0.3, 1.0, 4.0):
        assert abs(secrecy_function(g, 1, y).xi - 1.0) < 1e-12
    assert abs(weak_secrecy_gain(g, 1) - 1.0) < 1e-12


def test_locate_maximum_bw16():
    d = fixture_decomposition("BW16")
    y_star, xi_star = locate_maximum(d, 2)
    sym_db = 10.0 * math.log10(2 ** -0.5)
    assert abs(10.0 * math.log10(y_star) - sym_db) < 1e-4
    assert abs(xi_star - weak_secrecy_gain(d, 2)) < 1e-9


def test_locate_maximum_k12():
    d = fixture_decomposition("K12")
    y_star, xi_star = locate_maximum(d, 3)
    assert abs(10.0 * math.log10(y_star) - 10.0 * math.log10(3 ** -0.5)) \
        < 1e-4
    assert abs(xi_star - 1.6683867) < 1e-6


@pytest.mark.parametrize("lo,hi", [
    (3.0, -3.0), (1.0, 1.0), (math.nan, 1.0), (0.0, math.inf),
    (-math.inf, 0.0),
    # 10^(y_dB/10) overflows, or is 0.0
    (-1e6, 1e6), (3100.0, 3200.0), (-4000.0, -3000.0)])
def test_bad_db_ranges_are_refused(lo, hi):
    c2 = ThetaDecomposition(build_basis(2, 2, "general"), (Fraction(1),))
    for source in (catalog("C2").gram, c2):
        with pytest.raises(ValueError):
            secrecy_curve(source, 2, (lo, hi), 13)
        with pytest.raises(ValueError):
            locate_maximum(source, 2, (lo, hi))


def test_secrecy_curve_grid():
    d = fixture_decomposition("D4")
    pts = secrecy_curve(d, 2, (-6.0, 3.0), 10)
    assert len(pts) == 10
    assert pts[0][0] == -6.0 and pts[-1][0] == 3.0
    assert all(x[1] > 0 for x in pts)


# An evaluation of the Table 1/2 polynomials that shares no code with
# modlat: each generator form is written once below, from Jacobi thetas
# and Euler products at the nome Q = e^{-pi*y}, and read two ways, as
# mpmath numbers and as exact q-expansions truncated below Q^_ORDER.

_ORDER = 5


class _Series:
    """Truncated q-expansion with integer coefficients."""

    def __init__(self, terms):
        self.c = {}
        for e, a in terms:
            if e < _ORDER:
                self.c[e] = self.c.get(e, 0) + a

    def __add__(self, other):
        return _Series(list(self.c.items()) + list(other.c.items()))

    def __mul__(self, other):
        return _Series((e + f, a * b) for e, a in self.c.items()
                       for f, b in other.c.items())

    def __pow__(self, k):
        out = _Series([(0, 1)])
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, d):
        assert all(a % d == 0 for a in self.c.values())
        return _Series((e, a // d) for e, a in self.c.items())

    def __getitem__(self, e):
        return self.c.get(e, 0)


def _series_theta(k, s):
    """theta_k at nome Q^s: sums of Q^{s*m^2} (k = 3, 4) or Q^{s*(m+1/2)^2}."""
    if k == 2:
        exps = [Fraction(s * (2 * m + 1) ** 2, 4) for m in range(_ORDER)]
        return _Series((e, 2) for e in exps)
    sign = -1 if k == 4 else 1
    return _Series([(0, 1)] + [(s * m * m, 2 * sign ** m)
                               for m in range(1, _ORDER)])


def _series_euler(s):
    """prod over m >= 1 of (1 - Q^{s*m})."""
    out = _Series([(0, 1)])
    for m in range(1, _ORDER):
        out = out * _Series([(0, 1), (s * m, -1)])
    return out


def _forms(theta, qpow, euler):
    """Generator pairs of each basis, keyed by (kind, ell), with their weights.

    theta(k, s) is theta_k at nome Q^s, qpow(e) is Q^e and euler(s) is
    the product over m >= 1 of (1 - Q^{s*m}); eta(s*tau) is
    Q^{s/12} * euler(2*s).
    """
    return {
        ("even", 2): (((theta(3, 1) ** 4 + theta(4, 1) ** 4) / 2,   # Theta_D4
                       qpow(2) * (euler(2) * euler(4)) ** 8),     # Delta_16
                      (2, 8)),
        ("even", 3): ((theta(2, 2) * theta(2, 6)                   # Theta_A2
                       + theta(3, 2) * theta(3, 6),
                       qpow(2) * (euler(2) * euler(6)) ** 6),     # Delta_12
                      (1, 6)),
        ("general", 2): ((theta(3, 1) * theta(3, 2),               # f1_l2
                          theta(2, 2) ** 2 * theta(4, 1) ** 2 / 4),  # Delta_4
                         (1, 2)),
    }


def _row_terms(row, forms):
    """The row's basis monomials g1^e1 * g2^i, in coefficient order."""
    (g1, g2), (w1, w2) = forms[(row.kind, row.ell)]
    terms = []
    for i in range(len(row.coeffs)):
        e1, rem = divmod(row.dim // 2 - w2 * i, w1)
        assert rem == 0 and e1 >= 0, row.name
        terms.append(g1 ** e1 * g2 ** i)
    return terms


def _largest_lattice_gain(mpmath, row, values, ref):
    """Largest gain of a polynomial on the row's basis whose counts A_0 = 1,
    A_2, ..., A_2k (k the number of free coefficients) are non-negative.

    Term i begins Q^{2i}, so the counts are a unit triangular map M of the
    coefficients, and the vertex c* where A_2 = ... = A_2k = 0 follows by
    forward substitution.  In the slacks s_j = A_2j >= 0,
    Theta = Theta(c*) + sum_j w_j*s_j with M^T w = (term values), so when
    every w_j > 0 the vertex has the least Theta and the largest gain.
    """
    series = _row_terms(row, _forms(_series_theta,
                                    lambda e: _Series([(e, 1)]),
                                    _series_euler))
    k = len(row.coeffs) - 1
    m = [[series[i][2 * j] for i in range(k + 1)] for j in range(k + 1)]
    assert all(m[j][i] == (i == j) for j in range(k + 1)
               for i in range(j, k + 1)), row.name
    vertex = [1]
    for j in range(1, k + 1):
        vertex.append(-sum(m[j][i] * vertex[i] for i in range(j)))
    # the published polynomial is that vertex
    assert tuple(vertex) == row.coeffs, (row.name, vertex)
    w = {}
    for j in range(k, 0, -1):
        w[j] = values[j] - sum(m[i][j] * w[i] for i in range(j + 1, k + 1))
        assert w[j] > 0, (row.name, j)
    return ref / mpmath.fsum(c * v for c, v in zip(vertex, values))


def test_table_gains_against_mpmath():
    """Each Table 1/2 gain against its polynomial at 40 digits; each print
    replaced by a correction lies, rounding included, above every gain a
    lattice with that theta-series basis can have."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref_theta3 = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi))
        for row in fixtures.TABLE1 + fixtures.TABLE2:
            q = mpmath.exp(-mpmath.pi / mpmath.sqrt(row.ell))
            values = _row_terms(row, _forms(
                lambda k, s: mpmath.jtheta(k, 0, q ** s),
                lambda e: q ** e, lambda s: mpmath.qp(q ** s)))
            ref = ref_theta3 ** row.dim
            chi = ref / mpmath.fsum(c * v for c, v in zip(row.coeffs, values))
            assert abs(row.chi_w - chi) < 1e-5, (row.name, chi)
            if row.published_chi_w is not None:
                bound = _largest_lattice_gain(mpmath, row, values, ref)
                assert row.published_chi_w - 5e-6 > bound, (row.name, bound)


def test_decomposition_error_within_four_estimates():
    """The n*1e-16*|value| of eval_decomposition_numeric is an estimate,
    not a bound: at the symmetry point the float value of each Table 1/2
    polynomial errs by up to 3.9 times it (L24.2), and by no more than 4
    times."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for row in fixtures.TABLE1 + fixtures.TABLE2:
            q = mpmath.exp(-mpmath.pi / mpmath.sqrt(row.ell))
            values = _row_terms(row, _forms(
                lambda k, s: mpmath.jtheta(k, 0, q ** s),
                lambda e: q ** e, lambda s: mpmath.qp(q ** s)))
            exact = mpmath.fsum(c * v for c, v in zip(row.coeffs, values))
            tv = secrecy.eval_decomposition_numeric(
                decomposition_from_fixture(row), 1.0 / math.sqrt(row.ell))
            assert abs(tv.value - exact) <= 4 * tv.bound_on_tail, row.name


def test_table3_ranking():
    """Table 3 per dimension: each 2- or 3-modular row beats the best
    unimodular lattice of its dimension, except A2xA11 in dimension 22.

    The six odd unimodular rows (X)+ are read as 32/(32 - n), which
    equals each print to its digits; Z^2 and Z^4 are read from their
    Grams, and the modular rows from their decompositions."""
    best, modular = {}, {}
    for row in fixtures.TABLE3:
        if row.recompute_zn:
            gain = weak_secrecy_gain(catalog("Z%d" % row.dim).gram, 1)
            assert gain == 1
        elif row.modular_key is None:
            gain = Fraction(32, 32 - row.dim)
            digits = len(repr(row.chi).split(".")[1])
            assert round(float(gain), digits) == row.chi, row.name
        else:
            ref = fixtures.table_row(row.modular_key)
            modular[row.name] = row.dim, weak_secrecy_gain(
                decomposition_from_fixture(ref), ref.ell)
            continue
        best[row.dim] = max(best.get(row.dim, 0), gain)
    margins = {name: round(gain - float(best[dim]), 4)
               for name, (dim, gain) in modular.items()}
    assert margins.pop("A2xA11") == -0.0748
    assert min(margins.values()) == margins["A2"] == 0.0179
    assert max(margins.values()) == margins["BW16"] == 0.2056
    assert sorted(margins) == sorted(
        ["A2", "D4", "K12", "C2xG(2,3)", "dim16 code lattice", "BW16",
         "dim18 code lattice", "dim20 code lattice", "HS20"])
