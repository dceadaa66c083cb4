"""Basis construction and exact coefficient solving for theta-series
decompositions of 2- and 3-modular lattices.

Each basis shape is one row of `_SHAPES`, keyed by (kind, ell): the
generators (G1, G2), the names `ThetaDecomposition.pretty` prints for
them, their dimensions (n0, n1), the step between the exponents of the
series and the index [SL_2(Z) : Gamma_0(ell)].  The monomials of
dimension n are G1^lambda * G2^mu with n0*lambda + n1*mu = n, ordered
by mu.  The "even" rows (step 2) serve even lattices of level 1, 2 and
3, the "general" row (level 2, step 1) the odd lattices built from
codes.  The units are dimensions, twice the weights, so that a
generator of half-integral weight, such as theta_3, has an integer row.

`certified_decomposition` gives a Gram the closed form with a proof:
an even Gram of level ell and determinant ell^(n/2) has its theta series
in the same space of modular forms as the even-shape monomials, and the
Sturm bound says how many exact vector counts fix it there.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import json
from math import gcd, lcm
from operator import mul

from . import theta
from .errors import (BoundTooLarge, EmptyBasis, InconsistentSurplus,
                     UnsupportedLevel)
from .lattice import (DEFAULT_BUDGET, _adjugate, _scale_to_integers,
                      catalog, theta_coefficients)
from .qseries import DEFAULT_ORDER, SeriesMatrix, _rational

_Shape = namedtuple("_Shape", "generators printed dims step index")

_SHAPES = {
    ("even", 1): _Shape(("Theta_E8", "Delta_24"), ("Theta_E8", "Delta_24"),
                        (8, 24), 2, 1),
    ("even", 2): _Shape(("Theta_D4", "Delta_16"), ("Theta_D4", "Delta_16"),
                        (4, 16), 2, 3),
    ("even", 3): _Shape(("Theta_A2", "Delta_12"), ("Theta_A2", "Delta_12"),
                        (2, 12), 2, 4),
    ("general", 2): _Shape(("f1_l2", "Delta_4"), ("f1", "Delta_4"),
                           (2, 4), 1, 3),
}

#: Default surplus depth of `solve_coefficients`: a spot check, no proof.
_SPOT_CHECK = 8


@dataclass(frozen=True)
class BasisSpec:
    ell: int
    kind: str                      # "even" | "general"
    n: int                         # lattice dimension
    terms: tuple[tuple[int, int], ...]  # exponent pairs over (G1, G2)

    @property
    def generators(self):
        return _SHAPES[self.kind, self.ell].generators

    @property
    def step(self):
        """The step between the exponents of the series."""
        return _SHAPES[self.kind, self.ell].step


@dataclass(frozen=True)
class ThetaDecomposition:
    basis: BasisSpec
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.terms):
            raise ValueError("coefficient count does not match basis")

    def pretty(self):
        g1, g2 = _SHAPES[self.basis.kind, self.basis.ell].printed
        parts = []
        for (e1, e2), c in zip(self.basis.terms, self.coeffs):
            if c == 0 and parts:
                continue
            factors = []
            if e1:
                factors.append(g1 if e1 == 1 else "%s^%d" % (g1, e1))
            if e2:
                factors.append(g2 if e2 == 1 else "%s^%d" % (g2, e2))
            mono = "*".join(factors) or "1"
            mag = abs(c)
            body = mono if mag == 1 else "%s*%s" % (mag, mono)
            if not parts:
                parts.append(body if c >= 0 else "-" + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def to_json_dict(self):
        return {"ell": self.basis.ell, "kind": self.basis.kind,
                "n": self.basis.n,
                "terms": [list(t) for t in self.basis.terms],
                "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d):
        basis = build_basis(d["ell"], d["n"], d["kind"])
        if [list(t) for t in basis.terms] != d["terms"]:
            raise ValueError("term list does not match basis shape")
        return cls(basis, tuple(_rational(c) for c in d["coeffs"]))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


def build_basis(ell, n, kind="even"):
    """Ordered monomial basis for dimension n at the given level."""
    if kind not in ("even", "general"):
        raise ValueError("kind must be 'even' or 'general'")
    if ell not in [level for _, level in _SHAPES]:
        raise UnsupportedLevel("level %r not supported" % (ell,))
    if n <= 0 or n % 2:
        raise ValueError("dimension must be a positive even integer")
    if (kind, ell) not in _SHAPES:
        raise UnsupportedLevel("general shape is only shipped for level 2")
    n0, n1 = _SHAPES[kind, ell].dims
    terms = tuple(((n - n1 * mu) // n0, mu) for mu in range(n // n1 + 1)
                  if (n - n1 * mu) % n0 == 0)
    if not terms:
        raise EmptyBasis("no monomial of weight %d at level %d"
                         % (n // 2, ell))
    return BasisSpec(ell, kind, n, terms)


@lru_cache(maxsize=None)
def _term_matrix(basis, order):
    """The q-expansions of the basis monomials below order, as the
    columns of one integer matrix."""
    g1, g2 = (theta.expand(g, order) for g in basis.generators)
    return SeriesMatrix.of([g1 ** e1 * g2 ** e2 for e1, e2 in basis.terms],
                           order)


def _terms_below(basis, order):
    """The term matrix of `basis` to at least `order`, one per bucket of
    `theta.ORDER_STEP`."""
    return _term_matrix(basis, theta._order_bucket(order))


def expand_decomposition(d: ThetaDecomposition, order=DEFAULT_ORDER):
    order = Fraction(order)
    return _terms_below(d.basis, order).combine(d.coeffs, order)


def _matching_exponents(basis, count):
    return [basis.step * i for i in range(count)]


@lru_cache(maxsize=None)
def _matching_inverse(basis):
    """(D, D * M^-1, scales) for the integer matrix M of the basis terms
    at the matching exponents, D = +-det M (`lattice._adjugate`); term k
    is scales[k] times column k of M."""
    exps = _matching_exponents(basis, len(basis.terms))
    matrix = _terms_below(basis, exps[-1] + 1)
    det, inverse = _adjugate([matrix.row(e) for e in exps])
    return det, tuple(map(tuple, inverse)), matrix.scales


def solve_coefficients(basis: BasisSpec, known, surplus_depth=_SPOT_CHECK):
    """Recover decomposition coefficients from leading theta coefficients.

    `known` is a list of (norm, count) pairs.  The first len(terms)
    matching exponents, the multiples of the basis step, feed an exact
    linear system; any further known coefficients up to `surplus_depth`
    are checked against the solution.
    The system's inverse is computed once per basis, so a solve is one
    matrix-vector product and the check one more.
    """
    known_map = {Fraction(m): Fraction(c) for m, c in known}
    exps = _matching_exponents(basis, len(basis.terms))
    missing = [e for e in exps if e not in known_map]
    if missing:
        raise ValueError("need theta coefficients at exponents %s" % missing)
    det, inverse, scales = _matching_inverse(basis)
    rhs = [known_map[e] for e in exps]
    common = lcm(*(r.denominator for r in rhs))
    rhs = [r.numerator * (common // r.denominator) for r in rhs]
    # M y = rhs has y_k = scales[k] * coefficient k
    d = ThetaDecomposition(basis, tuple(
        Fraction(sum(map(mul, row, rhs)) * s.denominator,
                 det * common * s.numerator)
        for row, s in zip(inverse, scales)))
    order = Fraction(max(surplus_depth + 1, exps[-1] + 1))
    # the matching coefficients hold by construction
    surplus = [(e, c) for e, c in known_map.items()
               if e < order and e not in exps]
    if surplus:
        expansion = expand_decomposition(d, order)
        for e, c in surplus:
            if c != expansion.coeff_at(e):
                raise InconsistentSurplus(
                    "solution gives coefficient %s at q^%s but %s was "
                    "supplied; wrong level, parity or basis shape for this "
                    "lattice" % (expansion.coeff_at(e), e, c))
    return d


def gram_decomposition(gram, basis: BasisSpec, budget=DEFAULT_BUDGET):
    """Theta of a Gram over `basis`, solved from its vector counts up to
    the last matching exponent or the check depth, whichever is larger:
    the Sturm depth, a proof (`certified_decomposition`), if `basis` is
    even and of the level the Gram's gate gives, else `_SPOT_CHECK`."""
    n, ell = gram.n, basis.ell
    check = _SPOT_CHECK
    if basis.kind == "even" and _gate_level(gram) == ell:
        check = 2 * (n * _SHAPES[basis.kind, ell].index // 24)
    depth = max(_matching_exponents(basis, len(basis.terms))[-1], check)
    return solve_coefficients(
        basis, theta_coefficients(gram, depth, budget), depth)


def certified_decomposition(gram, budget=DEFAULT_BUDGET):
    """Theta of an even ell-modular Gram over the even basis, proven, or None.

    Gate, checked exactly: the Gram G is integral with even diagonal
    (the lattice L is even), its level N, the least N with N*G^-1
    integral with even diagonal, is ell in {1, 2, 3}, and det G =
    ell^(n/2).  A Gram that fails it, a rational one included, gives
    None.

    Why the gate suffices.  For an even lattice of level N and even
    dimension n, Theta_L(tau) = sum_x e^(pi*i*tau*x^T G x) is a modular
    form of weight k = n/2 on Gamma_0(N) with the character
    chi(d) = ((-1)^k det G / d) (Kronecker symbol; Miyake, "Modular
    Forms", section 4.9, theta series of quadratic forms).  With N = ell
    and det G = ell^k that is chi(d) = ((-1)^k ell^k / d), one space
    M_k(Gamma_0(ell), chi) for every lattice that passes.  The even basis
    monomials G1^lambda * G2^mu lie in it (Quebbemann, "Modular lattices
    in Euclidean spaces", 1995):
      - ell = 1: Theta_E8 (weight 4) and Delta_24 = eta(tau)^24 (weight
        12) have the trivial character on SL_2(Z); so has Theta_L, as
        det G = 1 and 8 divides n;
      - ell = 2: Theta_D4 (weight 2, det 4, chi = (4/d)) and Delta_16 =
        (eta(tau) eta(2 tau))^8 (weight 8) have the trivial character on
        odd d; k is even (for odd k, ((-2)^k / d) has conductor 8, which
        level 2 excludes), so ((-1)^k 2^k / d) = 1 too;
      - ell = 3: Theta_A2 (weight 1, det 3) has chi = (-3/d) and
        Delta_12 = (eta(tau) eta(3 tau))^6 (weight 6) the trivial one, so
        Theta_A2^lambda Delta_12^mu has (-3/d)^lambda; lambda = k - 6 mu
        has the parity of k, and ((-1)^k 3^k / d) = (-3/d)^k.

    The Sturm depth.  A form in M_k(Gamma_0(ell), chi) whose coefficients
    at e^(2 pi i tau m) vanish for m <= k [SL_2(Z) : Gamma_0(ell)] / 12 is
    zero (Sturm, "On the congruence of modular forms", 1987; for a
    character of order o apply it to the o-th power).  The index, the
    `index` of the `_SHAPES` row, is 1 for ell = 1 and ell + 1 for
    ell = 2, 3.  In this package's nome q = e^(pi i tau) the coefficient
    at e^(2 pi i tau m) of an even lattice is the count A_2m, so two such
    forms are equal once their counts agree up to norm
    2*floor(n*index/24): norm 4 for K12 and BW16, norm 0 for E8, D4 and
    A2.

    `gram_decomposition` checks every count up to that
    depth, so Theta_L minus the decomposition vanishes to the Sturm
    depth and is zero.  An InconsistentSurplus means Theta_L lies outside
    the span of the monomials (the span can be smaller than the space:
    dim M_8(Gamma_0(2)) = 3 against two monomials), and None is
    returned; so it is if the enumeration needs more than `budget` nodes.

    The certificate is memoized per (gram, budget): a Gram's secrecy
    function, gain, curve and maximum share one enumeration.
    """
    return _certificate(gram, budget)


@lru_cache(maxsize=256)
def _certificate(gram, budget):
    ell = _gate_level(gram)
    if ell is None:
        return None
    try:
        return gram_decomposition(gram, build_basis(ell, gram.n, "even"),
                                  budget)
    except (InconsistentSurplus, BoundTooLarge):
        return None


@lru_cache(maxsize=256)
def _gate_level(gram):
    """ell if the Gram is even of the level ell of an even `_SHAPES` row
    and det ell^(n/2)."""
    n = gram.n
    if not n or n % 2 or not gram.is_integral() or not gram.is_even():
        return None
    level = _level(gram)
    if (("even", level) in _SHAPES
            and gram.determinant() == level ** (n // 2)):
        return level
    return None


def _level(gram):
    """The least N with N * G^-1 integral with an even diagonal.

    With s the lcm of the Gram's denominators, D = det(sG) and A =
    adj(sG) (`lattice._adjugate`), G^-1 = s A / D, so entry (i, j) needs
    N to be a multiple of D / gcd(D, s A_ij) off the diagonal and of 2D
    / gcd(2D, s A_ii) on it.
    """
    s, G = _scale_to_integers(gram.entries)
    det, adj = _adjugate(G)
    return lcm(*((2 * det // gcd(2 * det, s * x)) if i == j
                 else det // gcd(det, s * x)
                 for i, row in enumerate(adj) for j, x in enumerate(row)))


def decomposition_from_fixture(row):
    """ThetaDecomposition for a fixtures.TableRow."""
    basis = build_basis(row.ell, row.dim, row.kind)
    return ThetaDecomposition(basis, tuple(Fraction(c) for c in row.coeffs))


def check_table_row(row, budget=DEFAULT_BUDGET):
    """A fixtures.TableRow's decomposition and the failures of its checks
    up to q^9: constant term 1, non-negative integer coefficients, every
    exponent a multiple of the basis step, and agreement with
    `gram_decomposition`, within `budget` search nodes, where a catalog
    Gram is shipped."""
    problems = []
    d = decomposition_from_fixture(row)
    s = expand_decomposition(d, 10)
    if s.coeff_at(0) != 1:
        problems.append("constant term %s != 1" % s.coeff_at(0))
    for e, c in s.terms():
        if c.denominator != 1 or c < 0:
            problems.append("coefficient %s at q^%s not a count" % (c, e))
        if e % d.basis.step:
            problems.append("odd-exponent term q^%s in even lattice" % e)
    if row.catalog_name:
        try:
            found = gram_decomposition(catalog(row.catalog_name).gram,
                                       d.basis, budget)
            if found != d:
                problems.append("catalog Gram gives %s" % found.pretty())
        except InconsistentSurplus as exc:
            problems.append("catalog Gram: %s" % exc)
    return d, problems


def verify_table(which):
    """`check_table_row` of each row of fixture table 1 or 2, as a list of
    (row name, ok, list of failure messages)."""
    from . import fixtures

    report = []
    for row in {1: fixtures.TABLE1, 2: fixtures.TABLE2}[which]:
        problems = check_table_row(row)[1]
        report.append((row.name, not problems, problems))
    return report
