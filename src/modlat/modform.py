"""Basis construction and exact coefficient solving for theta-series
decompositions of 2- and 3-modular lattices.

Two basis shapes are supported.  The "even" shape spans weight-k forms
by monomials G1^lambda * G2^mu with k0*lambda + k1*mu = k, where the
generator pair (G1, G2) per level is (Theta_E8, Delta_24),
(Theta_D4, Delta_16), (Theta_A2, Delta_12) for level 1, 2, 3.  The
"general" shape (level 2 only) uses f1^(k-2i) * Delta_4^i for
i = 0..floor(k/2), which covers the odd lattices built from codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import json

from . import theta
from .errors import EmptyBasis, InconsistentSurplus, UnsupportedLevel
from .lattice import _bareiss, _scale_to_integers
from .qseries import DEFAULT_ORDER, QSeries

_K0 = {1: 4, 2: 2, 3: 1}
_K1 = {1: 12, 2: 8, 3: 6}

_GENERATORS = {
    ("even", 1): ("Theta_E8", "Delta_24"),
    ("even", 2): ("Theta_D4", "Delta_16"),
    ("even", 3): ("Theta_A2", "Delta_12"),
    ("general", 2): ("f1_l2", "Delta_4"),
}

#: Divisor ord_1(f1) per level: sum of divisors of ell over 8 (odd ell)
#: or over 6 (even ell).  Only level 2 is populated for the general shape.
_ORD1 = {2: Fraction(1, 2)}


@dataclass(frozen=True)
class BasisSpec:
    ell: int
    kind: str                      # "even" | "general"
    n: int                         # lattice dimension
    terms: tuple[tuple[int, int], ...]  # exponent pairs over (G1, G2)

    @property
    def generators(self):
        return _GENERATORS[(self.kind, self.ell)]


@dataclass(frozen=True)
class ThetaDecomposition:
    basis: BasisSpec
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.terms):
            raise ValueError("coefficient count does not match basis")

    def pretty(self):
        g1, g2 = self.basis.generators
        if g1 == "f1_l2":
            g1 = "f1"
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
        return cls(basis, tuple(Fraction(c) for c in d["coeffs"]))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


def build_basis(ell, n, kind="even"):
    """Ordered monomial basis for dimension n at the given level."""
    if kind not in ("even", "general"):
        raise ValueError("kind must be 'even' or 'general'")
    if ell not in (1, 2, 3):
        raise UnsupportedLevel("level %r not supported" % (ell,))
    if n <= 0 or n % 2:
        raise ValueError("dimension must be a positive even integer")
    k = n // 2
    if kind == "even":
        k0, k1 = _K0[ell], _K1[ell]
        terms = []
        mu = 0
        while k1 * mu <= k:
            rem = k - k1 * mu
            if rem % k0 == 0:
                terms.append((rem // k0, mu))
            mu += 1
        if not terms:
            raise EmptyBasis("no monomial of weight %d at level %d" % (k, ell))
        return BasisSpec(ell, "even", n, tuple(terms))
    if ell != 2:
        raise UnsupportedLevel("general shape is only shipped for level 2")
    imax = int(k * _ORD1[ell])
    terms = tuple((k - 2 * i, i) for i in range(imax + 1))
    return BasisSpec(ell, "general", n, terms)


@lru_cache(maxsize=None)
def _term_expansion(kind, ell, e1, e2, order):
    g1, g2 = _GENERATORS[(kind, ell)]
    out = QSeries.one(order)
    if e1:
        out = out * theta.expand(g1, order) ** e1
    if e2:
        out = out * theta.expand(g2, order) ** e2
    return out


def expand_decomposition(d: ThetaDecomposition, order=DEFAULT_ORDER):
    order = Fraction(order)
    b = d.basis
    out = QSeries.zero(order)
    for (e1, e2), c in zip(b.terms, d.coeffs):
        if c:
            out = out + c * _term_expansion(b.kind, b.ell, e1, e2, order)
    return out


def _matching_exponents(basis, count):
    step = 2 if basis.kind == "even" else 1
    return [step * i for i in range(count)]


def solve_coefficients(basis: BasisSpec, known, surplus_depth=8):
    """Recover decomposition coefficients from leading theta coefficients.

    `known` is a list of (norm, count) pairs.  The first len(terms)
    matching exponents (0, 2, 4, ... for the even shape; 0, 1, 2, ...
    for the general one) feed an exact linear system; any further known
    coefficients up to `surplus_depth` are checked against the solution.
    """
    known_map = {Fraction(m): Fraction(c) for m, c in known}
    t = len(basis.terms)
    exps = _matching_exponents(basis, t)
    missing = [e for e in exps if Fraction(e) not in known_map]
    if missing:
        raise ValueError("need theta coefficients at exponents %s" % missing)
    order = Fraction(max(surplus_depth + 1, exps[-1] + 1))
    cols = [_term_expansion(basis.kind, basis.ell, e1, e2, order)
            for e1, e2 in basis.terms]
    A = [[col.coeff_at(e) for col in cols] for e in exps]
    rhs = [known_map[Fraction(e)] for e in exps]

    _, rows = _scale_to_integers([row + [r] for row, r in zip(A, rhs)])
    _bareiss(rows)
    coeffs = tuple(Fraction(row[t], row[k]) for k, row in enumerate(rows))

    d = ThetaDecomposition(basis, coeffs)
    expansion = expand_decomposition(d, order)
    for e, c in known_map.items():
        if e < order and c != expansion.coeff_at(e):
            raise InconsistentSurplus(
                "solution gives coefficient %s at q^%s but %s was supplied; "
                "wrong level, parity or basis shape for this lattice"
                % (expansion.coeff_at(e), e, c))
    return d


def decomposition_from_fixture(row):
    """ThetaDecomposition for a fixtures.TableRow."""
    basis = build_basis(row.ell, row.dim, row.kind)
    return ThetaDecomposition(basis, tuple(Fraction(c) for c in row.coeffs))


def verify_table(which, order=Fraction(10), oracle_depth=8):
    """Structural checks of a fixture table's decomposition polynomials.

    For each row: constant term 1, non-negative integer coefficients,
    parity (even rows have no odd-exponent terms), and agreement with
    the enumeration oracle where a catalog Gram is shipped.  Returns a
    list of (row name, ok, list of failure messages).
    """
    from . import fixtures, lattice

    table = {1: fixtures.TABLE1, 2: fixtures.TABLE2}[which]
    report = []
    for row in table:
        problems = []
        d = decomposition_from_fixture(row)
        s = expand_decomposition(d, order)
        if s.coeff_at(0) != 1:
            problems.append("constant term %s != 1" % s.coeff_at(0))
        for e, c in s.terms():
            if c.denominator != 1 or c < 0:
                problems.append("coefficient %s at q^%s not a count" % (c, e))
            if row.kind == "even" and e.numerator % 2:
                problems.append("odd-exponent term q^%s in even lattice" % e)
        if row.catalog_name:
            entry = lattice.catalog(row.catalog_name)
            for m, cnt in lattice.theta_coefficients(entry.gram, oracle_depth):
                if m < s.trunc and s.coeff_at(m) != cnt:
                    problems.append("oracle A_%s = %d but expansion has %s"
                                    % (m, cnt, s.coeff_at(m)))
        report.append((row.name, not problems, problems))
    return report
