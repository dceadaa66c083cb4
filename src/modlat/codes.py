"""Linear codes over R = F3 + v*F3 (v^2 = 1) and Construction A.

R is the quotient of Z[sqrt(-2)] by 3; the coset of sqrt(-2) is v.
Conjugation sends v to -v.  A Hermitian self-dual code of length k
lifts through Construction A to an odd 2-modular lattice of dimension
2k after scaling by 1/sqrt(3); its theta series is the code's length
weight enumerator evaluated at four coset theta series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import getitem, mul

from . import theta
from .errors import EnumerationTooLarge
from .lattice import GramMatrix, hnf_basis
from .qseries import DEFAULT_ORDER, QSeries, SeriesMatrix


@dataclass(frozen=True)
class RingElem:
    """Element a + b*v of F3 + v*F3."""
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % 3)
        object.__setattr__(self, "b", self.b % 3)

    def __add__(self, other):
        return RingElem(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return RingElem(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # (a + bv)(c + dv) = (ac + bd) + (ad + bc)v since v^2 = 1
        return RingElem(self.a * other.a + self.b * other.b,
                        self.a * other.b + self.b * other.a)

    def conj(self):
        return RingElem(self.a, -self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def length(self):
        """Minimum algebraic norm over the corresponding coset of Z[sqrt(-2)]."""
        if self.a == 0 and self.b == 0:
            return 0
        if self.b == 0:
            return 1
        if self.a == 0:
            return 2
        return 3

    def __str__(self):
        if self.a == 0 and self.b == 0:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append("v" if self.b == 1 else "2v")
        return "+".join(parts)

    @classmethod
    def parse(cls, s):
        """Parse "0", "1", "2v", "1+v", "2+2v", or an "a,b" pair."""
        s = s.strip()
        if "," in s:
            a, b = s.split(",")
            return cls(int(a), int(b))
        a = b = 0
        for piece in s.replace("-", "+-").split("+"):
            piece = piece.strip()
            if not piece:
                continue
            if piece.endswith("v"):
                coef = piece[:-1]
                b += int(coef) if coef not in ("", "-") else (-1 if coef else 1)
            else:
                a += int(piece)
        return cls(a, b)


ALL_ELEMS = tuple(RingElem(a, b) for a in range(3) for b in range(3))

# The enumeration loops work on the index of an element in ALL_ELEMS,
# 3a + b; these tables are read off RingElem's own arithmetic.
_INDEX = {x: i for i, x in enumerate(ALL_ELEMS)}
_ADD = tuple(tuple(_INDEX[x + y] for y in ALL_ELEMS) for x in ALL_ELEMS)
_MUL = tuple(tuple(_INDEX[x * y] for y in ALL_ELEMS) for x in ALL_ELEMS)
_LENGTH = tuple(x.length() for x in ALL_ELEMS)


@dataclass(frozen=True)
class CodeOverR:
    """Linear code over R given by generator rows of equal length."""
    rows: tuple[tuple[RingElem, ...], ...]

    def __post_init__(self):
        if len({len(row) for row in self.rows}) > 1:
            raise ValueError("generator rows must have equal length")

    @property
    def length(self):
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_pairs(cls, rows):
        return cls(tuple(tuple(RingElem(a, b) for a, b in row)
                         for row in rows))

    @classmethod
    def parse(cls, text):
        """One generator row per line, entries like 0 1 v 2+2v or a,b pairs."""
        rows = []
        for ln in text.splitlines():
            if not ln.strip() or ln.lstrip().startswith("#"):
                continue
            rows.append(tuple(RingElem.parse(tok) for tok in ln.split()))
        return cls(tuple(rows))


def _words(code: CodeOverR, budget):
    """The codewords as tuples of indices into ALL_ELEMS.

    The span is closed one generator row at a time: each word so far is
    added to each distinct nonzero multiple s*row, so dependent rows
    merge as they go.  The budget bounds the 9^m combinations of the
    m rows, as for a product over all scalars.
    """
    m = len(code.rows)
    if 9 ** m > budget:
        raise EnumerationTooLarge("9^%d codeword combinations exceed budget"
                                  % m)
    zero = (0,) * code.length
    words = {zero}
    for row in code.rows:
        row = [_INDEX[x] for x in row]
        multiples = {tuple(_MUL[s][x] for x in row) for s in range(1, 9)}
        multiples.discard(zero)
        new = set(words)
        for u in multiples:
            adders = [_ADD[x] for x in u]
            new.update(tuple(map(getitem, adders, w)) for w in words)
        words = new
    return words


def enumerate_codewords(code: CodeOverR, budget=10 ** 7):
    """All R-linear combinations of the generator rows, deduplicated."""
    return {tuple(map(ALL_ELEMS.__getitem__, w))
            for w in _words(code, budget)}


def length_weight_enumerator(code: CodeOverR, budget=10 ** 7):
    """Map from length composition (n0, n1, n2, n3) to multiplicity."""
    out: dict[tuple[int, int, int, int], int] = {}
    for w in _words(code, budget):
        comp = [0, 0, 0, 0]
        for x in w:
            comp[_LENGTH[x]] += 1
        key = tuple(comp)
        out[key] = out.get(key, 0) + 1
    return out


def lwe_pretty(lwe):
    """Render in the a, b, c, d polynomial notation, compositions sorted."""
    def mono(comp):
        out = []
        for var, e in zip("abcd", comp):
            if e == 1:
                out.append(var)
            elif e > 1:
                out.append("%s^%d" % (var, e))
        return "".join(out) or "1"

    keys = sorted(lwe, key=lambda c: (-c[0], -c[1], -c[2], -c[3]))
    parts = []
    for comp in keys:
        mult = lwe[comp]
        body = mono(comp) if mult == 1 else "%d%s" % (mult, mono(comp))
        parts.append(body)
    return " + ".join(parts)


def check_hermitian_self_dual(code: CodeOverR, budget=10 ** 7):
    """(is_self_dual, certificate).  The certificate names the failure."""
    zero = RingElem(0, 0)
    for i, ri in enumerate(code.rows):
        for j, rj in enumerate(code.rows):
            s = zero
            for x, y in zip(ri, rj):
                s = s + x * y.conj()
            if not s.is_zero():
                return False, ("rows %d and %d have Hermitian inner product %s"
                               % (i, j, s))
    size = len(_words(code, budget))
    if size * size != 9 ** code.length:
        return False, ("|C|^2 = %d != 9^%d" % (size * size, code.length))
    return True, "self-dual: %d codewords, all generator pairs orthogonal" % size


def construction_a_gram(code: CodeOverR, budget=10 ** 7):
    """Gram matrix of the Construction-A lattice, scaled by 1/sqrt(3).

    The preimage of the code in Z[sqrt(-2)]^k is spanned over Z by the
    lifted generator rows, their sqrt(-2) multiples, and 3*O_K^k.  A
    square basis comes from integer Hermite reduction on the (a, b)
    coordinates; the embedding a + b*sqrt(-2) -> (a, b*sqrt(2)) makes
    the quadratic form diag(1, 2) per coordinate, so the Gram is exact.
    """
    ok, cert = check_hermitian_self_dual(code, budget)
    if not ok:
        warnings.warn("code is not Hermitian self-dual (%s); building the "
                      "lattice anyway" % cert, stacklevel=2)
    k = code.length
    rows = []
    for row in code.rows:
        lift = []
        twist = []  # sqrt(-2) * (a + b*sqrt(-2)) = -2b + a*sqrt(-2)
        for x in row:
            a = x.a if x.a <= 1 else x.a - 3  # centered lift
            b = x.b if x.b <= 1 else x.b - 3
            lift += [a, b]
            twist += [-2 * b, a]
        rows.append(lift)
        rows.append(twist)
    for i in range(2 * k):
        e = [0] * (2 * k)
        e[i] = 3
        rows.append(e)
    basis = hnf_basis(rows)
    third = Fraction(1, 3)
    gram = []
    for u in basis:
        grow = []
        for v in basis:
            s = 0
            for t in range(k):
                s += u[2 * t] * v[2 * t] + 2 * u[2 * t + 1] * v[2 * t + 1]
            grow.append(s * third)
        gram.append(grow)
    return GramMatrix(gram)


@lru_cache(maxsize=None)
def coset_theta(length, order=DEFAULT_ORDER):
    """Theta series of the residue classes of Z[sqrt(-2)] mod 3 by length.

    With the 1/sqrt(3) scaling, exponents are (a^2 + 2b^2)/3 over the
    coset representatives: length 0 is the zero coset, 1 the coset of 1,
    2 the coset of sqrt(-2), 3 the coset of 1 + sqrt(-2).
    """
    if length not in (0, 1, 2, 3):
        raise ValueError("length must be 0..3")
    return _coset_thetas(Fraction(order))[int(length)]


@lru_cache(maxsize=None)
def _coset_thetas(order):
    """The four series of `coset_theta` below order, by length, built
    from one set of one-dimensional factors."""
    third = Fraction(1, 3)
    t3_3 = theta.jacobi_theta3(order, 3)        # sum q^{3a^2}
    t6 = theta.jacobi_theta3(order, 6)          # sum q^{6b^2}
    r1 = theta.split_residue_theta(1, third, order)      # sum q^{(3a+1)^2/3}
    r2 = theta.split_residue_theta(1, 2 * third, order)  # sum q^{2(3b+1)^2/3}
    return t3_3 * t6, r1 * t6, t3_3 * r2, r1 * r2


def theta_from_lwe(lwe, order=DEFAULT_ORDER):
    """Substitute the four coset theta series into the enumerator."""
    order = Fraction(order)
    thetas = [coset_theta(l, order) for l in range(4)]
    powers = {}

    def power_of(idx, e):
        if (idx, e) not in powers:
            powers[idx, e] = thetas[idx] ** e
        return powers[idx, e]

    comps = sorted(lwe.items())
    terms = []
    for comp, _ in comps:
        factors = [power_of(idx, e) for idx, e in enumerate(comp) if e]
        terms.append(reduce(mul, factors) if factors else QSeries.one(order))
    return SeriesMatrix.of(terms, order).combine([m for _, m in comps])
