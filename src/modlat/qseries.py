"""Exact arithmetic on truncated q-expansions with fractional exponents.

Convention used throughout the package: the nome is q = e^{pi*i*tau}
(NOT e^{2*pi*i*tau}), so the exponent of q in a lattice theta series is
the squared norm directly.  Many references use the other convention;
every expansion in this package uses this one.

A series is stored sparsely as a map from integer numerators n to exact
rational coefficients, the term being coeff * q^(n/den).  All terms with
exponent < trunc are correct; terms at or above trunc are dropped.
Exponents are non-negative except for the single downward shift that
`invert_unit` may introduce.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvertible, QueryBeyondTruncation

#: Default truncation order: coefficients through q^15 are kept.  Enough
#: to solve every coefficient system shipped here (at most 5 unknowns)
#: with slack for surplus verification.
DEFAULT_ORDER = Fraction(16)


class QSeries:
    """Immutable truncated q-expansion with exact rational coefficients."""

    __slots__ = ("den", "coeffs", "trunc")

    def __init__(self, den, coeffs, trunc):
        trunc = Fraction(trunc)
        clean = {int(n): Fraction(c) for n, c in coeffs.items() if c}
        den = int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        if clean:
            g = den
            for n in clean:
                g = gcd(g, abs(n))
                if g == 1:
                    break
            if g > 1:
                clean = {n // g: c for n, c in clean.items()}
                den //= g
        else:
            den = 1
        for n in clean:
            if Fraction(n, den) >= trunc:
                raise ValueError("stored exponent %s/%s >= truncation %s"
                                 % (n, den, trunc))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *_):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as slot
        # assignment is refused
        return QSeries, (self.den, self.coeffs, self.trunc)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc=DEFAULT_ORDER):
        return cls(1, {}, trunc)

    @classmethod
    def one(cls, trunc=DEFAULT_ORDER):
        return cls(1, {0: 1}, trunc)

    @classmethod
    def from_terms(cls, terms, trunc=DEFAULT_ORDER):
        """Build from an iterable of (exponent, coefficient) pairs."""
        trunc = Fraction(trunc)
        exps = [(Fraction(e), Fraction(c)) for e, c in terms]
        den = 1
        for e, _ in exps:
            den = lcm(den, e.denominator)
        coeffs: dict[int, Fraction] = {}
        for e, c in exps:
            if e >= trunc:
                continue
            n = e.numerator * (den // e.denominator)
            coeffs[n] = coeffs.get(n, Fraction(0)) + c
        return cls(den, coeffs, trunc)

    # -- queries ------------------------------------------------------

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs."""
        return [(Fraction(n, self.den), c)
                for n, c in sorted(self.coeffs.items())]

    def coeff_at(self, exponent):
        exponent = Fraction(exponent)
        if exponent >= self.trunc:
            raise QueryBeyondTruncation(
                "exponent %s >= truncation order %s" % (exponent, self.trunc))
        if (exponent * self.den).denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(exponent * self.den), Fraction(0))

    def leading_exponent(self):
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.den)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.den == other.den and self.trunc == other.trunc
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.den, self.trunc, frozenset(self.coeffs.items())))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        t = min(self.trunc, other.trunc)
        out: dict[int, Fraction] = {}
        for s in (self, other):
            f = d // s.den
            for n, c in s.coeffs.items():
                m = n * f
                if Fraction(m, d) < t:
                    out[m] = out.get(m, Fraction(0)) + c
        return QSeries(d, out, t)

    def __neg__(self):
        return QSeries(self.den, {n: -c for n, c in self.coeffs.items()},
                       self.trunc)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, c):
        c = Fraction(c)
        return QSeries(self.den, {n: c * v for n, v in self.coeffs.items()},
                       self.trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(1 / Fraction(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        d = lcm(self.den, other.den)
        # Conservative truncation: the product is only claimed below the
        # smaller of the two input orders.
        t = min(self.trunc, other.trunc)
        limit = t * d  # keep numerators with m < limit
        fa = d // self.den
        fb = d // other.den
        a = [(n * fa, c) for n, c in self.coeffs.items()]
        b = sorted((n * fb, c) for n, c in other.coeffs.items())
        out: dict[int, Fraction] = {}
        for na, ca in a:
            for nb, cb in b:
                m = na + nb
                if m >= limit:
                    break
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return QSeries(d, out, t)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = QSeries.one(self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale_argument(self, c):
        """Realize tau -> c*tau: every exponent e becomes c*e."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("argument scale must be positive")
        d = self.den * c.denominator
        out = {n * c.numerator: v for n, v in self.coeffs.items()}
        return QSeries(d, out, self.trunc * c)

    def invert_unit(self):
        """Multiplicative inverse modulo truncation.

        A leading monomial q^{e0} is handled by an exponent shift, so
        the inverse may contain negative exponents.  The truncation
        order of the result is trunc - 2*e0.
        """
        if not self.coeffs:
            raise NotInvertible("cannot invert the zero series")
        d = self.den
        n0 = min(self.coeffs)
        e0 = Fraction(n0, d)
        # Shifted series u = q^{-e0} * self is a unit known below trunc - e0.
        slots = (self.trunc - e0) * d
        nslots = int(slots) if slots.denominator == 1 else int(slots) + 1
        u = [Fraction(0)] * nslots
        for n, c in self.coeffs.items():
            u[n - n0] = c
        inv0 = 1 / u[0]
        v = [Fraction(0)] * nslots
        v[0] = inv0
        support = [k for k in range(1, nslots) if u[k]]
        for n in range(1, nslots):
            acc = Fraction(0)
            for k in support:
                if k > n:
                    break
                if v[n - k]:
                    acc += u[k] * v[n - k]
            if acc:
                v[n] = -acc * inv0
        new_trunc = self.trunc - 2 * e0
        out = {n - n0: c for n, c in enumerate(v)
               if c and Fraction(n - n0, d) < new_trunc}
        return QSeries(d, out, new_trunc)

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {
            "den": self.den,
            "trunc": str(self.trunc),
            "terms": [[n, str(c)] for n, c in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["den"], {int(n): Fraction(c) for n, c in d["terms"]},
                   Fraction(d["trunc"]))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_text(self):
        lines = ["qseries den=%d trunc=%s" % (self.den, self.trunc)]
        for n, c in sorted(self.coeffs.items()):
            lines.append("%d %s" % (n, c))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if head[0] != "qseries":
            raise ValueError("not a qseries text block")
        fields = dict(f.split("=", 1) for f in head[1:])
        coeffs = {}
        for ln in lines[1:]:
            n, c = ln.split()
            coeffs[int(n)] = Fraction(c)
        return cls(int(fields["den"]), coeffs, Fraction(fields["trunc"]))

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                body = str(c)
            else:
                if e == 1:
                    mono = "q"
                elif e.denominator == 1:
                    mono = "q^%d" % e
                else:
                    mono = "q^(%s)" % e
                mag = abs(c)
                body = mono if mag == 1 else "%s%s" % (mag, mono)
                if c < 0:
                    body = "-" + body
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "QSeries(%s, trunc=%s)" % (self, self.trunc)


def first_mismatch(a: QSeries, b: QSeries):
    """Smallest exponent below the common truncation where a and b differ.

    Returns None if they agree on all shared exponents.
    """
    t = min(a.trunc, b.trunc)
    d = lcm(a.den, b.den)
    fa, fb = d // a.den, d // b.den
    keys = ({n * fa for n in a.coeffs} | {n * fb for n in b.coeffs})
    for n in sorted(keys):
        e = Fraction(n, d)
        if e >= t:
            break
        if a.coeff_at(e) != b.coeff_at(e):
            return e
    return None
