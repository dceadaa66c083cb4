"""Exact arithmetic on truncated q-expansions with fractional exponents.

Convention used throughout the package: the nome is q = e^{pi*i*tau}
(NOT e^{2*pi*i*tau}), so the exponent of q in a lattice theta series is
the squared norm directly.  Many references use the other convention;
every expansion in this package uses this one.

A series is stored densely, as one tuple of integers and one rational
scale: the term at q^((start + step*i)/den) is scale * ints[i].  All
terms with exponent < trunc are correct; terms at or above trunc are
dropped.  Exponents are non-negative except for the single downward
shift that `invert_unit` may introduce, which is why `start` may be
negative.  The form is canonical, so equal series have equal fields:
den is the least grid of the nonzero terms, step the gcd of their
offsets from the first one (1 for a single term), the first and last
integers are nonzero, and the integers are coprime with the first one
positive.  Every form shipped here is integral up to a scale of 1/2,
1/4 or 1/12, and the stride keeps sparse ones small: eta(tau) =
q^(1/12)(1 - q^2 - q^4 + q^10 + ...) holds one integer per 24 twelfths.

The constructors of the exact paths build these fields from integers:
a primitive of `theta` writes its integer vector directly, `one` and
`zero` are formed without a coefficient dict, the slot counts below a
truncation (`_count`) are integer divisions, and the serialised
rationals are read by `_rational`, which bypasses the regular
expression of Fraction(str) for the integers and n/d that str writes.

Products go by Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009): each
integer vector is packed into one Python integer, slot i holding entry
i in a field wide enough for every coefficient of the product, the two
integers are multiplied once, and the low slots are read back.  A slot
is 1, 2, 4 or 8 bytes, the item sizes of the signed `array` typecodes
(each typecode is chosen by its `itemsize`, not by its name), so a
vector is packed, and the product read back, in one C call each; the
array bytes are byteswapped on a big-endian host, so the packed integer
is the same everywhere.  Python ints are unbounded, so a product may
need slots wider than 8 bytes, which no typecode holds; those are
converted one coefficient at a time.  Sums are matrix-vector products
over a `SeriesMatrix`, the summands as the columns of one integer
matrix on a common grid.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .errors import NotInvertible, QueryBeyondTruncation

#: Default truncation order: coefficients through q^15 are kept.  Enough
#: to solve every coefficient system shipped here (at most 5 unknowns)
#: with slack for surplus verification.
DEFAULT_ORDER = Fraction(16)

_FIELDS = ("den", "start", "step", "ints", "scale", "trunc")


def _count(start, step, trunc, den):
    """Number of i >= 0 with (start + step*i)/den < trunc, in integers."""
    n, d = trunc.numerator, trunc.denominator
    return max(-((start * d - n * den) // (step * d)), 0)


def _rational(s):
    """Fraction(s), read without Fraction's regular expression when s is
    an integer or n/d in ASCII digits, as str writes a Fraction."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
                not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den)) if slash else \
                Fraction(int(num))
    return Fraction(s)


def _spread(ints, f):
    """The vector with f - 1 zeros between consecutive entries."""
    if f == 1 or len(ints) < 2:
        return ints
    out = [0] * ((len(ints) - 1) * f + 1)
    out[::f] = ints
    return out


def _bias(width, count):
    """The integer with 2^(8*width - 1) in each of `count` slots of `width`
    bytes: adding it makes every signed slot value non-negative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


#: (slot bytes, typecode) for a slot of 0..8 bytes: the signed array
#: typecode of the least item size that holds it, read from the platform.
_SLOTS = tuple(min((array(code).itemsize, code) for code in "qlihb"
                   if array(code).itemsize >= width) for width in range(9))

#: array writes native byte order; slots are packed little-endian.
_SWAP = sys.byteorder == "big"


def _slot(bits):
    """(width, typecode) of a slot of at least `bits` bits: 1, 2, 4 or 8
    bytes with a typecode, or the least whole number of bytes past 8 and
    None."""
    width = (bits + 7) // 8
    return _SLOTS[width] if width <= 8 else (width, None)


def _pack(v, width, code, bias):
    """sum_i v[i] * 2^(8*width*i), for |v[i]| < 2^(8*width - 1), with
    `bias` (`_bias`) of at least len(v) slots."""
    if code:
        items = array(code, v)
        if _SWAP:
            items.byteswap()
        buf = items.tobytes()
    else:
        buf = b"".join([x.to_bytes(width, "little", signed=True) for x in v])
    # a two's complement slot x mod 2^w with its top bit flipped is
    # x + 2^(w-1), so raw ^ bias = packed + bias; a slot past v is 0 in
    # raw and in the difference
    raw = int.from_bytes(buf, "little")
    return (raw ^ bias) - bias


def _unpack(buf, width, code):
    """The signed little-endian slots of `width` bytes in buf."""
    if code:
        items = array(code, buf)
        if _SWAP:
            items.byteswap()
        return items.tolist()
    return [int.from_bytes(buf[i:i + width], "little", signed=True)
            for i in range(0, len(buf), width)]


def _product(a, b, m):
    """The first m coefficients of the product of integer vectors a and b.

    Every coefficient of the product is at most min(len a, len b) *
    max|a| * max|b| in absolute value, so slots of that many bits plus
    a sign bit hold each one exactly.  A slot is widened to 1, 2, 4 or 8
    bytes, the item sizes of `array`, so each vector is packed and the
    product read back in one conversion, the bytes swapped to little-
    endian on a big-endian host.  A slot past 8 bytes, needed only when
    the inputs are that large, has no typecode and is converted one
    entry at a time.  The packed integers are multiplied once; the low m
    slots are shifted to non-negative values by the bias, so no slot
    borrows from the next, and read back signed.
    """
    square = a is b
    a = a[:m]
    b = a if square else b[:m]
    width, code = _slot(max(map(abs, a)).bit_length()
                        + max(map(abs, b)).bit_length()
                        + min(len(a), len(b)).bit_length() + 1)
    # a and b have at most m entries, so one bias of m slots serves all
    bias = _bias(width, m)
    pa = _pack(a, width, code, bias)
    c = pa * (pa if square else _pack(b, width, code, bias))
    size = width * m
    return _unpack((((c + bias) & ((1 << 8 * size) - 1)) ^ bias)
                   .to_bytes(size, "little"), width, code)


def _inverse(u, m):
    """The first m coefficients of 1/u for an integer vector u, u[0] = 1.

    Newton's iteration v <- v - v*(u*v - 1) doubles the number of
    correct coefficients per step; u*v - 1 vanishes below the old length
    h, so only its part from h on is multiplied.
    """
    v = [1]
    while len(v) < m:
        h = len(v)
        k = min(2 * h, m)
        e = _product(u, v, k)[h:]
        v += [-x for x in _product(v, e, k - h)] if any(e) else [0] * (k - h)
    return v


class QSeries:
    """Immutable truncated q-expansion with exact rational coefficients."""

    __slots__ = _FIELDS

    def __init__(self, den, coeffs, trunc):
        """Series with the coefficient coeffs[n] at q^(n/den), below trunc."""
        trunc = Fraction(trunc)
        den = int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        clean = {}
        for n, c in coeffs.items():
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if c:
                clean[int(n)] = c
        # n/den >= trunc, in integers
        top, bottom = trunc.numerator * den, trunc.denominator
        for n in clean:
            if n * bottom >= top:
                raise ValueError("stored exponent %s/%s >= truncation %s"
                                 % (n, den, trunc))
        start = min(clean, default=0)
        step = gcd(*(n - start for n in clean)) or 1
        ints = [0] * ((max(clean) - start) // step + 1 if clean else 0)
        common = lcm(*(c.denominator for c in clean.values()))
        for n, c in clean.items():
            ints[(n - start) // step] = c.numerator * (common // c.denominator)
        self._init(den, start, step, ints, Fraction(1, common), trunc)

    @classmethod
    def _new(cls, den, start, step, ints, scale, trunc):
        """The series scale * sum ints[i] q^((start + step*i)/den) below
        trunc; every entry must lie below trunc."""
        s = object.__new__(cls)
        s._init(den, start, step, ints, scale, trunc)
        return s

    def _init(self, den, start, step, ints, scale, trunc):
        """Set the canonical fields (see the module docstring)."""
        lo, hi = 0, len(ints)
        while hi and not ints[hi - 1]:
            hi -= 1
        while lo < hi and not ints[lo]:
            lo += 1
        if lo == hi:
            den, start, step, ints, scale = 1, 0, 1, (), Fraction(1)
        else:
            if hi - lo < len(ints):
                ints = ints[lo:hi]
            start += step * lo
            g = gcd(*ints)
            if ints[0] < 0:
                g = -g
            if g != 1:
                ints = [x // g for x in ints]
                scale *= g
            # k = 0 for a single term, whose exponent alone fixes den
            k = gcd(*compress(range(len(ints)), ints))
            if k > 1:
                ints = ints[::k]
            step *= k
            g = gcd(den, start, step)
            den, start, step = den // g, start // g, step // g or 1
        for name, value in zip(_FIELDS, (den, start, step, tuple(ints),
                                         scale, trunc)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the fields, as slot assignment is
        # refused
        return QSeries._new, tuple(getattr(self, f) for f in _FIELDS)

    def _stride(self, d):
        """The step on the 1/d grid, 0 for at most one term."""
        return self.step * (d // self.den) if len(self.ints) > 1 else 0

    def _grid(self, d, g):
        """(start, integers) on the lattice of exponents (start + g*i)/d,
        for d a multiple of den and g a divisor of the stride."""
        return self.start * (d // self.den), _spread(self.ints,
                                                      self._stride(d) // g)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc=DEFAULT_ORDER):
        return cls._new(1, 0, 1, (), Fraction(1), Fraction(trunc))

    @classmethod
    def one(cls, trunc=DEFAULT_ORDER):
        trunc = Fraction(trunc)
        if trunc.numerator <= 0:
            raise ValueError("stored exponent 0/1 >= truncation %s" % trunc)
        return cls._new(1, 0, 1, (1,), Fraction(1), trunc)

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

    @property
    def coeffs(self):
        """The nonzero terms, {n: coefficient at q^(n/den)}, n ascending."""
        a, b = self.scale.numerator, self.scale.denominator
        start, step = self.start, self.step
        return {start + step * i: Fraction(a * c, b)
                for i, c in compress(enumerate(self.ints), self.ints)}

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs."""
        return [(Fraction(n, self.den), c) for n, c in self.coeffs.items()]

    def coeff_at(self, exponent):
        exponent = Fraction(exponent)
        if exponent >= self.trunc:
            raise QueryBeyondTruncation(
                "exponent %s >= truncation order %s" % (exponent, self.trunc))
        # exponent = (start + step*i)/den, i an integer in range
        e, f = exponent.numerator, exponent.denominator
        i, r = divmod(e * self.den - self.start * f, self.step * f)
        if r or not 0 <= i < len(self.ints):
            return Fraction(0)
        return self.scale * self.ints[i]

    def leading_exponent(self):
        if not self.ints:
            return None
        return Fraction(self.start, self.den)

    def is_zero(self):
        return not self.ints

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in _FIELDS))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return SeriesMatrix.of((self, other)).combine((1, 1))

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return SeriesMatrix.of((self, other)).combine((1, -1))

    def scalar_mul(self, c):
        c = Fraction(c)
        if not c:
            return QSeries.zero(self.trunc)
        return QSeries._new(self.den, self.start, self.step, self.ints,
                            self.scale * c, self.trunc)

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
        # Conservative truncation: the product is only claimed below the
        # smaller of the two input orders.
        t = min(self.trunc, other.trunc)
        if not self.ints or not other.ints:
            return QSeries.zero(t)
        # both factors on the coarsest lattice (start + g*i)/d of each
        d = lcm(self.den, other.den)
        g = gcd(self._stride(d), other._stride(d)) or 1
        sa, a = self._grid(d, g)
        sb, b = (sa, a) if other is self else other._grid(d, g)
        m = _count(sa + sb, g, t, d)  # product slots below t
        if not m:
            return QSeries.zero(t)
        return QSeries._new(d, sa + sb, g, _product(a, b, m),
                            self.scale * other.scale, t)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not e:
            return QSeries.one(self.trunc)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def truncate(self, trunc):
        """The same series known only below trunc <= self.trunc."""
        trunc = Fraction(trunc)
        if trunc > self.trunc:
            raise ValueError("truncation %s beyond %s" % (trunc, self.trunc))
        k = _count(self.start, self.step, trunc, self.den)
        return QSeries._new(self.den, self.start, self.step, self.ints[:k],
                            self.scale, trunc)

    def scale_argument(self, c):
        """Realize tau -> c*tau: every exponent e becomes c*e."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("argument scale must be positive")
        p = c.numerator
        return QSeries._new(self.den * c.denominator, self.start * p,
                            self.step * p, self.ints, self.scale,
                            self.trunc * c)

    def invert_unit(self):
        """Multiplicative inverse modulo truncation.

        A leading monomial q^{e0} is handled by an exponent shift, so
        the inverse may contain negative exponents.  The truncation
        order of the result is trunc - 2*e0.  With c the leading integer,
        u(x) = c * w(x/c) for the integer series w(x) = u(c*x)/c, whose
        leading coefficient is 1, so 1/u has the coefficients
        (1/w)_i / c^(i+1).
        """
        if not self.ints:
            raise NotInvertible("cannot invert the zero series")
        d, n0, step = self.den, self.start, self.step
        m = _count(n0, step, self.trunc, d)  # slots of the unit q^{-e0}*self
        u = list(self.ints[:m])
        c = u[0]
        scale = 1 / self.scale
        if c != 1:
            power = 1
            for i in range(1, len(u)):
                u[i] *= power
                power *= c
            u[0] = 1
        v = _inverse(u, m)
        if c != 1:
            power = 1
            for i in range(m - 1, -1, -1):
                v[i] *= power
                power *= c
            scale /= power
        return QSeries._new(d, -n0, step, v, scale,
                            self.trunc - 2 * Fraction(n0, d))

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {
            "den": self.den,
            "trunc": str(self.trunc),
            "terms": [[n, str(c)] for n, c in self.coeffs.items()],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["den"], {int(n): _rational(c) for n, c in d["terms"]},
                   _rational(d["trunc"]))

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_text(self):
        lines = ["qseries den=%d trunc=%s" % (self.den, self.trunc)]
        for n, c in self.coeffs.items():
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
            coeffs[int(n)] = _rational(c)
        return cls(int(fields["den"]), coeffs, _rational(fields["trunc"]))

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.ints:
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


class SeriesMatrix(NamedTuple):
    """Series as the columns of one integer matrix on a common lattice.

    Row i holds the exponent (start + step*i)/den, for every exponent of
    the lattice below trunc from the least leading exponent on; series j
    is scales[j] times column j.  A linear combination of the series is
    one matrix-vector product, `combine`.
    """

    den: int
    start: int
    step: int
    trunc: Fraction
    scales: tuple
    columns: tuple

    @classmethod
    def of(cls, series, trunc=None):
        """The matrix of `series` below trunc, by default the least
        truncation among them."""
        trunc = (min(s.trunc for s in series) if trunc is None
                 else Fraction(trunc))
        d = lcm(*(s.den for s in series))
        starts = [s.start * (d // s.den) for s in series if s.ints]
        start = min(starts, default=0)
        g = gcd(*(s._stride(d) for s in series),
                *(st - start for st in starts)) or 1
        rows = _count(start, g, trunc, d)
        columns = []
        for s in series:
            col = []
            if s.ints:
                st, v = s._grid(d, g)
                col = [0] * ((st - start) // g) + list(v)
            columns.append(tuple(col[:rows] + [0] * (rows - len(col))))
        return cls(d, start, g, trunc, tuple(s.scale for s in series),
                   tuple(columns))

    def row(self, exponent):
        """The integers of every column at q^exponent: series j has the
        coefficient scales[j] * row[j] there."""
        exponent = Fraction(exponent)
        if exponent >= self.trunc:
            raise QueryBeyondTruncation(
                "exponent %s >= truncation order %s" % (exponent, self.trunc))
        k = exponent * self.den
        i, r = divmod(k.numerator - self.start, self.step)
        if k.denominator != 1 or r or i < 0:
            return [0] * len(self.columns)
        return [col[i] for col in self.columns]

    def combine(self, weights, trunc=None):
        """sum_j weights[j] * series j, as a QSeries below trunc, by
        default the matrix's own (a trunc above it is not allowed)."""
        trunc = self.trunc if trunc is None else Fraction(trunc)
        if trunc > self.trunc:
            raise ValueError("truncation %s beyond the matrix's %s"
                             % (trunc, self.trunc))
        # weight times scale as (numerator, denominator), unreduced
        w = [(s.numerator * c.numerator, s.denominator * c.denominator)
             for c, s in zip(weights, self.scales)]
        common = lcm(*(d for _, d in w))
        rows = _count(self.start, self.step, trunc, self.den)
        out = [0] * rows
        for (n, d), col in zip(w, self.columns):
            if n:
                k = n * (common // d)
                out = list(map(add, out, map(mul, col[:rows], repeat(k))))
        return QSeries._new(self.den, self.start, self.step, out,
                            Fraction(1, common), trunc)


def first_mismatch(a: QSeries, b: QSeries):
    """Smallest exponent below the common truncation where a and b differ.

    Returns None if they agree on all shared exponents.
    """
    return (a - b).leading_exponent()
