"""Named q-expansions: Jacobi thetas, Dedekind eta, and the basis forms.

See `qseries` for the q = e^{pi*i*tau} convention.  Each named form is
one formula in `FORMULAS` over theta2, theta3, theta4 and eta, and each
of these is one `Primitive`: q^lead * sum_i c_i q^(e_i), its integer
terms ascending from e_0 = 0 (eta's by Euler's pentagonal theorem, as
eta(tau) = q^(1/12) prod_{m >= 1} (1 - q^(2m)) in this nome).  Past the
first term every |c_i| is at most `bound` and every step of e at least
`gap`, so at q = e^-x the terms after the one of exponent e sum in
absolute value to at most bound * q^e * (r + r^2 + ...), r = q^gap,
which is at most bound * q^e / (gap*x) as 1/r - 1 >= gap*x.

Calling a primitive (jacobi_theta2/3/4, eta) reads it exactly, for
`expand`: at argument scale*tau the term of e sits at the exponent
scale*(lead + e), so the terms below the order are written as one dense
integer vector, slot e, on that grid, with no Fraction per term, and
the series is formed from it directly.  A scale <= 0 raises ValueError,
as that grid never reaches the order.
`Primitive.numeric` reads it in floats at tau = i*scale*y, x =
pi*scale*y, for `secrecy.form_numeric`: it sums c_i e^(-x*e_i) until
that tail bound is at most 2^-55 |s| (0 once exp underflows), below
half an ulp of the partial sum s by a factor of two that covers the
bound's own rounding, then multiplies by e^(-x*lead).  A point that
needs over MAX_TERMS terms raises TailBoundNotMet.  The rounding of
the terms and their sum is left to callers (`secrecy._GramTheta`).

Composite forms are memoized per
(name, scale, order); each is cut down from one expansion per name to
an order rounded up to a multiple of ORDER_STEP, so nearby orders share
its integers.  The caches are fill-once and idempotent, so concurrent
reads are safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, count, islice
from operator import mul

from .errors import TailBoundNotMet
from .qseries import DEFAULT_ORDER, QSeries, _count, first_mismatch

#: Most terms a float reading sums, enough down to scale*y of about 1e-6.
MAX_TERMS = 2 ** 12


class Primitive:
    """q^lead * sum_i c_i q^(e_i), read exactly or in floats."""

    def __init__(self, name, lead, gap, bound, terms):
        self.name, self.lead, self.terms = name, lead, terms
        self._num, self._den = Fraction(lead).as_integer_ratio()
        self._stop = bound / gap * 2.0 ** 55
        self._first = float(next(terms())[1])
        self._floats = ()

    def __call__(self, order=DEFAULT_ORDER, scale=Fraction(1)):
        """p(scale*tau) as an exact q-expansion below order."""
        order, scale = Fraction(order), Fraction(scale)
        if scale <= 0:
            raise ValueError("argument scale must be positive")
        # c_e sits at scale*(lead + e) = (start + step*e)/den, slot e
        p, den = scale.numerator, scale.denominator * self._den
        start, step = p * self._num, p * self._den
        ints = [0] * _count(start, step, order, den)
        for e, c in self.terms():
            if e >= len(ints):
                break
            ints[e] += c
        return QSeries._new(den, start, step, ints, Fraction(1), order)

    def numeric(self, y, scale=1.0):
        """p at tau = i*scale*y in floats, truncated below half an ulp."""
        x = math.pi * scale * y
        if not x > 0:
            raise ValueError("scale*y must be positive")
        # stop once bound * q^e / (gap*x) <= 2^-55 |s|
        k = self._stop / x
        exp = math.exp
        while True:
            s = self._first
            for e, c in self._floats:
                t = exp(-x * e)
                s += c * t
                if t * k <= abs(s):
                    return (s * exp(-x * self._num / self._den)
                            if self._num else s)
            size = 2 * len(self._floats) or 32
            if size > MAX_TERMS:
                raise TailBoundNotMet("%s at tau = i*%r*%r needs over %d terms"
                                      % (self.name, scale, y, MAX_TERMS))
            self._floats = tuple((float(e), float(c)) for e, c in
                                 islice(self.terms(), 1, size + 1))


jacobi_theta2 = Primitive("theta2", Fraction(1, 4), 2, 2,  # steps 2m + 2
                          lambda: ((m * m + m, 2) for m in count()))
jacobi_theta3 = Primitive("theta3", 0, 1, 2,  # steps 2m + 1
                          lambda: chain([(0, 1)], ((m * m, 2)
                                                   for m in count(1))))
jacobi_theta4 = Primitive("theta4", 0, 1, 2,
                          lambda: chain([(0, 1)], ((m * m, 2 * (-1) ** m)
                                                   for m in count(1))))
eta = Primitive("eta", Fraction(1, 12), 2, 1,  # steps 2k, 4k + 2
                lambda: chain([(0, 1)], ((k * (3 * k + d), (-1) ** k)
                                         for k in count(1) for d in (-1, 1))))

#: Every named form as one formula over the four primitives.  Each
#: formula takes a point x and the primitives t2, t3, t4, eta, each called
#: as f(x, scale) for f(scale*tau).  `expand` passes the truncation order
#: and the primitives themselves; `secrecy.form_numeric` passes y and
#: their `numeric`, at tau = i*y.  Scales are ints: floats round as
#: with float scales, and the exact caches key as with Fraction scales.
FORMULAS = {
    "theta2": lambda x, t2, t3, t4, eta: t2(x, 1),
    "theta3": lambda x, t2, t3, t4, eta: t3(x, 1),
    "theta4": lambda x, t2, t3, t4, eta: t4(x, 1),
    "eta": lambda x, t2, t3, t4, eta: eta(x, 1),
    "Theta_D4": lambda x, t2, t3, t4, eta:
        (t3(x, 1) ** 4 + t4(x, 1) ** 4) / 2,
    "Delta_16": lambda x, t2, t3, t4, eta: (eta(x, 1) * eta(x, 2)) ** 8,
    "Theta_A2": lambda x, t2, t3, t4, eta:
        t2(x, 2) * t2(x, 6) + t3(x, 2) * t3(x, 6),
    "Delta_12": lambda x, t2, t3, t4, eta: (eta(x, 1) * eta(x, 3)) ** 6,
    # the 8-dim even unimodular lattice; checked against the E8 oracle
    "Theta_E8": lambda x, t2, t3, t4, eta:
        (t2(x, 1) ** 8 + t3(x, 1) ** 8 + t4(x, 1) ** 8) / 2,
    "Delta_24": lambda x, t2, t3, t4, eta: eta(x, 1) ** 24,
    "f1_l2": lambda x, t2, t3, t4, eta: t3(x, 1) * t3(x, 2),
    "Delta_4": lambda x, t2, t3, t4, eta:
        t2(x, 2) ** 2 * t4(x, 1) ** 2 / 4,
}

#: Stable CLI-facing identifiers for every named form.
FORM_NAMES = tuple(FORMULAS)


#: Composite forms are computed to orders rounded up to a multiple of
#: this and cut down, so that nearby orders share one computation and
#: the integer objects of its coefficients.
ORDER_STEP = 16


def _order_bucket(order):
    """The least multiple of ORDER_STEP at or above order."""
    return Fraction(-(-Fraction(order) // ORDER_STEP) * ORDER_STEP)


@lru_cache(maxsize=None)
def _evaluate(name, bucket):
    return FORMULAS[name](bucket, jacobi_theta2, jacobi_theta3,
                          jacobi_theta4, eta)


@lru_cache(maxsize=None)
def expand(name, order=DEFAULT_ORDER, scale=Fraction(1)):
    """q-expansion of a named form at argument scale*tau, correct below order."""
    order, scale = Fraction(order), Fraction(scale)
    if name not in FORMULAS:
        raise KeyError("unknown form %r; known: %s" % (name, ", ".join(FORM_NAMES)))
    if order <= 0:
        raise ValueError("order must be positive")
    x = order / scale
    s = _evaluate(name, _order_bucket(x)).truncate(x)
    return s if scale == 1 else s.scale_argument(scale)


def eta_quotient(numerator_scales, denominator_scales, order=DEFAULT_ORDER):
    """Product of eta(c*tau)^e factors divided by another such product.

    Each argument is a list of (scale, exponent) pairs with positive
    integer exponents.  The division goes through `invert_unit`, which
    costs 2*e0 of truncation where e0 is the denominator's leading
    exponent; the inputs are expanded with that much headroom so the
    result is correct below `order`.
    """
    order = Fraction(order)
    den = [(Fraction(c), int(e)) for c, e in denominator_scales]
    num = [(Fraction(c), int(e)) for c, e in numerator_scales]
    e0 = sum((c * e for c, e in den), Fraction(0)) / 12
    work = order + 2 * e0
    if work <= 0:
        raise ValueError("working order %s must be positive" % work)
    factors = [eta(work, c) ** e for c, e in num]
    if den:
        factors.append(reduce(mul, [eta(work, c) ** e
                                    for c, e in den]).invert_unit())
    return reduce(mul, factors) if factors else QSeries.one(order)


def split_residue_theta(residue, scale=Fraction(1), order=DEFAULT_ORDER):
    """Theta series of the residue classes of Z modulo 3, squared exponents.

    residue 0: sum over m of q^{scale*(3m)^2} = theta3(9*scale*tau);
    residue 1: sum over m of q^{scale*(3m+1)^2}
             = (theta3(scale*tau) - theta3(9*scale*tau)) / 2.
    """
    scale, order = Fraction(scale), Fraction(order)
    if residue not in (0, 1):
        raise ValueError("residue must be 0 or 1")
    if residue == 0:
        return jacobi_theta3(order, 9 * scale)
    return Fraction(1, 2) * (jacobi_theta3(order, scale)
                             - jacobi_theta3(order, 9 * scale))


def verify_theta_eta_identities(order=Fraction(12)):
    """Check the three theta/eta product identities as exact expansions.

    Returns {name: (passed, first mismatching exponent or None)}.
    """
    order = Fraction(order)
    checks = {
        "theta2 = 2*eta(2t)^2/eta(t)": (
            jacobi_theta2(order),
            2 * eta_quotient([(2, 2)], [(1, 1)], order)),
        "theta3 = eta(t)^5/(eta(t/2)^2*eta(2t)^2)": (
            jacobi_theta3(order),
            eta_quotient([(1, 5)], [(Fraction(1, 2), 2), (2, 2)], order)),
        "theta4 = eta(t/2)^2/eta(t)": (
            jacobi_theta4(order),
            eta_quotient([(Fraction(1, 2), 2)], [(1, 1)], order)),
    }
    report = {}
    for name, (lhs, rhs) in checks.items():
        miss = first_mismatch(lhs, rhs)
        report[name] = (miss is None, miss)
    return report
