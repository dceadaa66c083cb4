"""Named q-expansions: Jacobi thetas, Dedekind eta, and the basis forms.

Everything is exact; see `qseries` for the q = e^{pi*i*tau} convention.
Each named form is written once, in `FORMULAS`, as a formula over the
four primitives theta2, theta3, theta4 and eta.  `expand` reads it with
the exact expansions defined here, and `secrecy.form_numeric` reads the
same formula with float evaluators.  Composite forms are memoized per
(name, scale, order); each is cut down from one expansion per name to
an order rounded up to a multiple of ORDER_STEP, so nearby orders share
its integers.  The caches are fill-once and idempotent, so concurrent
reads are safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qseries import DEFAULT_ORDER, QSeries, first_mismatch


def jacobi_theta2(order=DEFAULT_ORDER, scale=Fraction(1)):
    """theta_2(scale*tau): sum over m of q^{scale*(m+1/2)^2}."""
    order, scale = Fraction(order), Fraction(scale)
    terms = []
    m = 0
    while scale * Fraction((2 * m + 1) ** 2, 4) < order:
        terms.append((scale * Fraction((2 * m + 1) ** 2, 4), Fraction(2)))
        m += 1
    return QSeries.from_terms(terms, order)


def jacobi_theta3(order=DEFAULT_ORDER, scale=Fraction(1)):
    """theta_3(scale*tau): sum over m of q^{scale*m^2}."""
    order, scale = Fraction(order), Fraction(scale)
    terms = [(Fraction(0), Fraction(1))]
    m = 1
    while scale * m * m < order:
        terms.append((scale * m * m, Fraction(2)))
        m += 1
    return QSeries.from_terms(terms, order)


def jacobi_theta4(order=DEFAULT_ORDER, scale=Fraction(1)):
    """theta_4(scale*tau): sum over m of (-q)^{scale*m^2}... signs (-1)^m."""
    order, scale = Fraction(order), Fraction(scale)
    terms = [(Fraction(0), Fraction(1))]
    m = 1
    while scale * m * m < order:
        terms.append((scale * m * m, Fraction(2) * (-1) ** m))
        m += 1
    return QSeries.from_terms(terms, order)


def eta(order=DEFAULT_ORDER, scale=Fraction(1)):
    """Dedekind eta(scale*tau) = q^{scale/12} * sum_k (-1)^k q^{scale*k(3k-1)}.

    In this nome eta(tau) = q^{1/12} * prod_{m >= 1} (1 - q^{2m}), and
    Euler's pentagonal number theorem expands the product as the sum
    over all integers k of (-1)^k q^{k(3k-1)}: twice the generalized
    pentagonal numbers 0, 1, 2, 5, 7, 12, 15, ... carry the coefficients
    +-1 and every other exponent 0.  So each term is read off directly,
    with no product at all.  The exponents for k and -k are
    scale*k(3k-1) < scale*k(3k+1), both below the next k's.
    """
    order, scale = Fraction(order), Fraction(scale)
    shift = scale / 12
    terms = []
    k = 0
    while shift + scale * k * (3 * k - 1) < order:
        sign = (-1) ** k
        terms.append((shift + scale * k * (3 * k - 1), sign))
        if k:
            terms.append((shift + scale * k * (3 * k + 1), sign))
        k += 1
    return QSeries.from_terms(terms, order)


#: Every named form as one formula over the four primitives.  Each
#: formula takes a point x and the primitives t2, t3, t4, eta, each called
#: as f(x, scale) for f(scale*tau).  `expand` passes the truncation order
#: and the exact expansions below; `secrecy.form_numeric` passes y and
#: the float evaluators at tau = i*y.  Scales are ints: floats round as
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
    p = QSeries.one(work)
    for c, e in num:
        p = p * eta(work, c) ** e
    d = QSeries.one(work)
    for c, e in den:
        d = d * eta(work, c) ** e
    return p * d.invert_unit()


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
