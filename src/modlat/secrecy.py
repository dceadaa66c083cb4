"""Numerical evaluation of theta series and secrecy functions on the
imaginary axis tau = i*y.

The four primitives theta2, theta3, theta4 and eta are summed in
floats here; every other named form is read from `theta.FORMULAS` by
`form_numeric`, so the exact and float paths share one formula.

The secrecy function compares a lattice against the cubic lattice of
the same volume: Xi(y) = theta3(i*sqrt(ell)*y)^n / Theta_Lambda(i*y).
Its value at the symmetry point y = 1/sqrt(ell) is the weak secrecy
gain; the maximum over y is the secrecy gain.  Both are reported here,
the maximum found by golden-section search on the dB axis
y_dB = 10*log10(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TailBoundNotMet
from .lattice import GramMatrix, theta_coefficients
from .modform import ThetaDecomposition
from .theta import FORMULAS

_EPS_DEFAULT = 1e-12


def theta3_numeric(y, scale=1.0):
    """theta3 at tau = i*scale*y: 1 + 2*sum exp(-pi*scale*y*m^2)."""
    a = math.pi * scale * y
    s = 1.0
    m = 1
    while True:
        t = 2.0 * math.exp(-a * m * m)
        s += t
        if t < 1e-18 * s:
            return s
        m += 1


def theta2_numeric(y, scale=1.0):
    a = math.pi * scale * y
    s = 0.0
    m = 0
    while True:
        t = 2.0 * math.exp(-a * (m + 0.5) ** 2)
        s += t
        if t <= 1e-18 * s:  # both 0.0 once exp underflows
            return s
        m += 1


def theta4_numeric(y, scale=1.0):
    a = math.pi * scale * y
    s = 1.0
    m = 1
    while True:
        t = 2.0 * math.exp(-a * m * m)
        s += t if m % 2 == 0 else -t
        if t < 1e-18 * abs(s):
            return s
        m += 1


def eta_numeric(y, scale=1.0):
    a = math.pi * scale * y
    s = math.exp(-a / 12.0)
    m = 1
    while True:
        f = math.exp(-2.0 * a * m)
        s *= 1.0 - f
        if f < 1e-18:
            return s
        m += 1


def form_numeric(name, y):
    """Value at tau = i*y of a named form, read from `theta.FORMULAS`."""
    return FORMULAS[name](y, theta2_numeric, theta3_numeric, theta4_numeric,
                          eta_numeric)


@dataclass(frozen=True)
class ThetaValue:
    value: float
    bound_on_tail: float
    terms_used: int


def eval_decomposition_numeric(d: ThetaDecomposition, y):
    g1, g2 = d.basis.generators
    v1 = form_numeric(g1, y)
    v2 = form_numeric(g2, y)
    total = 0.0
    for (e1, e2), c in zip(d.basis.terms, d.coeffs):
        total += float(c) * v1 ** e1 * v2 ** e2
    # generator evaluators converge to relative 1e-18; powers inflate that
    n = d.basis.n
    return ThetaValue(total, abs(total) * n * 1e-16, 0)


def eval_gram_numeric(gram: GramMatrix, y, eps=_EPS_DEFAULT, budget=10 ** 8):
    """Direct summation over enumerated norms with a geometric tail bound."""
    n = gram.n
    if all(gram.entries[i][j] == (1 if i == j else 0)
           for i in range(n) for j in range(n)):
        # cubic lattice: the one-dimensional theta factorizes
        return ThetaValue(theta3_numeric(y) ** n, 0.0, 0)
    a = math.pi * y
    max_norm = 10
    while True:
        pairs = theta_coefficients(gram, max_norm + 1, budget)
        s = 0.0
        last = (0, 1)
        prev = None
        for m, cnt in pairs:
            if cnt and m <= max_norm:
                s += cnt * math.exp(-a * float(m))
                prev, last = last, (float(m), cnt)
        # ratio test on the last two populated norms
        if prev and prev[1]:
            growth = last[1] / prev[1]
        else:
            growth = 2.0
        r = growth * math.exp(-a * (float(pairs[-1][0]) - last[0]))
        tail_start = sum(cnt * math.exp(-a * float(m))
                         for m, cnt in pairs if m > max_norm)
        if r < 1.0:
            tail = tail_start / (1.0 - r) if tail_start else \
                last[1] * math.exp(-a * (last[0] + 1)) / (1.0 - r)
            if tail < eps * s:
                return ThetaValue(s, tail, len(pairs))
        if max_norm > 200:
            raise TailBoundNotMet(
                "cannot certify tail < %g at y=%g within the budget" % (eps, y))
        max_norm *= 2


def eval_theta_numeric(source, y, eps=_EPS_DEFAULT, budget=10 ** 8):
    """Theta series value at tau = i*y for a decomposition or a Gram."""
    if y <= 0:
        raise ValueError("y must be positive")
    if isinstance(source, ThetaDecomposition):
        return eval_decomposition_numeric(source, y)
    if isinstance(source, GramMatrix):
        return eval_gram_numeric(source, y, eps, budget)
    if isinstance(source, str):
        return ThetaValue(form_numeric(source, y), 0.0, 0)
    raise TypeError("unsupported theta source %r" % (source,))


@dataclass(frozen=True)
class SecrecyEvaluation:
    y: float
    xi: float
    theta_lattice: float
    theta_reference: float
    terms_used: int
    bound_on_tail: float


def _dimension(source, n):
    if n is not None:
        return n
    if isinstance(source, ThetaDecomposition):
        return source.basis.n
    if isinstance(source, GramMatrix):
        return source.n
    raise ValueError("dimension required for this source")


def secrecy_function(source, ell, y, n=None, eps=_EPS_DEFAULT):
    """Xi at tau = i*y: reference theta over lattice theta."""
    n = _dimension(source, n)
    tl = eval_theta_numeric(source, y, eps)
    ref = theta3_numeric(y, math.sqrt(ell)) ** n
    return SecrecyEvaluation(y, ref / tl.value, tl.value, ref,
                             tl.terms_used, tl.bound_on_tail)


def weak_secrecy_gain(source, ell, n=None, eps=_EPS_DEFAULT):
    """Xi at the symmetry point y = 1/sqrt(ell).

    The reference simplifies there: theta3(sqrt(ell)*i/sqrt(ell)) = theta3(i).
    """
    n = _dimension(source, n)
    tl = eval_theta_numeric(source, 1.0 / math.sqrt(ell), eps)
    return theta3_numeric(1.0) ** n / tl.value


def secrecy_curve(source, ell, y_range_db, samples, n=None, eps=_EPS_DEFAULT):
    """Sample Xi on a uniform dB grid; returns a list of (y_dB, xi)."""
    lo, hi = y_range_db
    if not (lo < hi and samples >= 2):
        raise ValueError("need lo < hi and samples >= 2")
    n = _dimension(source, n)
    out = []
    for i in range(samples):
        ydb = lo + (hi - lo) * i / (samples - 1)
        y = 10.0 ** (ydb / 10.0)
        out.append((ydb, secrecy_function(source, ell, y, n, eps).xi))
    return out


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def locate_maximum(source, ell, search_range_db=None, tol_db=1e-5, n=None,
                   eps=_EPS_DEFAULT):
    """Golden-section search for the maximum of Xi on the dB axis.

    Returns (y_star, xi_star) with y_star in linear units.  The default
    range is 3 dB either side of the symmetry point.
    """
    n = _dimension(source, n)
    if search_range_db is None:
        c = 10.0 * math.log10(ell ** -0.5)
        search_range_db = (c - 3.0, c + 3.0)
    a, b = search_range_db

    def f(ydb):
        return secrecy_function(source, ell, 10.0 ** (ydb / 10.0), n, eps).xi

    h = b - a
    c1 = b - _INV_PHI * h
    c2 = a + _INV_PHI * h
    f1, f2 = f(c1), f(c2)
    while h > tol_db:
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            h = b - a
            c1 = b - _INV_PHI * h
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            h = b - a
            c2 = a + _INV_PHI * h
            f2 = f(c2)
    ydb = (a + b) / 2.0
    y = 10.0 ** (ydb / 10.0)
    return y, f(ydb)
