"""Numerical evaluation of theta series and secrecy functions on the
imaginary axis tau = i*y.

`form_numeric` reads a named form from `theta.FORMULAS` with the float
reading of the primitives there, so the exact and float paths share
one formula and one series per primitive.

Every entry point reads Theta_L through one reader, `_theta`, which
picks the route once per call, in this order, and reports it as
`route` in `ThetaValue` and `SecrecyEvaluation`:
  1. a ThetaDecomposition over its level's basis, the paper's own
     method, is read as given ("decomposition");
  2. an even Gram of level ell in {1, 2, 3} and determinant ell^(n/2)
     whose theta series lies in the span of its level's even basis is
     read from the decomposition that `modform.certified_decomposition`
     proves from its counts up to the Sturm bound ("closed_form");
  3. the identity Gram is read as theta3^n, with a proven bound
     ("theta3_product");
  4. every other Gram takes the primal/dual count sums below ("primal"
     or "dual").
`eval_gram_numeric` takes steps 3 and 4 only.  Each reader gives the
float alone, `read(y)`, beside the ThetaValue, `value(y)`.  A curve, a
maximum search and the weak secrecy gain read bare floats and build no
SecrecyEvaluation; on a closed form they build no ThetaValue either
(the count sums' `read` is `value(y).value`).  A decomposition's reader
converts its coefficients to floats once and evaluates only the
generators that its terms raise to a nonzero power, so a power of
Theta_A2, Theta_D4 or Theta_E8 alone never evaluates its Delta.

The theta series of a Gram G (LDL^T diagonal d) is summed from exact
norm counts A_m with a proven tail bound.  The Fincke-Pohst count gives
N(t) <= P(t) = prod_j (2*sqrt(t/d_j) + 1) vectors of norm <= t, so by
Stieltjes integration the terms past a cutoff R sum to at most
a * int_R^oo (P(t) - 1) e^(-a*t) dt at the rate a = pi*y.  The Poisson
(Jacobi) identity Theta_L(iy) = det(G)^(-1/2) y^(-n/2) Theta_L*(i/y)
gives a second sum, over the dual lattice with Gram G^-1 at the rate
pi/y.  Each y takes the side whose box count P(R) at its own smallest
certifying cutoff R is smaller (the primal on a tie), so far below the
symmetry point the dual is summed.  The cutoffs are fixed before
anything is enumerated, and a curve or a maximum search enumerates each
side once, to the deepest cutoff its points need.  The choice of side
is monotone in y, so a call plans both sides only at the points of a
bisection for the switch from the dual to the primal; every other point
takes its side from the bracket found and computes that side's cutoff
alone, and the tail bound found with the cutoff is the one reported.
The box polynomials, det(G)^(-1/2) and whether G is the identity are
computed once per Gram.  The counts are read as integers per integer
norm q of the Gram scaled by the lcm s of its denominators, each norm
q/s rounded once to a float, with no `Fraction` per norm
(`lattice._norm_counts`).

The secrecy function compares a lattice against the cubic lattice of
the same volume: Xi(y) = theta3(i*sqrt(ell)*y)^n / Theta_Lambda(i*y).
Its value at the symmetry point y = 1/sqrt(ell) is the weak secrecy
gain; the maximum over y is the secrecy gain.  Both are reported here,
the maximum found by golden-section search on the dB axis
y_dB = 10*log10(y).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .errors import TailBoundNotMet
from .lattice import DEFAULT_BUDGET, GramMatrix, _dual_gram, _norm_counts
from .modform import ThetaDecomposition, certified_decomposition
from .theta import FORMULAS, eta, jacobi_theta2, jacobi_theta3, jacobi_theta4

_EPS_DEFAULT = 1e-12


#: The primitives at tau = i*scale*y, in floats (`theta.Primitive.numeric`).
_theta2, theta3_numeric, _theta4, _eta = (
    jacobi_theta2.numeric, jacobi_theta3.numeric, jacobi_theta4.numeric,
    eta.numeric)


def _checked_y(y):
    """ValueError unless y is above 0.  Each entry point at given points
    calls this once, before `_theta`; a curve's or a search's points are
    checked by `_linear`."""
    if not y > 0:
        raise ValueError("y must be positive")


def form_numeric(name, y):
    """Value at tau = i*y of a named form, read from `theta.FORMULAS`."""
    return FORMULAS[name](y, _theta2, theta3_numeric, _theta4, _eta)


@dataclass(frozen=True)
class ThetaValue:
    value: float
    bound_on_tail: float
    terms_used: int
    #: "decomposition", "closed_form" (a Gram's certified decomposition),
    #: "theta3_product" (the identity Gram as theta3^n), or "primal" or
    #: "dual" (a Gram's enumerated side); picked by `_theta`
    route: str = "decomposition"


def eval_decomposition_numeric(d: ThetaDecomposition, y):
    """Theta at i*y from a decomposition over its basis generators, read
    by `_decomposition`: only the generators its terms use are evaluated.

    `bound_on_tail` is n * 1e-16 * |value|, an estimate of the rounding
    error, not a proven bound, and it is exceeded: against 50-digit mpmath
    at the symmetry point, by up to 3.9x on Table 1/2 rows (L24.2; HS20
    3.5x, BW16 3.1x), and by 4.2x (L24.2) at the float y itself.
    """
    return _decomposition(d, "decomposition").value(y)


#: Largest cutoff R either side of the Poisson identity may take.  A
#: request that no R up to it certifies on either side raises
#: TailBoundNotMet before anything is enumerated.
MAX_CUTOFF = 200

#: Factor on every computed tail bound.  The bound is a sum of positive
#: terms, each a product of a few library results (exp, erfc, pow) that
#: are correct to a few ulps, so its relative rounding error is far below
#: 1e-9 and the factor keeps it an upper bound.
_ROUND_UP = 1.0 + 1e-9

_SQRT_PI = math.sqrt(math.pi)


def _gamma(k):
    """Higham's gamma_k = k*u / (1 - k*u), u = 2^-53 the unit roundoff."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


@lru_cache(maxsize=256)
def _constants(gram):
    """(c of the primal side, c of the dual side, det(G)^(-1/2), whether
    G is the identity) for `_Side` and `_theta`.

    They depend on the Gram alone, so they are memoized, as the
    certificates are (`modform.certified_decomposition`).
    """
    n = gram.n
    sides = []
    for dual in (False, True):
        c = [1.0]
        for x in gram.ldl[1]:
            r = math.sqrt(float(x))
            b = 2.0 * r if dual else 2.0 / r
            c = [u + b * v for u, v in zip(c + [0.0], [0.0] + c)]
        sides.append(tuple(c))
    cubic = all(gram.entries[i][j] == (i == j)
                for i in range(n) for j in range(n))
    return sides[0], sides[1], float(gram.determinant()) ** -0.5, cubic


class _Side:
    """One side of Theta_L(iy) = w(y) * sum_m A_m exp(-a(y) * m).

    The primal side sums the norm counts of L with w = 1 and a = pi*y; the
    dual side those of L*, whose Gram is G^-1, with w = det(G)^(-1/2) *
    y^(-n/2) and a = pi/y.  With d the diagonal of the exact LDL^T of G,
    `c` holds the coefficients of the box count P(t) = prod_j (1 +
    b_j*sqrt(t)) = sum_k c_k t^(k/2), where b_j = 2/sqrt(d_j) for L and
    2*sqrt(d_j) for L* (see `_dual_gram`).  P(t) bounds the number of
    vectors of norm <= t in any basis order; it is the box of the given
    order, so the cutoffs do not depend on the reduced basis that
    `theta_coefficients` searches in, whose tree it does not describe.
    The counts are read as integers, with each norm rounded once to a
    float (`lattice._norm_counts`).
    """

    def __init__(self, gram, dual):
        primal_c, dual_c, weight, _ = _constants(gram)
        self.c = dual_c if dual else primal_c
        self.gram = gram
        self.dual = dual
        self.scale = weight if dual else 1.0
        self.depth = -1
        self.norms = self.counts = ()

    def rate(self, y):
        return math.pi / y if self.dual else math.pi * y

    def box(self, t):
        """P(t) >= N(t), the number of vectors of norm <= t."""
        r = math.sqrt(t)
        p = 0.0
        for ck in reversed(self.c):
            p = p * r + ck
        return p

    def tail(self, a, R):
        """Upper bound on the sum over norms m > R of A_m * exp(-a*m).

        N(t) - 1 <= P(t) - 1 counts the nonzero vectors of norm <= t, so
        integrating by parts (Stieltjes) the sum is at most
        a * int_R^oo (P(t) - 1) e^(-a*t) dt
          = sum_{k >= 1} c_k a^(-k/2) Gamma(k/2 + 1, a*R),
        with the upper incomplete gamma function from Gamma(1/2, x) =
        sqrt(pi) erfc(sqrt(x)), Gamma(1, x) = e^-x and Gamma(s + 1, x) =
        s Gamma(s, x) + x^s e^-x.
        """
        x = a * R
        gamma = [math.exp(-x), _SQRT_PI * math.erfc(math.sqrt(x))]
        log_x = math.log(x) if x else -math.inf
        total = 0.0
        try:
            for k in range(1, len(self.c)):
                s = k / 2
                gamma[k % 2] = s * gamma[k % 2] + math.exp(s * log_x - x)
                total += self.c[k] * gamma[k % 2] * a ** -s
        except OverflowError:  # a^(-s) beyond the float range
            return math.inf
        return total * _ROUND_UP

    def cutoff(self, a, eps):
        """(R, tail(a, R)) for the smallest integer R <= MAX_CUTOFF with
        tail(a, R) <= eps, or (None, None).

        The bound falls as R grows, so the walk from any start finds the
        same R.  It starts near the root of P(R) e^(-a*R) = eps, which
        the bound follows closely: one step of R <- log(P(R)/eps)/a from
        log(1/eps)/a, the step from R = 0 (P(0) = 1).
        """
        R = min(MAX_CUTOFF, max(0.0, math.log(1.0 / eps)) / a)
        R = int(min(MAX_CUTOFF, max(0.0, math.log(self.box(R) / eps)) / a))
        t = self.tail(a, R)
        if t <= eps:
            while R:
                below = self.tail(a, R - 1)
                if not below <= eps:
                    break
                R, t = R - 1, below
            return R, t
        while R < MAX_CUTOFF:
            R += 1
            t = self.tail(a, R)
            if t <= eps:
                return R, t
        return None, None

    def enumerate(self, R, budget):
        gram = _dual_gram(self.gram) if self.dual else self.gram
        scale, counts = _norm_counts(gram, R, budget)
        qs = sorted(counts)
        # q / scale is rounded once, as float(Fraction(q, scale)) is
        self.norms = [q / scale for q in qs]
        self.counts = [counts[q] for q in qs]
        self.depth = R

    def read(self, y, R, tail):
        """ThetaValue at i*y from the counts of norm <= R, whose tail bound
        at the rate of y is `tail` (`cutoff`).

        `bound_on_tail` is w(y) times that bound, plus a bound on the
        rounding of the value (Higham, "Accuracy and Stability of
        Numerical Algorithms", 2002, sections 2.2, 3.1 and 4.2; unit
        roundoff u = 2^-53, gamma_k = k*u / (1 - k*u)), with libm's exp
        and pow taken as correct to one ulp:
          - pi, the rate a, the norm m and x = a*m are rounded once
            each, so exp(-x) is off by a factor e^(gamma_4 x); exp
            itself and the product by the count add gamma_3, so term m
            is within gamma_3 + gamma_4 * x_m of its value, relative,
            and the term of norm 0, the count times exp(-0) = 1, is
            exact;
          - the recursive sum of t nonzero terms adds gamma_(t-1) times
            their sum;
          - on the dual side w = det^(-1/2) y^(-n/2) comes from a
            rounded det, two powers and a product (gamma_6), and w*s
            is one rounding more;
          - a term in the subnormal range is off by at most (count + 1)
            times 2^-1074, absolutely.
        Products of these small relative errors are covered by rounding
        the bound up.  The value itself is the plain sum.  A dual value
        past the float range raises ValueError.
        """
        a = self.rate(y)
        used = bisect_right(self.norms, R)
        counts = self.counts[:used]
        exp = math.exp
        s = moved = spread = 0.0
        zeros = 0
        for m, k in zip(self.norms, counts):
            x = a * m
            t = k * exp(-x)
            s += t
            if x:
                moved += t
                spread += x * t
            if not t:
                zeros += 1
        tiny = sum(counts) + used
        rounding = (_gamma(max(used - zeros - 1, 0)) * s + _gamma(3) * moved
                    + _gamma(4) * spread + tiny * 2.0 ** -1074) * _ROUND_UP
        if not self.dual:
            return ThetaValue(s, tail + rounding, used, "primal")
        try:
            w = self.scale * y ** (-self.gram.n / 2)
        except OverflowError:
            w = math.inf
        value = w * s
        if value == math.inf:
            raise ValueError("theta at y=%g lies beyond the float range" % y)
        bound = (w * (tail + rounding) + value * _gamma(7)) * _ROUND_UP
        return ThetaValue(value, bound, used, "dual")


class _GramTheta:
    """Theta of a Gram at points planned before anything is enumerated.

    Each y is given the side with the smaller box count P(R) at its own
    cutoff R, the primal on a tie.  A larger y lowers the primal cutoff
    and raises the dual one, so the dual takes every y below a switch
    and the primal every y above it.  A point planned in full, both
    cutoffs and the costs compared, moves the bracket [dual_to,
    primal_from] that holds the switch; a point outside it takes its
    side from the bracket and needs only that side's cutoff.  `prepare`
    and `prepare_span` bisect for the switch among the points a call
    will read, and enumerate each side once, to the deepest cutoff its
    points need; `value` then reads each point from those counts.  A
    point no call prepared, as the one point of `eval_gram_numeric`, is
    planned in full and its side enumerated by `value` itself.  Every y
    is taken to be above 0 (`_checked_y`).
    """

    def __init__(self, gram, eps, budget):
        self.eps, self.budget, self.n = eps, budget, gram.n
        self.sides = (_Side(gram, False), _Side(gram, True))
        self.plans = {}
        self.dual_to, self.primal_from = 0.0, math.inf

    def _probe(self, y):
        """(side index, (R, tail) of both sides) for y, planned in full."""
        cut = [side.cutoff(side.rate(y), self.eps) for side in self.sides]
        cost = [math.inf if R is None else side.box(R)
                for side, (R, _) in zip(self.sides, cut)]
        if cost[0] == cost[1] == math.inf:
            self._not_met(y)
        i = int(cost[1] < cost[0])
        if i:
            self.dual_to = max(self.dual_to, y)
        else:
            self.primal_from = min(self.primal_from, y)
        self.plans[y] = (i,) + cut[i]
        return i, cut

    def _not_met(self, y):
        raise TailBoundNotMet(
            "no cutoff up to %d certifies tail <= %g at y=%g on either "
            "side" % (MAX_CUTOFF, self.eps, y))

    def plan(self, y):
        """(side index, cutoff R, tail bound at R) for y."""
        if y in self.plans:
            return self.plans[y]
        if self.dual_to < y < self.primal_from:
            self._probe(y)
            return self.plans[y]
        i = int(y <= self.dual_to)
        side = self.sides[i]
        R, tail = side.cutoff(side.rate(y), self.eps)
        if R is None:
            # the side of the bracket is the one with the smaller cost,
            # so the other side cannot certify y either
            self._not_met(y)
        self.plans[y] = plan = (i, R, tail)
        return plan

    def _switch(self, u, v, y_at, mid):
        """Bisect the keys u < v for the switch from the dual side to the
        primal, planning both ends and each midpoint in full.

        `y_at(k)` is the point of key k, increasing in k; `mid(u, v, cu,
        cv)`, with cu and cv the cutoffs of both sides at u and v, is a
        key strictly between u and v, or None to stop.  Returns the final
        (u, v).
        """
        (su, cu), (sv, cv) = self._probe(y_at(u)), self._probe(y_at(v))
        while su != sv:
            m = mid(u, v, cu, cv)
            if m is None:
                break
            sm, cm = self._probe(y_at(m))
            if sm == su:
                u, cu = m, cm
            else:
                v, cv = m, cm
        return u, v

    def prepare(self, ys):
        """Enumerate each side once for the points `ys`.

        Only the points the bisection probes are planned in full.
        """
        ys = sorted(ys)
        if len(ys) > 1:
            self._switch(0, len(ys) - 1, ys.__getitem__,
                         lambda u, v, cu, cv:
                         (u + v) // 2 if v - u > 1 else None)
        return self._enumerate(ys)

    def _enumerate(self, ys):
        need = [-1, -1]
        for y in ys:
            i, R, _ = self.plan(y)
            need[i] = max(need[i], R)
        for side, R in zip(self.sides, need):
            if R > side.depth:
                side.enumerate(R, self.budget)
        return self

    def prepare_span(self, lo_db, hi_db):
        """Prepare every y = 10^(y_dB/10) with lo_db <= y_dB <= hi_db.

        Bisection narrows the switch to a bracket [u, v] across which
        one cutoff changes by one step and the other not at all.  Every
        point of the bracket then has the side and cutoff of u or of v; a
        point below u has the side of u and a cutoff no larger, and a
        point above v those of v.
        """
        def step(R):
            # None, no cutoff up to MAX_CUTOFF, is one step past it
            return MAX_CUTOFF + 1 if R is None else R

        def mid(u, v, cu, cv):
            m = (u + v) / 2
            jumps = sum(abs(step(a) - step(b))
                        for (a, _), (b, _) in zip(cu, cv))
            return m if jumps > 1 and u < m < v else None

        u, v = self._switch(lo_db, hi_db, lambda db: 10.0 ** (db / 10.0), mid)
        return self._enumerate([10.0 ** (u / 10.0), 10.0 ** (v / 10.0)])

    def value(self, y):
        i, R, tail = self.plan(y)
        side = self.sides[i]
        if R > side.depth:  # a point no prepare call planned
            side.enumerate(R, self.budget)
        return side.read(y, R, tail)

    def read(self, y):
        return self.value(y).value


class _Closed(namedtuple("_Closed", "n read bound route")):
    """A reader of Theta_L from a closed form: `read(y)` is the float,
    and `value(y)` the ThetaValue of route `route` whose `bound_on_tail`
    is bound(y, value).  Each y is read on its own, so nothing is
    prepared."""

    def value(self, y):
        v = self.read(y)
        return ThetaValue(v, self.bound(y, v), 0, self.route)

    def prepare(self, *points):
        return self

    prepare_span = prepare


def _decomposition(d, route):
    """The `_Closed` reader of the decomposition `d`.

    Its coefficients are read as floats once.  A generator that no term
    raises to a nonzero power is not evaluated but taken as 1.0: its
    power would be v ** 0 = 1.0 and a product by 1.0 is exact, so every
    sum has the same terms, in the same order, bit for bit.  The bound
    is the estimate of `eval_decomposition_numeric`.
    """
    g1, g2 = d.basis.generators
    terms = [(float(c), e1, e2)
             for (e1, e2), c in zip(d.basis.terms, d.coeffs)]
    use1 = any(e1 for _, e1, _ in terms)
    use2 = any(e2 for _, _, e2 in terms)
    n = d.basis.n

    def read(y):
        v1 = form_numeric(g1, y) if use1 else 1.0
        v2 = form_numeric(g2, y) if use2 else 1.0
        total = 0.0
        for c, e1, e2 in terms:
            total += c * v1 ** e1 * v2 ** e2
        return total

    # the generators' rounding, inflated by the powers, grows with n
    return _Closed(n, read, lambda y, v: abs(v) * n * 1e-16, route)


def _theta3_power(n):
    """The `_Closed` reader of Z^n: theta3(iy)^n, with a proven bound.

    Against theta3 = theta3(iy), s = theta3_numeric(y) = 1 + sum_{m>=1}
    2 e^(-x_m), x_m the float of a*m^2, a = pi*y, errs by at most
    rho*s, the sum of (as in `_Side.read`; u = 2^-53, q = e^-a):
      - the truncation, below 2^-54 s (`theta.Primitive.numeric`);
      - the terms, gamma_2 + gamma_3 x_m each from exp and from
        rounding pi, a and x_m; sum_{m>=1} 2 x_m e^(-x_m) is at most
        sqrt(pi/a)/2 + 2/e (the integral over t >= 0 plus the peak),
        so at most (1/2 + 2/e) theta3, as theta3 >= max(1, y^(-1/2));
      - the sum: adding t errs by at most min(u s, t); at most
        sqrt(ln(4/u)/a) terms reach u, and the rest, falling by a
        factor q or more, sum to at most u/(1 - q).
    s^n is rounded once more, so it errs by (1 + rho)^n (1 + gamma_2)
    - 1, relative, rounded up.
    """
    def bound(y, value):
        a = math.pi * y
        u = 2.0 ** -53
        rho = (2.0 ** -54 + _gamma(2) + _gamma(3) * (0.5 + 2.0 / math.e)
               + u * (math.sqrt(math.log(4.0 / u) / a)
                      - 1.0 / math.expm1(-a)))
        return value * math.expm1(n * math.log1p(rho)
                                  + math.log1p(_gamma(2))) * _ROUND_UP

    return _Closed(n, lambda y: theta3_numeric(y) ** n, bound,
                   "theta3_product")


def _theta(source, eps, budget, closed_form=True):
    """The reader of Theta_L(iy) for `source`: an object with `n`,
    `value(y)`, the ThetaValue at i*y, `read(y)`, its value alone as a
    float, `prepare(ys)` and `prepare_span(lo_db, hi_db)`.

    The route is picked here alone, in this order:
      1. a ThetaDecomposition is read as given ("decomposition");
      2. a Gram with a certified decomposition is read from it
         ("closed_form"), unless `closed_form` is false;
      3. the identity Gram is read as theta3^n ("theta3_product");
      4. any other Gram is `_GramTheta`, the primal/dual count sums.
    eps, the relative tail bound a value must certify, is checked first,
    so a bad eps computes no certificate and enumerates nothing.
    `certified_decomposition` is read from the module at each call.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and above 0, not %r" % (eps,))
    if isinstance(source, ThetaDecomposition):
        return _decomposition(source, "decomposition")
    if not isinstance(source, GramMatrix):
        raise TypeError("unsupported theta source %r" % (source,))
    d = certified_decomposition(source, budget) if closed_form else None
    if d is not None:
        return _decomposition(d, "closed_form")
    if _constants(source)[3]:
        return _theta3_power(source.n)
    return _GramTheta(source, eps, budget)


def eval_gram_numeric(gram: GramMatrix, y, eps=_EPS_DEFAULT,
                      budget=DEFAULT_BUDGET):
    """Theta_L(i*y) from one enumeration, with a proven tail bound.

    The value is w(y) * sum_{m <= R} A_m e^(-a*m) on one side of the
    Poisson identity Theta_L(iy) = det(G)^(-1/2) y^(-n/2) Theta_L*(i/y):
    the primal (counts of L, a = pi*y, w = 1) or the dual (counts of L*,
    Gram G^-1, a = pi/y, w = det(G)^(-1/2) y^(-n/2)).

    Before enumerating, each side takes the smallest integer cutoff R
    whose tail bound is at most eps; as Theta >= 1 on both sides, that
    certifies eps relative.  The bound uses the Fincke-Pohst count
    N(t) <= P(t) = prod_j (2 sqrt(t/d_j) + 1) over the exact LDL^T
    diagonal d of the side's Gram, and Stieltjes integration:
    sum_{m > R} A_m e^(-a*m) <= a * int_R^oo (P(t) - 1) e^(-a*t) dt.
    The side with the smaller box count P(R) is enumerated once, to R
    (the primal on a tie).  `bound_on_tail` is w(y) times that bound
    plus a bound on the rounding of the sum (see `_Side.read`), rounded
    up; `terms_used` counts the nonzero norms summed.  If neither
    side certifies eps with R <= MAX_CUTOFF, TailBoundNotMet is raised
    before anything is enumerated; more than `budget` search nodes raise
    BoundTooLarge.  The identity Gram is read as theta3^n instead
    (`_theta`).
    """
    _checked_y(y)
    return _theta(gram, eps, budget, closed_form=False).value(y)


def eval_theta_numeric(source, y, eps=_EPS_DEFAULT, budget=DEFAULT_BUDGET):
    """Theta series value at tau = i*y for a decomposition or a Gram,
    by the route `_theta` picks."""
    _checked_y(y)
    return _theta(source, eps, budget).value(y)


@dataclass(frozen=True)
class SecrecyEvaluation:
    y: float
    xi: float
    theta_lattice: float
    theta_reference: float
    terms_used: int
    bound_on_tail: float
    #: the route of theta_lattice, as in ThetaValue
    route: str = "decomposition"


def _xi(n, theta, y, scale):
    """(Xi, reference) for a lattice of dimension n whose theta series at
    the point is the float `theta`: Xi = reference / theta, with the
    reference theta3(i*scale*y)^n of the cubic lattice.  At i*y, scale
    is sqrt(ell); at the symmetry point the reference is read as
    theta3(i)^n, y = scale = 1.0, as sqrt(ell)/sqrt(ell) is not 1.0 in
    floats for ell = 3 (`weak_secrecy_gain`)."""
    ref = theta3_numeric(y, scale) ** n
    return ref / theta, ref


def secrecy_function(source, ell, y, eps=_EPS_DEFAULT,
                     budget=DEFAULT_BUDGET):
    """Xi at tau = i*y: reference theta over lattice theta.

    `source` is a ThetaDecomposition or a GramMatrix of an ell-modular
    lattice; the dimension n of the cubic reference is read from it.  A
    Gram's enumerations are limited to `budget` search nodes.
    """
    _checked_y(y)
    theta = _theta(source, eps, budget)
    tl = theta.value(y)
    xi, ref = _xi(theta.n, tl.value, y, math.sqrt(ell))
    return SecrecyEvaluation(y, xi, tl.value, ref, tl.terms_used,
                             tl.bound_on_tail, tl.route)


def weak_secrecy_gain(source, ell, eps=_EPS_DEFAULT,
                      budget=DEFAULT_BUDGET):
    """Xi at the symmetry point y = 1/sqrt(ell), n read from `source`.

    The reference simplifies there: theta3(sqrt(ell)*i/sqrt(ell)) = theta3(i).
    """
    y = 1.0 / math.sqrt(ell)
    _checked_y(y)
    theta = _theta(source, eps, budget)
    return _xi(theta.n, theta.read(y), 1.0, 1.0)[0]


def _linear(lo, hi, dbs):
    """y = 10^(y_dB/10) for each y_dB of `dbs`, points of the dB range
    lo..hi.  ValueError unless lo < hi and every y is a positive finite
    float: the range is finite and lies within about -3233..3082 dB."""
    if lo < hi:
        try:
            ys = [10.0 ** (db / 10.0) for db in dbs]
        except OverflowError:
            ys = [math.inf]
        if all(0.0 < y < math.inf for y in ys):
            return ys
    raise ValueError("need a dB range lo < hi with 10^(y_dB/10) a positive "
                     "finite float, not %g..%g" % (lo, hi))


def secrecy_curve(source, ell, y_range_db, samples, eps=_EPS_DEFAULT,
                  budget=DEFAULT_BUDGET):
    """Sample Xi on a uniform dB grid; returns a list of (y_dB, xi).

    `source` is as for `secrecy_function`.
    """
    lo, hi = y_range_db
    if not samples >= 2:
        raise ValueError("need samples >= 2")
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    ys = _linear(lo, hi, grid)
    theta = _theta(source, eps, budget).prepare(ys)
    n, read, scale = theta.n, theta.read, math.sqrt(ell)
    return [(ydb, _xi(n, read(y), y, scale)[0]) for ydb, y in zip(grid, ys)]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def locate_maximum(source, ell, search_range_db=None, tol_db=1e-5,
                   eps=_EPS_DEFAULT, budget=DEFAULT_BUDGET):
    """Golden-section search for the maximum of Xi on the dB axis.

    `source` is as for `secrecy_function`.  Returns (y_star, xi_star) with
    y_star in linear units.  The default range is 3 dB either side of the
    symmetry point.
    """
    if search_range_db is None:
        c = 10.0 * math.log10(ell ** -0.5)
        search_range_db = (c - 3.0, c + 3.0)
    a, b = search_range_db
    _linear(a, b, (a, b))
    theta = _theta(source, eps, budget).prepare_span(a, b)
    n, read, scale = theta.n, theta.read, math.sqrt(ell)

    def f(ydb):
        y = 10.0 ** (ydb / 10.0)
        return _xi(n, read(y), y, scale)[0]

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
