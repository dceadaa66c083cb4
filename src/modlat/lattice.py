"""Gram-matrix lattices, a theta-coefficient oracle by short-vector
enumeration, and the catalog of named lattices.

The enumeration oracle is the independent check for every closed-form
expansion in the package: it counts lattice vectors of each norm by a
Fincke-Pohst (1985) bounded search.  A rational Gram is first scaled by
the lcm of its denominators, so every Gram takes one exact-integer path,
and the search runs in an LLL-reduced basis of the same lattice (Lenstra,
Lenstra and Lovasz 1982), formed exactly in integers and kept on the
Gram, where its tree is smaller.  The search tree is expanded one level
at a time over batches of nodes in numpy: float centres and a guard band
on the cutoff decide the pruning, and each node expands only the
children its float test can keep, up to a proven rounding slack, while
exact integer partial sums give each vector's norm.  A node is a prefix
of the last coordinates; prefixes with equal exact partial sums have
the same completions with the same norms, so the children of a batch
that share them are merged into one node with an integer weight, the
number of prefixes it stands for, and a leaf adds its weight to the
count of its norm.  The integers are int64 while a coordinate cap,
derived before the search and checked during it, keeps them below 2^62,
and Python ints otherwise, and weights whose sums could pass 2^62 are
added as Python ints, so counts are exact for every Gram.  A node budget
counts the nodes kept by the search in the reduced basis, each merged
node once.

The theta series of an orthogonal sum is the product of its summands'
(Conway and Sloane, "Sphere Packings, Lattices and Groups", ch. 2).  So
the coordinates of the reduced basis whose row has no nonzero entry off
the diagonal, the one-dimensional orthogonal summands gZ, are counted in
closed form, 2 vectors of norm g x^2 for each x >= 1, only the other
coordinates are searched, and the exact counts are convolved.  A Gram
that reduces to a diagonal one, as Z^n, C2, C3 and their duals do, is
not searched at all.  The node budget counts the nodes of the search of
the rest and, for each summand convolved in, the norms it leaves, so a
Gram with many summands and a deep norm stops at the budget too.

numpy is imported by the functions that use it, `_reduced` and `_search`
with its helpers, not at the top of the module: it loads at the first
enumeration, so `import modlat` and the paths that never enumerate
(table rows, named forms, codes) do without it.

Every exact linear solve in the package is `_bareiss`, one fraction-free
elimination on a matrix scaled to integers: a Gram's positive-definiteness
check and LDL^T factors, those of its reduced basis, its inverse (the
dual lattice and the level) and the decomposition coefficients.  The
check and the factors read only its pivot rows, so a square matrix is
eliminated forward alone; the inverse and the coefficients are solved
for, Gauss-Jordan, by `_adjugate`.  A Gram keeps the integers of its
check, the scaled rows and their pivot rows: its determinant, and its
exact LDL^T factors when first asked for, are read from the pivots, and
its reduced basis, inverse and level start from the scaled rows, so no
entry is scaled twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, lcm
from operator import mul, sub, truediv

from .errors import (BoundTooLarge, ModlatError, NotIntegral, RankDeficient,
                     SingularSystem, UnknownLattice)
from .qseries import _rational


class GramMatrix:
    """Symmetric positive-definite matrix of exact rationals.

    `entries` holds the rows as Fractions.  The constructor also keeps
    the integers its positive-definiteness check works on: `_scaled`, the
    pair (s, sG) with s the lcm of the denominators, and `_pivots`, the
    `_bareiss` pivot rows of sG.  The determinant is read from the last
    pivot, and `ldl`, the exact LDL^T factors (L, d) as Fractions, is
    formed from the pivots at its first use and kept.  The reduced basis
    `theta_coefficients` searches in is kept in `_reduced` once formed,
    and the dual Gram in `_dual` (`_dual_gram`); both start from
    `_scaled`.
    """

    __slots__ = ("entries", "n", "_scaled", "_pivots", "_factors", "_hash",
                 "_reduced", "_dual")

    def __init__(self, entries):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                           for x in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Gram matrix must be square")
        s, G = _scale_to_integers(rows)
        if any(G[i][j] != G[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        try:
            U, exchanged = _bareiss(G[:])
        except SingularSystem:
            exchanged = True
        # Sylvester: the pivots U_kk are the leading principal minors of sG
        if exchanged or any(u[k] <= 0 for k, u in enumerate(U)):
            raise ValueError("Gram matrix is not positive definite")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_scaled", (s, G))
        object.__setattr__(self, "_pivots", U)
        object.__setattr__(self, "_factors", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_reduced", None)
        object.__setattr__(self, "_dual", None)

    def __setattr__(self, *_):
        raise AttributeError("GramMatrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as slot
        # assignment is refused
        return GramMatrix, (self.entries,)

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.entries == other.entries

    def __hash__(self):
        # kept after the first call: the memoized certificates key on it
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.entries))
        return self._hash

    @property
    def ldl(self):
        """The exact LDL^T factors (L, d) of G, formed from the pivot rows
        at the first call and kept."""
        if self._factors is None:
            object.__setattr__(self, "_factors",
                               _ldl(self._pivots, self._scaled[0], Fraction))
        return self._factors

    def determinant(self):
        # the last pivot is det(sG) = s^n det G
        if not self.n:
            return Fraction(1)
        return Fraction(self._pivots[-1][-1], self._scaled[0] ** self.n)

    def is_integral(self):
        return all(x.denominator == 1 for row in self.entries for x in row)

    def is_even(self):
        """A lattice with integral Gram is even iff the diagonal is even."""
        if not self.is_integral():
            raise NotIntegral("evenness is only defined for integral Grams")
        return all(self.entries[i][i] % 2 == 0 for i in range(self.n))

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {"n": self.n,
                "entries": [[str(x) for x in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, d):
        return cls([[_rational(x) for x in row] for row in d["entries"]])

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_text(self):
        return "\n".join(" ".join(str(x) for x in row)
                         for row in self.entries) + "\n"

    @classmethod
    def from_text(cls, text):
        rows = [[_rational(x) for x in ln.split()]
                for ln in text.splitlines() if ln.strip()]
        return cls(rows)


def _scale_to_integers(rows):
    """(s, s * rows) for rational rows, with s the lcm of the denominators."""
    s = lcm(*(x.denominator for row in rows for x in row))
    return s, [[x.numerator * (s // x.denominator) for x in row]
               for row in rows]


def _bareiss(rows):
    """Fraction-free elimination (Bareiss 1968) of integer rows, in place.

    The list `rows` is changed, its rows exchanged and replaced, but no
    row list is itself written to, so the elimination of a shallow copy
    of a matrix leaves the matrix as it was.

    Rows [A | B], A square, are reduced Gauss-Jordan to
    [D * I | D * A^-1 B] with D = +-det A, dividing each update exactly
    by the previous pivot.  A square A alone, with nothing to solve for,
    is only reduced forward, to upper triangular form: a row above a
    pivot is updated only after it has served as a pivot, so the pivot
    rows are those of the Gauss-Jordan run.  A zero pivot is exchanged
    for the first nonzero one below it.  Returns the pivot rows as first
    used and whether a row was exchanged; with no exchange the k-th
    pivot is the k-th leading principal minor of A.  Raises
    SingularSystem if A is singular.
    """
    n = len(rows)
    pivots = []
    exchanged = False
    prev = 1
    # the rows above a pivot need clearing only for the columns past A
    jordan = n and len(rows[0]) > n
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise SingularSystem("singular linear system")
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            exchanged = True
        pivot = rows[k]
        for i in range(0 if jordan else k + 1, n):
            f = rows[i][k]
            # a row with 0 in the column is only rescaled by pivot/prev,
            # which is the identity when the pivot repeats (Z^n, say)
            if i != k and (f or pivot[k] != prev):
                rows[i] = [(pivot[k] * x - f * y) // prev
                           for x, y in zip(rows[i], pivot)]
        pivots.append(pivot)
        prev = pivot[k]
    return pivots, exchanged


def _ldl(U, s, div):
    """G = L diag(d) L^T from the unexchanged `_bareiss` pivot rows U of
    s*G: L_ik = div(U_ki, U_kk) and d_k = div(U_kk, s U_(k-1)(k-1))."""
    n = len(U)
    minors = [1] + [u[k] for k, u in enumerate(U)]
    zero, one = div(0, 1), div(1, 1)
    L = tuple(tuple(div(U[k][i], minors[k + 1]) if k < i
                    else one if k == i else zero for k in range(n))
              for i in range(n))
    return L, tuple(div(minors[k + 1], s * minors[k]) for k in range(n))


def _adjugate(M):
    """(D, A) for square integer rows M: D = +-det M and A = D M^-1, as
    integer rows.  With no row exchanged, as for a positive-definite M,
    D = det M and A = adj M.

    Bareiss elimination of [M | I] ends at [D * I | A].
    """
    n = len(M)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    _bareiss(rows)
    return rows[0][0] if n else 1, [row[n:] for row in rows]


def _inverse(gram):
    """G^-1 of a GramMatrix exactly, as rows of Fractions: s * adj(sG) /
    det(sG), from the integers (s, sG) the Gram keeps (`_adjugate`)."""
    s, G = gram._scaled
    det, adj = _adjugate(G)
    return [[Fraction(s * x, det) for x in row] for row in adj]


def _dual_gram(gram):
    """Gram of the dual lattice, G^-1, exactly, in the reversed basis
    order; kept on the Gram after the first call.

    In that order the LDL^T diagonal of G^-1 is 1/d reversed, so the box
    count of the dual side of a secrecy function is read from G's own
    diagonal.  That count is a bound on the dual's vector counts; the
    enumerator searches the dual in its LLL-reduced basis, whose tree it
    does not describe.
    """
    if gram._dual is None:
        dual = GramMatrix([row[::-1] for row in reversed(_inverse(gram))])
        object.__setattr__(gram, "_dual", dual)
    return gram._dual


def gram_from_generator(rows):
    """Exact M*M^T from rational generator rows; rows must be independent."""
    M = [[Fraction(x) for x in row] for row in rows]
    if len({len(row) for row in M}) > 1:
        raise ValueError("generator rows must have equal length")
    G = [[sum(a * b for a, b in zip(u, v)) for v in M] for u in M]
    try:
        return GramMatrix(G)
    except ValueError:
        # M*M^T is positive definite iff the rows are independent
        raise RankDeficient("generator rows are linearly dependent") from None


def hnf_basis(rows):
    """Square basis (row Hermite-style reduction) of the integer row span.

    `rows` is an m x n integer matrix whose rows span a full-rank
    sublattice of Z^n with m >= n.  Returns an n x n integer basis.
    """
    work = [list(map(int, r)) for r in rows]
    n = len(work[0])
    if any(len(r) != n for r in work):
        raise ValueError("generator rows must have equal length")
    basis = []
    for col in range(n):
        live = [r for r in work if r[col]]
        if not live:
            raise RankDeficient("rows do not span full rank")
        while True:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // piv[col]
                if q:
                    for i in range(col, n):
                        r[i] -= q * piv[i]
                if r[col]:
                    done = False
            live = [piv] + [r for r in live[1:] if r[col]]
            if done or len(live) == 1:
                break
        # every other row is now zero in this column and the earlier ones
        basis.append(piv)
        work = [r for r in work if r is not piv and any(r[col:])]
    return basis


DEFAULT_BUDGET = 10 ** 8

#: Most children the enumerator expands in one batch.  The search keeps
#: at most one pending batch per tree level, so this bounds its memory.
#: A reduced basis fills more levels at once than BW16's shipped one did:
#: a BW16 search to norm 30 stopped by a budget of 2e6 nodes peaks at
#: about 13 MB of arrays with 2^13, 26 MB with 2^14 and 48 MB with 2^15
#: (35 MB in the shipped basis).  With 2^13 a batch's one-dimensional
#: int64 arrays (64 KB) also stay below glibc's default 128 KB mmap
#: threshold; a process whose threshold has grown ran mid-size searches
#: 5-12% faster with 2^15.  Nodes merge only within a batch, and the
#: index of a node in its batch fits in the low 13 bits of the int64
#: sort key of `_merge`.
CHUNK = 1 << 13

#: Exact integers at or above this magnitude are held as Python ints.
_INT64_LIMIT = 1 << 62


class _OutsideCap(Exception):
    """A float search range left the coordinate cap of the int64 run."""


def theta_coefficients(gram: GramMatrix, max_norm, budget=DEFAULT_BUDGET):
    """Exact counts A_m of lattice vectors with norm m for m <= max_norm.

    The Gram is scaled by the lcm of its denominators to an integer
    matrix G', so integral and rational Grams take one path, and G' is
    LLL-reduced to G'' = U G' U^T, a Gram of the same lattice in a basis
    the search is cheaper in (`_reduced`).  A Fincke-Pohst search of G''
    over its float LDL^T decomposition, with a guard band on the cutoff,
    expands one tree level at a time over a batch of at most `CHUNK`
    children in numpy.  Beside the float centres it carries the exact
    partial sums B_i = sum_{k>=j} G''_ik x_k and the partial norm
    x^T G'' x of each node, so every leaf's norm is an exact integer and
    the counts are exact.  Children of a batch with equal exact sums and
    partial norm are merged into one node that carries their number as
    an integer weight, and each leaf adds its weight to the count of its
    norm (`_search`).  The integers are int64 while a cap on the
    coordinates, checked as the search goes, keeps them below 2^62, and
    Python ints otherwise.  The search counts the nodes it keeps, in the
    reduced basis and after merging; more than `budget` raises
    BoundTooLarge.

    A coordinate whose row of G'' is zero off the diagonal spans a
    one-dimensional orthogonal summand gZ, with 2 vectors of norm g x^2
    for each x >= 1.  Such summands are counted in closed form and
    convolved with the counts of the search of the other coordinates;
    a G'' that is diagonal, as for Z^n, C2 and C3, is not searched.  Each
    convolution is charged the number of norms it leaves, added to the
    search's nodes against the same budget.

    Integral Grams give a dense list [(Fraction(m), A_m)] for m = 0 ..
    floor(max_norm); rational Grams give the nonzero counts only, sorted
    by norm.  Both are read from `_norm_counts`.
    """
    max_norm = Fraction(max_norm)
    scale, counts = _norm_counts(gram, max_norm, budget)
    if scale == 1:
        return [(Fraction(m), counts.get(m, 0))
                for m in range(int(max_norm) + 1)]
    return [(Fraction(q, scale), k) for q, k in sorted(counts.items())]


def _norm_counts(gram, max_norm, budget=DEFAULT_BUDGET):
    """(s, {q: A}): the nonzero counts A of the vectors of norm q/s <=
    max_norm, keyed by the integer q, with s the lcm of the Gram's
    denominators; the counts of `theta_coefficients`, one-dimensional
    summands and search, without a Fraction per norm.  max_norm is an
    int or a Fraction."""
    if max_norm < 0:
        raise ValueError("max_norm must be non-negative")
    scale, G, L, d = _reduced(gram)
    qmax = floor(max_norm * scale)
    n = gram.n
    tally, summands, nodes = {}, [], 0
    # every nonzero vector has a positive integer norm under G''
    if n and qmax:
        # a row of G'' that is zero off the diagonal spans a
        # one-dimensional orthogonal summand; the other coordinates are
        # searched on their sub-blocks of G'', L and d, which hold the
        # LDL^T factors of their block of G'', as L is zero off the
        # diagonal in the row and the column of such a coordinate
        lone = [i for i, row in enumerate(G) if row.count(0) == n - 1]
        summands = [G[i][i] for i in lone]
        if len(lone) < n:
            if lone:
                rest = [i for i in range(n) if i not in lone]
                G = [[G[i][k] for k in rest] for i in rest]
                L = L[rest][:, rest]
                d = [d[i] for i in rest]
            C = float(max_norm) + 1e-9 * (float(max_norm) + 1.0)
            try:
                tally, nodes = _search(G, L, d, C, qmax, budget,
                                       _int64_cap(G, qmax))
            except _OutsideCap:
                tally, nodes = _search(G, L, d, C, qmax, budget, None)
    # the tally counts one of each pair +-x
    counts = {q: 2 * k for q, k in tally.items()}
    counts[0] = 1
    # each summand is charged the norms it leaves, against the same budget
    for g in summands:
        counts = _times_summand(counts, g, qmax)
        nodes += len(counts)
        if nodes > budget:
            raise BoundTooLarge("enumeration exceeded budget of %d nodes"
                                % budget)
    return scale, counts


def _times_summand(counts, g, qmax):
    """The counts {q: A} of L + gZ up to qmax from those of L: the
    summand has 2 vectors of norm g x^2 for each 1 <= x <= sqrt(qmax/g)."""
    out = dict(counts)
    for x in range(1, isqrt(qmax // g) + 1):
        m = g * x * x
        for q, k in counts.items():
            if q + m <= qmax:
                out[q + m] = out.get(q + m, 0) + 2 * k
    return out


#: Lovasz constant of the reduction `_lll` makes.
LLL_DELTA = 0.99

#: Largest |mu| `_lll` leaves in place; above 1/2, so that rounding
#: cannot make a size reduction repeat.
LLL_ETA = 0.51


def _reduced(gram):
    """(s, G'', L, d): the basis `theta_coefficients` searches in.

    s is the lcm of the Gram's denominators, G'' = U (s G) U^T for the
    unimodular U of an LLL reduction (`_lll`) of the integers sG the
    Gram keeps, as integer rows, and L, d are the exact LDL^T factors of
    G''/s rounded to floats, read from the `_bareiss` pivots of G''
    whatever U is.  Kept on the Gram after the first call.
    """
    if gram._reduced is None:
        import numpy as np

        s, G = gram._scaled
        G = _lll(G)
        # each quotient of integers rounded once, as float(Fraction) is;
        # G'' is positive definite, so no row is exchanged
        L, d = _ldl(_bareiss(G[:])[0], s, truediv)
        object.__setattr__(gram, "_reduced", (s, G, np.array(L, dtype=float),
                                              [float(x) for x in d]))
    return gram._reduced


def _lll(G):
    """An LLL-reduced Gram U G U^T of an integer Gram G, as new rows; G
    is left as it is.

    The reduction of Lenstra, Lenstra and Lovasz ("Factoring polynomials
    with rational coefficients", 1982) on the Gram alone, with Lovasz
    constant `LLL_DELTA`.  Float Gram-Schmidt coefficients mu and
    squared lengths b, recomputed from the exact Gram at each visit of a
    row, decide the steps.  Each step, a size reduction or a swap, is an
    exact integer operation on rows and columns, so the result is a Gram
    of the same lattice whatever the floats do; the number of steps is
    capped, so rounding cannot make it cycle.
    """
    n = len(G)
    H = [list(r) for r in G]
    mu = [[0.0] * n for _ in range(n)]
    # b_0 = G_00; any other b_j is read for j < k only, once k has
    # passed j and set it
    b = [float(r[i]) for i, r in enumerate(G)]
    k, steps = 1, 0
    while k < n and steps < 64 * n * n:
        steps += 1
        row, mk, rk = H[k], mu[k], []
        if any(row[:k]):
            # rk[j] = mu_kj b_j = G_kj - sum_{i<j} mu_ji rk[i]
            for j in range(k):
                x = row[j] - sum(map(mul, mu[j], rk))
                mk[j] = x / b[j]
                rk.append(x)
        else:  # row k is orthogonal to the rows before it
            mk[:k] = [0.0] * k
            rk = [0] * k
        if max(map(abs, mk[:k])) > LLL_ETA:
            q = [0] * k
            for j in range(k - 1, -1, -1):
                if abs(mk[j]) > LLL_ETA:
                    c = q[j] = round(mk[j])
                    for i, x in enumerate(mu[j][:j]):
                        mk[i] -= c * x
                    mk[j] -= c
            row = _size_reduce(H, k, q)
            rk = [x * y for x, y in zip(mk, b[:k])]
        bk = row[k] - sum(map(mul, mk, rk))
        if not bk > 0:
            break  # rounding has swamped b_k; H is still a Gram of L
        if bk < (LLL_DELTA - mk[k - 1] ** 2) * b[k - 1]:
            H[k - 1], H[k] = H[k], H[k - 1]
            for r in H:
                r[k - 1], r[k] = r[k], r[k - 1]
            if k > 1:
                k -= 1
            else:
                b[0] = float(H[0][0])
        else:
            b[k] = bk
            k += 1
    return H


def _size_reduce(H, k, q):
    """Replace basis vector k of the Gram H by b_k - sum_j q_j b_j.

    With w = sum_j q_j H_j, row k becomes H_k - w off the diagonal and
    H_kk - 2 w_k + q . w on it; column k follows.  Returns the new row.
    """
    w = [0] * len(H)
    for j, c in enumerate(q):
        if c:
            w = [x + c * y for x, y in zip(w, H[j])]
    new = [x - y for x, y in zip(H[k], w)]
    new[k] = H[k][k] - 2 * w[k] + sum(c * x for c, x in zip(q, w))
    H[k] = new
    for r, x in zip(H, new):
        r[k] = x
    return new


def _int64_cap(G, qmax):
    """Largest X for which int64 arithmetic is exact while all |x_j| < X.

    With r_i the absolute row sums of G' and s their sum, |x_j| < X gives
    |B_i| < X r_i, partial norms |Q| < X^2 s, and norm updates
    |v (2 B_j + G'_jj v)| < 3 X^2 r_j, so every integer the search forms
    stays below 4 X^2 s <= 2^62.  None, for Python ints, when X would be
    below 3 or the scaled cutoff does not fit.
    """
    X = isqrt(_INT64_LIMIT // (4 * sum(abs(g) for row in G for g in row)))
    return X if X >= 3 and qmax < _INT64_LIMIT else None


def _integers(a, dtype):
    """Integer-valued floats as int64 or Python ints."""
    import numpy as np

    if dtype is object:
        return np.array([int(x) for x in a.tolist()], dtype=object)
    return a.astype(np.int64)


def _search(G, L, d, C, qmax, budget, cap):
    """Batched Fincke-Pohst search: ({x^T G x: half-vector count}, nodes).

    Only half of the nonzero vectors are visited: the last nonzero
    coordinate is positive.  A child x_j = v of a node with float centre
    c_j and budget rem is kept when the float test d_j (v - c_j)^2 <= rem
    holds.  Each node expands only the v in its range, the roots of that
    test widened by a proven rounding slack (see `ranges`), so the range
    holds every child the test keeps.  With a `cap` the integers are
    int64 and _OutsideCap is raised if a range reaches it; without, they
    are Python ints.

    A node at level j is a prefix x_j .. x_(n-1).  It carries the exact
    partial norm Q = sum_{i,k>=j} G_ik x_i x_k and the exact partial sums
    B_i = sum_{k>=j} G_ik x_k for i < j, and every completion x_<j has
    the norm
        x^T G x = Q + 2 sum_{i<j} x_i B_i + x_<j^T G_<j x_<j.
    With G = L D L^T the centres satisfy B_<j = -L_<j D_<j c_<j, so c_<j
    = -D^-1 L^-1 B_<j, and the projected partial norm, the least norm of
    a completion, is P = Q - B_<j^T G_<j^-1 B_<j: the key (Q, B_<j) fixes
    the completions, their exact norms and, but for rounding, the float
    data that prunes them.  So nodes with equal keys are merged
    (`_merge`, within a batch of children) into one node whose weight is
    the number of prefixes it stands for, and a leaf adds its weight to
    the tally.  The merged node keeps the float data of one of them; the
    floats of the others differ from it by rounding only, far inside the
    guard band that makes the float test keep every completion of norm
    at most the cutoff, so the counts are those of the unmerged search.
    Nodes are merged only after their exact keys are compared.

    A node is one merged node: the search counts the nodes it keeps after
    merging, each leaf once, and more than `budget` raises BoundTooLarge.
    Merging is tried on a batch of at least MERGE_MIN children, at each
    level until a batch there would shrink by less than a quarter, so it
    follows the duplication the search meets.  A search whose batches
    stay below MERGE_MIN keeps the node set of a scalar recursion with
    the same test over any range that holds the test's roots.

    A batch holds the nodes of one level as arrays, one column per node
    in the two-dimensional ones: float centres c, exact partial sums B,
    partial norms Q, float partial norms P, the float budget rem = C - P
    left for the lower levels, and the ranges [lo, hi] of the next
    coordinate; beside it go the weights, None while every weight is 1.
    `zero` marks a batch whose first node is the all-zero prefix: its
    range starts at 0, and its first child (x_j = 0, always kept) is
    again the all-zero prefix.  The search starts from an ordinary such
    batch, the empty prefix alone, with c = 0, B = 0, Q = P = 0 and rem =
    C, whose range `ranges` gives as it gives any other.
    """
    import numpy as np

    n = len(d)
    dtype = object if cap is None else np.int64
    G = np.array(G, dtype=dtype)

    def ranges(j, c, rem, zero):
        """[lo, hi] of x_j for each node: ceil(c_j - w) and floor(c_j + w).

        With u = 2^-53 and r = fl(sqrt(fl(max(rem, 0) / d_j))), a kept
        v has fl(fl(d_j t) t) <= rem for t = fl(fl(v) - c_j), so rem >= 0
        and, taking each rounding as a factor within 1 -+ u (the float
        pruning assumes no underflow throughout), |v - c_j| <= r (1 + 4u)
        + u |v| <= r (1 + 6u) + 2u |c_j|.  The half-width w = fl(r +
        2^-48 a), a = fl(r + |c_j|), exceeds that bound by more than the
        rounding of c_j -+ w, so ceil(fl(c_j - w)) <= v <= floor(fl(c_j
        + w)).  Both ends lie within a (1 + 2^-46) of 0, so a < cap - 1
        keeps every child inside the cap.
        """
        cj = c[j]
        r = np.sqrt(np.maximum(rem, 0.0) / d[j])
        a = r + np.abs(cj)
        if cap is not None and a.max() >= cap - 1:
            raise _OutsideCap
        w = r + a * 2.0 ** -48
        lo = _integers(np.ceil(cj - w), dtype)
        hi = _integers(np.floor(cj + w), dtype)
        if zero:
            lo[0] = 0
        return lo, hi

    # the root batch, the empty prefix alone
    c, rem = np.zeros((n, 1)), np.full(1, C)
    root = (c, np.zeros((n, 1), dtype=dtype), np.zeros(1, dtype=dtype),
            np.zeros(1), rem) + ranges(n - 1, c, rem, True)
    stack = [(n - 1, True, root, None)]
    merging = [True] * n
    tally = {}
    nodes = 0
    while stack:
        j, zero, batch, wt = stack.pop()
        size = _widths(*batch[-2:], dtype)
        ends = np.cumsum(size)
        total = int(ends[-1])
        if total > CHUNK:
            k = int(np.searchsorted(ends, CHUNK, side="right"))
            if k:
                stack.append((j, False, tuple(a[..., k:] for a in batch),
                              None if wt is None else wt[k:]))
                batch = tuple(a[..., :k] for a in batch)
                wt = None if wt is None else wt[:k]
            else:
                # the first node alone has more than CHUNK children
                lo, hi = batch[-2:]
                cut = lo[:1] + CHUNK
                stack.append((j, False, batch[:-2]
                              + (np.concatenate((cut, lo[1:])), hi), wt))
                batch = tuple(a[..., :1] for a in batch[:-1]) + (cut - 1,)
                wt = None if wt is None else wt[:1]
            size = _widths(*batch[-2:], dtype)
            ends = np.cumsum(size)
            total = int(ends[-1])
        c, B, Q, P, rem, lo, hi = batch
        parent = np.repeat(np.arange(len(size)), size)
        first, step = ends - size, np.arange(total)
        if dtype is object:
            first, step = first.astype(object), step.astype(object)
        v = (lo - first)[parent] + step
        # int64 v is cast to float exactly where it meets a float
        vf = v.astype(np.float64) if dtype is object else v
        t = vf - c[j][parent]
        contrib = d[j] * t * t
        keep = np.flatnonzero(contrib <= rem[parent])
        if not len(keep):
            continue
        parent, v = parent[keep], v[keep]
        if wt is not None:
            wt = wt[parent]
        Qc = Q[parent] + v * (2 * B[j][parent] + G[j, j] * v)
        if j:
            Pc = P[parent] + contrib[keep]
            Bc = B[:j].take(parent, axis=1) + G[:j, j, None] * v
            if merging[j] and len(keep) >= MERGE_MIN:
                merged = _merge(Qc, Bc, wt, zero)
                if merged is None:
                    merging[j] = False
                else:
                    rep, wt = merged
                    parent, v, Qc, Pc = (parent[rep], v[rep], Qc[rep],
                                         Pc[rep])
                    Bc = Bc.take(rep, axis=1)
        nodes += len(Qc)
        if nodes > budget:
            raise BoundTooLarge("enumeration exceeded budget of %d nodes"
                                % budget)
        if j == 0:
            if zero:
                Qc, wt = Qc[1:], None if wt is None else wt[1:]
            inside = Qc <= qmax
            _tally(tally, Qc[inside], None if wt is None else wt[inside])
            continue
        vf = v.astype(np.float64) if dtype is object else v
        cc = c[:j].take(parent, axis=1) - L[j, :j, None] * vf
        remc = C - Pc
        stack.append((j - 1, zero, (cc, Bc, Qc, Pc, remc)
                      + ranges(j - 1, cc, remc, zero), wt))
    return tally, nodes


#: Fewest children of a batch `_search` tries to merge.  Below it a merge
#: costs about what it saves: with 2^8 the half-scaled ExampleDim8 search
#: to norm 3, whose batches hold at most 510 children, ran 8% slower than
#: with no merging; with 2^10 no search that merges ran slower, and BW16
#: to norm 4, whose merges shrink batches by a third to a half, ran 4-9%
#: faster.
MERGE_MIN = 1 << 10

#: The index of a node in its batch, below CHUNK, fits in the low
#: _INDEX_BITS bits of an int64.
_INDEX_BITS = (CHUNK - 1).bit_length()


def _splitmix64(i):
    """The i-th output of the SplitMix64 generator (Steele, Lea and
    Flood 2014) from seed 0."""
    z = (i + 1) * 0x9E3779B97F4A7C15 % (1 << 64)
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % (1 << 64)
    z = (z ^ z >> 27) * 0x94D049BB133111EB % (1 << 64)
    return z ^ z >> 31


#: Multipliers of the linear hash `_key`, one per column: odd, below 2^62.
_MIX = tuple(_splitmix64(i) >> 2 | 1 for i in range(64))


def _key(Q, B):
    """An int64 hash of each node (Q, B), the same for equal nodes: a
    linear form in the node's column with the multipliers `_MIX`, taken
    mod 2^64 in int64 arithmetic or, for Python ints, mod 2^63."""
    import numpy as np

    m = len(_MIX)
    mix = np.array([_MIX[i % m] for i in range(len(B) + 1)],
                   dtype=Q.dtype)
    key = Q * mix[-1] + mix[:-1] @ B
    if key.dtype == object:
        key = (key & ((1 << 63) - 1)).astype(np.int64)
    return key


def _merge(Q, B, wt, zero):
    """(nodes, weights) of the groups of equal nodes (Q, B), or None when
    fewer than a quarter of the nodes could merge.

    Q is a row of partial norms and B has a column of partial sums per
    node.  The nodes are sorted by `_key`, with the node's index in the
    low _INDEX_BITS bits of the sort key, and a node joins the one before
    it only if both have equal keys, equal Q and equal columns of B, so a
    collision of keys can cost a merge but never a count.  Each group is
    kept as its first node, with the sum of the weights `wt` (1 each when
    None) of its nodes; with `zero`, node 0, the all-zero prefix, stays
    first whatever its key.
    """
    import numpy as np

    k = len(Q)
    packed = _key(Q, B) << _INDEX_BITS | np.arange(k)
    if zero:
        packed[0] = -1 << 63
    packed.sort()
    order = packed & (CHUNK - 1)
    packed >>= _INDEX_BITS
    same = packed[1:] == packed[:-1]
    if 4 * np.count_nonzero(same) < k:
        return None
    Q, B = Q[order], B.take(order, axis=1)
    same &= Q[1:] == Q[:-1]
    same &= (B[:, 1:] == B[:, :-1]).all(axis=0)
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    if wt is None:
        return order[starts], np.diff(starts, append=k)
    return order[starts], _run_sums(wt[order], starts)


def _run_sums(wt, starts):
    """np.add.reduceat(wt, starts), exactly: int64 weights whose sums
    could reach 2^62 are summed as Python ints."""
    import numpy as np

    if wt.dtype != object and int(wt.max()) >= _INT64_LIMIT // len(wt):
        wt = wt.astype(object)
    return np.add.reduceat(wt, starts)


def _widths(lo, hi, dtype):
    """Children per node, as int64.

    Python-int widths are capped at CHUNK + 1 first; the cap changes no
    split of a batch.
    """
    import numpy as np

    if dtype is object:
        return np.minimum(hi - lo + 1, CHUNK + 1).astype(np.int64)
    return hi - lo + 1


def _tally(tally, norms, wt):
    """Add the weight (1 each when `wt` is None) of each distinct value
    of `norms` to `tally`.

    The same as np.unique(norms, return_counts=True) when unweighted, at
    half its overhead on the few leaves of a low-norm call.
    """
    import numpy as np

    if len(norms):
        if wt is None:
            norms = np.sort(norms)
        else:
            order = np.argsort(norms)
            norms, wt = norms[order], wt[order]
        last = np.flatnonzero(norms[1:] != norms[:-1])
        ends = last.tolist() + [len(norms) - 1]
        if wt is None:
            counts = map(sub, ends, [-1] + ends[:-1])
        else:
            counts = _run_sums(wt, np.append(0, last + 1)).tolist()
        for q, k in zip(norms[ends].tolist(), counts):
            tally[q] = tally.get(q, 0) + k


# ---------------------------------------------------------------------------
# catalog


def ell_from_det(gram: GramMatrix):
    """The integer ell with ell^n = det(G)^2, n the dimension.

    An ell-modular lattice has det G = ell^(n/2) (Quebbemann, "Modular
    lattices in Euclidean spaces", 1995), and the secrecy function
    compares it with the cubic lattice of the same volume, scaled by
    sqrt(ell).  A Gram with no such integer raises ModlatError.
    """
    det, n = gram.determinant(), gram.n
    if n and det.denominator == 1:
        # integer n-th root of det^2 by Newton's method from above
        N = det.numerator ** 2
        r = 1 << -(-N.bit_length() // n)
        while True:
            s = ((n - 1) * r + N // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
        if r ** n == N:
            return r
    raise ModlatError("no integer ell with ell^n = det^2 for det %s, n = %d"
                      % (det, n))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    gram: GramMatrix
    ell: int
    parity: str  # "even" | "odd"
    source: str  # "paper" | "derived"


def _entry(name, gram, source):
    g = GramMatrix(gram)
    parity = "even" if g.is_even() else "odd"
    return CatalogEntry(name, g, ell_from_det(g), parity, source)


def _zn(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


_A2 = [[2, 1], [1, 2]]

_D4 = [[2, -1, 0, 0],
       [-1, 2, -1, -1],
       [0, -1, 2, 0],
       [0, -1, 0, 2]]

_E8 = [[2, -1, 0, 0, 0, 0, 0, 0],
       [-1, 2, -1, 0, 0, 0, 0, 0],
       [0, -1, 2, -1, 0, 0, 0, 0],
       [0, 0, -1, 2, -1, 0, 0, 0],
       [0, 0, 0, -1, 2, -1, 0, -1],
       [0, 0, 0, 0, -1, 2, -1, 0],
       [0, 0, 0, 0, 0, -1, 2, 0],
       [0, 0, 0, 0, -1, 0, 0, 2]]

# 8-dimensional odd 2-modular lattice built from the self-dual code of
# length 4 over F3+vF3; same lattice as codes.construction_a_gram of the
# shipped generator, in a different basis.
EXAMPLE_DIM8 = [[2, 1, 0, -1, 0, 2, -1, -2],
                [1, 2, -1, 0, 1, 0, -1, -2],
                [0, -1, 2, -1, -1, 2, 0, 2],
                [-1, 0, -1, 2, 1, -2, 1, 0],
                [0, 1, -1, 1, 3, 0, 0, 0],
                [2, 0, 2, -2, 0, 6, 0, 0],
                [-1, -1, 0, 1, 0, 0, 3, 0],
                [-2, -2, 2, 0, 0, 0, 0, 6]]


def catalog(name):
    """Named lattice lookup: a name in CATALOG_NAMES, or Z<n>, e.g. "Z16".

    A name in CATALOG_NAMES gives the same entry at every call, built at
    the first, so the reduced basis kept on its Gram is formed once per
    process; Z<n> is built at each call.
    """
    if name.startswith("Z") and name[1:].isdigit() and int(name[1:]) >= 1:
        return _entry(name, _zn(int(name[1:])), "derived")
    if name not in CATALOG_NAMES:
        raise UnknownLattice("unknown lattice %r" % name)
    return _named(name)


@lru_cache(maxsize=None)
def _named(name):
    """The entry of a name in CATALOG_NAMES; called with no other."""
    from . import fixtures

    table = {
        "A2": (_A2, "derived"),
        "D4": (_D4, "derived"),
        "E8": (_E8, "derived"),
        "C1": ([[1]], "derived"),
        "C2": ([[1, 0], [0, 2]], "derived"),
        "C3": ([[1, 0], [0, 3]], "derived"),
        "K12": (fixtures.K12_GRAM, "derived"),
        "BW16": (fixtures.BW16_GRAM, "derived"),
        "ExampleDim8": (EXAMPLE_DIM8, "paper"),
    }
    return _entry(name, *table[name])


CATALOG_NAMES = ("A2", "D4", "E8", "C1", "C2", "C3", "K12", "BW16",
                 "ExampleDim8")
