import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import floor, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modlat import codes, fixtures, lattice, theta
from modlat.errors import (BoundTooLarge, ModlatError, NotIntegral,
                           RankDeficient, UnknownLattice)
from modlat.lattice import (CATALOG_NAMES, GramMatrix, _dual_gram, catalog,
                            ell_from_det, gram_from_generator, hnf_basis,
                            theta_coefficients)


def test_z2_circle_counts():
    g = catalog("Z2").gram
    assert theta_coefficients(g, 4) == [(0, 1), (1, 4), (2, 4), (3, 0),
                                        (4, 4)]


def test_d4_counts():
    g = catalog("D4").gram
    got = dict(theta_coefficients(g, 6))
    assert got == {0: 1, 1: 0, 2: 24, 3: 0, 4: 24, 5: 0, 6: 96}


def test_example_dim8_counts():
    g = catalog("ExampleDim8").gram
    assert theta_coefficients(g, 4) == [(0, 1), (1, 0), (2, 32), (3, 128),
                                        (4, 240)]


def test_e8_counts():
    g = catalog("E8").gram
    got = dict(theta_coefficients(g, 4))
    assert got[2] == 240 and got[4] == 2160


def test_bw16_and_k12_leading_counts():
    bw = catalog("BW16")
    got = dict(theta_coefficients(bw.gram, 4))
    assert got == {0: 1, 1: 0, 2: 0, 3: 0, 4: 4320}
    k12 = catalog("K12")
    got = dict(theta_coefficients(k12.gram, 4))
    assert got == {0: 1, 1: 0, 2: 0, 3: 0, 4: 756}


def test_determinant_matches_level():
    for name in CATALOG_NAMES:
        e = catalog(name)
        n = e.gram.n
        assert e.gram.determinant() == Fraction(e.ell) ** (n // 2), name


def test_ell_from_det_matches_the_published_levels():
    # the tables give each row's ell independently of the Gram
    rows = [r for r in fixtures.TABLE1 + fixtures.TABLE2 if r.catalog_name]
    assert {r.catalog_name for r in rows} == {"A2", "D4", "K12", "BW16",
                                              "ExampleDim8"}
    for row in rows:
        assert ell_from_det(catalog(row.catalog_name).gram) == row.ell, \
            row.name
    code = codes.CodeOverR.from_pairs(fixtures.PSOLE_DIM8_GENERATOR)
    assert ell_from_det(codes.construction_a_gram(code)) == 2


@pytest.mark.parametrize("n", [1, 2, 4, 8, 24])
def test_ell_from_det_roots(n):
    for ell in list(range(1, 40)) + [10 ** 9 + 7]:
        # diag(ell, ..., ell) has det ell^n, so ell^2 for odd n;
        # diag(1, ..., 1, ell^(n/2)) has det ell^(n/2)
        diag = [ell] * n if n % 2 else [1] * (n - 1) + [ell ** (n // 2)]
        g = GramMatrix([[diag[i] if i == j else 0 for j in range(n)]
                        for i in range(n)])
        assert ell_from_det(g) == (ell ** 2 if n % 2 else ell)


def _e8_plus_d4():
    e8, d4 = catalog("E8").gram.entries, catalog("D4").gram.entries
    return GramMatrix([list(row) + [0] * 4 for row in e8]
                      + [[0] * 8 + list(row) for row in d4])


@pytest.mark.parametrize("gram,message", [
    # det 4, and 4^2 is no 12th power
    (_e8_plus_d4(), "det 4, n = 12"),
    (GramMatrix([[Fraction(1, 2)]]), "det 1/2, n = 1"),
    (GramMatrix([[1, 0], [0, Fraction(3, 2)]]), "det 3/2, n = 2"),
])
def test_ell_from_det_refuses(gram, message):
    with pytest.raises(ModlatError, match=message):
        ell_from_det(gram)


@pytest.mark.parametrize("entries", [
    [[1, 1], [1, 1]],                # singular
    [[1, 2], [2, 1]],                # indefinite
    [[0, 1], [1, 0]],                # zero leading minor, nonsingular
    [[0]],
    [[Fraction(-1, 2)]],
])
def test_gram_not_positive_definite_rejected(entries):
    with pytest.raises(ValueError, match="not positive definite"):
        GramMatrix(entries)


def _check_exact_factors(gram):
    """ldl, determinant() and _dual_gram checked against G itself."""
    n, G = gram.n, gram.entries
    L, d = gram.ldl
    assert all(L[i][i] == 1 and not any(L[i][i + 1:]) for i in range(n))
    assert [[sum(L[i][k] * d[k] * L[j][k] for k in range(n))
             for j in range(n)] for i in range(n)] == [list(r) for r in G]
    assert gram.determinant() == prod(d)
    inv = [row[::-1] for row in _dual_gram(gram).entries[::-1]]
    assert [[sum(inv[i][k] * G[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)]
                                   for i in range(n)]


@pytest.mark.parametrize("name", CATALOG_NAMES + ("Z3",))
def test_exact_factors_catalog(name):
    g = catalog(name).gram
    _check_exact_factors(g)
    _check_exact_factors(_half(g))


@pytest.mark.parametrize("name", CATALOG_NAMES + ("Z3",))
def test_forward_elimination_keeps_the_pivot_rows(name):
    # a square matrix is eliminated forward only; its pivot rows are
    # those of the Gauss-Jordan run of [sG | I]
    _, G = lattice._scale_to_integers(catalog(name).gram.entries)
    n = len(G)
    square, exchanged = lattice._bareiss([row[:] for row in G])
    solved, solved_exchanged = lattice._bareiss(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(G)])
    assert square == [row[:n] for row in solved]
    assert exchanged == solved_exchanged


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_a_repeated_pivot_leaves_a_zero_row_unchanged(n):
    # rows with 0 in the pivot column are not rebuilt while the pivot
    # repeats, so the identity is eliminated with no update at all
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    given = list(rows)
    pivots, exchanged = lattice._bareiss(rows)
    assert not exchanged
    assert all(p is r for p, r in zip(pivots, given)) and len(pivots) == n


@st.composite
def _pd_grams(draw):
    """(M M^T + den I) / den for a small square integer M."""
    n = draw(st.integers(1, 5))
    den = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    M = draw(st.lists(row, min_size=n, max_size=n))
    return GramMatrix([[Fraction(sum(a * b for a, b in zip(u, v))
                                 + den * (i == j), den)
                        for j, v in enumerate(M)] for i, u in enumerate(M)])


@settings(deadline=None)
@given(_pd_grams())
def test_exact_factors_property(gram):
    _check_exact_factors(gram)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)),
                                   copy.deepcopy, copy.copy])
def test_gram_pickle_and_copy(clone):
    for name in ("D4", "C2"):
        g = catalog(name).gram
        dual = _dual_gram(g)
        assert _dual_gram(g) is dual
        h = clone(g)
        assert h == g and hash(h) == hash(g) and h.ldl == g.ldl
        # the clone is built by the constructor: its dual is formed anew
        assert h._dual is None and _dual_gram(h) == dual
    half = GramMatrix([[Fraction(x, 2) for x in row]
                       for row in catalog("D4").gram.entries])
    assert clone(half) == half
    d4 = catalog("D4").gram
    assert theta_coefficients(clone(d4), 8) == theta_coefficients(d4, 8)


def test_parity_flags():
    assert catalog("D4").parity == "even"
    assert catalog("ExampleDim8").parity == "odd"
    assert catalog("Z5").parity == "odd"
    assert catalog("ExampleDim8").gram.determinant() == 16


def test_even_lattices_have_no_odd_norms():
    for name in ("A2", "D4", "E8", "K12"):
        for m, c in theta_coefficients(catalog(name).gram, 7):
            if m % 2 == 1:
                assert c == 0, name


def test_unimodular_invariance():
    rng = random.Random(1)
    base = catalog("D4").gram
    ref = theta_coefficients(base, 6)
    n = base.n
    for _ in range(5):
        # random unimodular matrix from elementary row operations
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                u[i][k] += c * u[j][k]
        m = [[sum(u[i][k] * base.entries[k][l] for k in range(n))
              for l in range(n)] for i in range(n)]
        g = GramMatrix([[sum(m[i][k] * u[j][k] for k in range(n))
                         for j in range(n)] for i in range(n)])
        assert theta_coefficients(g, 6) == ref


def test_ill_conditioned_basis_counts_exactly():
    # a shear of 2^40 leaves float centres too coarse for the guard band
    # in the given basis; the reduced basis is well conditioned (the
    # search in the given basis found 2 of the 4 vectors of norm 12)
    G = [[8, 3, 4], [3, 10, 1], [4, 1, 4]]
    U = [[1, 0, 0], [0, 1, 0], [7, 2 ** 40 + 4088, 1]]
    H = [[sum(U[i][k] * G[k][m] * U[j][m] for k in range(3) for m in range(3))
          for j in range(3)] for i in range(3)]
    assert theta_coefficients(GramMatrix(H), 12) == \
        theta_coefficients(GramMatrix(G), 12)


def test_budget_enforced():
    with pytest.raises(BoundTooLarge):
        theta_coefficients(catalog("E8").gram, 30, budget=1000)
    # Z^12 is twelve one-dimensional summands, counted without a search
    series = theta.expand("theta3", 31) ** 12
    assert theta_coefficients(catalog("Z12").gram, 30, budget=1000) == \
        [(Fraction(m), series.coeff_at(m)) for m in range(31)]


def test_gram_from_generator():
    assert gram_from_generator([[1, 0], [0, 1]]).entries == \
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    g = gram_from_generator([[3, 4]])
    assert g.entries == ((Fraction(25),),)
    with pytest.raises(RankDeficient):
        gram_from_generator([[1, 2], [2, 4]])
    with pytest.raises(RankDeficient):
        gram_from_generator([[1, 0], [0, 1], [1, 1]])
    for ragged in ([[1, 0, 0], [0, 1]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="equal length"):
            gram_from_generator(ragged)


def test_gram_from_generator_matches_code_lattice():
    # integer generator rows recovered from the catalog Gram via its
    # exact factorization are not unique; instead check a D4 generator
    rows = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
    g = gram_from_generator(rows)
    assert g.determinant() == 4
    assert theta_coefficients(g, 6) == \
        theta_coefficients(catalog("D4").gram, 6)


def test_hnf_basis_squares_redundant_rows():
    rows = [[2, 0], [0, 2], [1, 1]]
    b = hnf_basis(rows)
    g = gram_from_generator(b)
    assert g.n == 2
    assert g.determinant() == 4  # index-2 sublattice of Z^2... checkerboard


def test_hnf_basis_ragged_rows():
    # as in gram_from_generator: neither a short first row nor a short
    # later one may be read as a shorter or padded row
    for ragged in ([[1], [0, 1]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="equal length"):
            hnf_basis(ragged)


def test_unknown_lattice():
    with pytest.raises(UnknownLattice):
        catalog("Leech")
    with pytest.raises(UnknownLattice):
        catalog("Z0")


def test_is_even_requires_integral():
    g = GramMatrix([[Fraction(1, 3), 0], [0, Fraction(2, 3)]])
    with pytest.raises(NotIntegral):
        g.is_even()


def test_gram_serde_round_trip():
    g = catalog("A2").gram
    assert GramMatrix.from_json(g.to_json()).entries == g.entries
    assert GramMatrix.from_text(g.to_text()).entries == g.entries


def test_exact_norms_with_large_denominators():
    # scaled by 2^62, these norms no longer fit int64: the counts must
    # still be exact
    g = GramMatrix([[Fraction(2 ** 62 + 1, 2 ** 62)]])
    assert theta_coefficients(g, 5) == [
        (Fraction(0), 1), (Fraction(2 ** 62 + 1, 2 ** 62), 2),
        (Fraction(2 ** 62 + 1, 2 ** 60), 2)]
    # norm 1 + 2^-40 lies inside the float guard band above the cutoff
    assert theta_coefficients(GramMatrix([[1 + Fraction(1, 2 ** 40)]]),
                              1) == [(Fraction(0), 1)]
    eps = Fraction(1, 2 ** 62)
    g = GramMatrix([[1, eps], [eps, 1]])
    assert theta_coefficients(g, 3) == [
        (Fraction(0), 1), (Fraction(1), 4), (2 - 2 * eps, 2),
        (2 + 2 * eps, 2)]
    # scale 2^40 with coprime summands 2^40 and 2^40 + 1: the counts stay
    # sparse, where a product on the 1/2^40 grid would need 31 * 2^40 slots
    b = 1 + Fraction(1, 2 ** 40)
    g = GramMatrix([[1, 0], [0, b]])
    norms = Counter(x * x + b * y * y
                    for x in range(-5, 6) for y in range(-5, 6))
    assert theta_coefficients(g, 30) == sorted(
        (m, c) for m, c in norms.items() if m <= 30)


def _half(gram):
    return GramMatrix([[x / 2 for x in row] for row in gram.entries])


@pytest.mark.parametrize("name, max_norm, nodes", [
    ("D4", 8, 131), ("E8", 4, 2712), ("ExampleDim8", 6, 1880),
    ("K12", 4, 1692), ("D4/2", 4, 131),
    # merged nodes count once: 24222 nodes before merging
    ("E8", 8, 1178)])
def test_node_budget_thresholds(name, max_norm, nodes):
    base = name.split("/")[0]
    g = catalog(base).gram
    if name.endswith("/2"):
        g = _half(g)
    theta_coefficients(g, max_norm, budget=nodes)
    with pytest.raises(BoundTooLarge):
        theta_coefficients(g, max_norm, budget=nodes - 1)


@pytest.mark.parametrize("name, norm", [("D4", 16), ("K12", 8),
                                        ("ExampleDim8", 8)])
def test_half_scaled_counts(name, norm):
    g = catalog(name).gram
    want = [(m / 2, c) for m, c in theta_coefficients(g, norm) if c]
    got = theta_coefficients(_half(g), Fraction(norm, 2))
    assert got == want
    assert all(type(m) is Fraction and type(c) is int for m, c in got)


def _box(gram, max_norm):
    """Bounds |x_k| <= sqrt(max_norm * (G^-1)_kk) of the search box."""
    n = gram.n
    G = [list(row) for row in gram.entries]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = G[c][c]
        G[c] = [x / p for x in G[c]]
        inv[c] = [x / p for x in inv[c]]
        for r in range(n):
            if r != c and G[r][c]:
                f = G[r][c]
                G[r] = [a - f * b for a, b in zip(G[r], G[c])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[c])]
    return [isqrt(floor(max_norm * inv[k][k])) for k in range(n)]


def _brute_force(gram, max_norm, box):
    """Counts by exact norms of every x in the box."""
    n = gram.n
    counts = {}
    for x in product(*(range(-b, b + 1) for b in box)):
        m = sum(gram.entries[i][j] * x[i] * x[j]
                for i in range(n) for j in range(n))
        if m <= max_norm:
            counts[m] = counts.get(m, 0) + 1
    if gram.is_integral():
        return [(Fraction(m), counts.get(m, 0))
                for m in range(floor(max_norm) + 1)]
    return sorted(counts.items())


_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _small_grams(draw):
    n = draw(st.integers(1, 4))
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = draw(st.builds(Fraction, st.integers(1, 6),
                                       st.integers(1, 3)))
        for j in range(i):
            entries[i][j] = entries[j][i] = draw(_rationals)
    try:
        return GramMatrix(entries)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(_small_grams(), st.builds(Fraction, st.integers(0, 12),
                                 st.integers(1, 3)))
def test_matches_brute_force(gram, max_norm):
    box = _box(gram, max_norm)
    assume(prod(2 * b + 1 for b in box) <= 2000)
    got = theta_coefficients(gram, max_norm)
    assert got == _brute_force(gram, max_norm, box)
    assert all(type(m) is Fraction and type(c) is int for m, c in got)


def test_search_reaching_cap_falls_back_to_python_ints(monkeypatch):
    # A2 in the basis (1, 0), (K, 1), where x = (-6K, 6) has norm 72;
    # the reduction searches it as A2, where x = (6, 0) has norm 72.
    # A cap of 3 admits int64, but the search ranges reach it, so the
    # search reruns with Python ints.
    K = 2 ** 29
    g = GramMatrix([[2, 2 * K + 1], [2 * K + 1, 2 * K * K + 2 * K + 2]])
    assert lattice._reduced(g)[1] in ([[2, 1], [1, 2]], [[2, -1], [-1, 2]])
    want = theta_coefficients(catalog("A2").gram, 72)
    assert theta_coefficients(g, 72) == want
    caps = []
    search = lattice._search

    def counting(G, L, d, C, qmax, budget, cap):
        caps.append(cap)
        return search(G, L, d, C, qmax, budget, cap)

    monkeypatch.setattr(lattice, "_search", counting)
    monkeypatch.setattr(lattice, "_int64_cap", lambda G, qmax: 3)
    assert theta_coefficients(g, 72) == want
    assert caps == [3, None]


def test_search_skips_a_batch_that_keeps_no_child():
    # A search of diag(2 CHUNK^2, 1) to C just below CHUNK^2: the range
    # of the root, x_1 = 0 .. CHUNK, takes in x_1 = CHUNK by the rounding
    # slack, which the float test then drops, as CHUNK^2 > C.  The root's
    # children are split into a batch of CHUNK, each with the one child
    # x_0 = 0, and a batch of x_1 = CHUNK alone, which keeps no child.
    chunk = lattice.CHUNK
    G = [[2 * chunk ** 2, 0], [0, 1]]
    C = float(np.nextafter(float(chunk ** 2), 0.0))
    qmax = chunk ** 2 - 1
    for cap in (lattice._int64_cap(G, qmax), None):
        tally, nodes = lattice._search(G, np.eye(2), [2.0 * chunk ** 2, 1.0],
                                       C, qmax, 10 ** 6, cap)
        assert tally == {x * x: 1 for x in range(1, chunk)}
        assert nodes == 2 * chunk


def _long_gram():
    """A Gram LLL leaves as it is, whose vectors (x, y) with y != 0 have
    norm at least 2e8 - 1/2: below that only the (x, 0), of norm 2 x^2,
    count."""
    g = GramMatrix([[2, 1], [1, 2 * 10 ** 8]])
    assert lattice._reduced(g)[1] == [[2, 1], [1, 2 * 10 ** 8]]
    return g


def _line_counts(qmax):
    """{q: A} of the vectors (x, 0) of `_long_gram` with norm q <= qmax."""
    counts = {2 * x * x: 2 for x in range(1, isqrt(qmax // 2) + 1)}
    counts[0] = 1
    return counts


def test_a_node_with_more_than_chunk_children_is_cut():
    # the zero node at level 0 has x = 0 .. 8660 as children, more than
    # CHUNK, so it is expanded a CHUNK at a time
    qmax = 15 * 10 ** 7
    assert isqrt(qmax // 2) + 1 > lattice.CHUNK
    want = _line_counts(qmax)
    assert lattice._norm_counts(_long_gram(), qmax) == (1, want)
    third = GramMatrix([[Fraction(x, 3) for x in row]
                        for row in _long_gram().entries])
    assert theta_coefficients(third, Fraction(qmax, 3)) == \
        [(Fraction(q, 3), k) for q, k in sorted(want.items())]


def test_a_range_below_the_root_that_reaches_the_cap_reruns(monkeypatch):
    # the root's range |y| <= 0.007 passes a cap of 10, but level 0's
    # |x| <= 70 reaches it, so `ranges` raises inside the search
    caps = []
    search = lattice._search

    def counting(G, L, d, C, qmax, budget, cap):
        caps.append(cap)
        return search(G, L, d, C, qmax, budget, cap)

    monkeypatch.setattr(lattice, "_search", counting)
    monkeypatch.setattr(lattice, "_int64_cap", lambda G, qmax: 10)
    assert lattice._norm_counts(_long_gram(), 10 ** 4) == \
        (1, _line_counts(10 ** 4))
    assert caps == [10, None]


def _split_gram():
    """Z + A2 + sqrt(3)Z, half-scaled, in the sheared basis U = I plus
    the subdiagonal and a corner one."""
    G = [[1, 0, 0, 0], [0, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 3]]
    U = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]]
    return GramMatrix([[Fraction(sum(U[i][k] * G[k][m] * U[j][m]
                                     for k in range(4) for m in range(4)), 2)
                        for j in range(4)] for i in range(4)])


def test_orthogonal_summands_are_counted_in_closed_form():
    g = _split_gram()
    s, G, L, d = lattice._reduced(g)
    lone = [i for i, row in enumerate(G)
            if not any(x for k, x in enumerate(row) if k != i)]
    assert sorted(G[i][i] for i in lone) == [1, 3]
    max_norm = Fraction(13, 2)
    got = theta_coefficients(g, max_norm)
    assert got == _brute_force(g, max_norm, _box(g, max_norm))
    half = Fraction(1, 2)
    series = (theta.expand("theta3", 7, half)
              * theta.expand("Theta_A2", 7, half)
              * theta.expand("theta3", 7, 3 * half))
    assert got == [(m, c) for m, c in series.terms() if m <= max_norm]


def _summand_charge(gram, norms, max_norm):
    """What the one-dimensional summands of a Gram's reduced basis are
    charged, starting from the integer norms `norms` of the rest: the
    number of norms <= max_norm left after each summand, summed."""
    s, G, _, _ = lattice._reduced(gram)
    qmax = floor(max_norm * s)
    charge = 0
    for i, row in enumerate(G):
        if not any(x for k, x in enumerate(row) if k != i):
            g = G[i][i]
            norms = {q + g * x * x for q in norms
                     for x in range(isqrt(qmax // g) + 1)
                     if q + g * x * x <= qmax}
            charge += len(norms)
    return charge


def _at_budget(gram, max_norm, budget):
    """theta_coefficients at the budget, and BoundTooLarge one below."""
    assert theta_coefficients(gram, max_norm, budget=budget)
    with pytest.raises(BoundTooLarge):
        theta_coefficients(gram, max_norm, budget=budget - 1)


def test_only_the_rest_of_a_split_gram_is_searched():
    # the nodes are those of the rest, the A2 block, searched alone, plus
    # the norms left by each summand
    g = _split_gram()
    s, G, L, d = lattice._reduced(g)
    rest = [i for i, row in enumerate(G)
            if any(x for k, x in enumerate(row) if k != i)]
    block = GramMatrix([[Fraction(G[i][k], s) for k in rest] for i in rest])
    assert lattice._reduced(block)[1] == [[G[i][k] for k in rest]
                                          for i in rest]
    for max_norm in (2, Fraction(13, 2), 20):
        tally, nodes = lattice._search(*_search_args(block, max_norm),
                                       10 ** 6, None)
        assert nodes > 0
        charge = _summand_charge(g, {0, *tally}, max_norm)
        assert charge > 0
        _at_budget(g, max_norm, nodes + charge)
    # a Gram that reduces to a diagonal one keeps no node and is charged
    # its summands alone
    for name in ("C2", "C3", "Z12"):
        for gram in (catalog(name).gram, _dual_gram(catalog(name).gram)):
            _at_budget(gram, 30, _summand_charge(gram, {0}, 30))


@st.composite
def _reordered(draw, gram):
    """U G U^T for a signed permutation U with up to three +-1 shears,
    the bases the benchmark's oracle workload draws."""
    n = gram.n
    U = [[0] * n for _ in range(n)]
    for row, p in zip(U, draw(st.permutations(range(n)))):
        row[p] = draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from((1, -1)))
        U[i] = [a + s * b for a, b in zip(U[i], U[j])]
    G = gram.entries
    return GramMatrix([[sum(U[i][k] * G[k][m] * U[j][m]
                            for k in range(n) for m in range(n))
                        for j in range(n)] for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_counts_do_not_depend_on_the_basis(data):
    name = data.draw(st.sampled_from(("random", "D4", "E8", "ExampleDim8")))
    if name == "random":
        gram = data.draw(_small_grams())
        max_norm = data.draw(st.builds(Fraction, st.integers(0, 12),
                                       st.integers(1, 3)))
        assume(prod(2 * b + 1 for b in _box(gram, max_norm)) <= 20000)
    else:
        gram = catalog(name).gram
        max_norm = {"D4": 8, "E8": 4, "ExampleDim8": 4}[name]
    other = data.draw(_reordered(gram))
    assert theta_coefficients(other, max_norm) == \
        theta_coefficients(gram, max_norm)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("Z3",))
def test_reduced_basis_of_the_catalog(name):
    """G'' is kept on the Gram, is a Gram of the same determinant, and
    meets the reduction's conditions exactly, up to its float slack."""
    g = catalog(name).gram
    s, H, L, d = lattice._reduced(g)
    assert lattice._reduced(g)[1] is H
    h = GramMatrix([[Fraction(x, s) for x in row] for row in H])
    assert h.determinant() == g.determinant()
    Lq, dq = h.ldl
    assert L.tolist() == [[float(x) for x in row] for row in Lq]
    assert d == [float(x) for x in dq]
    assert all(abs(Lq[i][k]) <= Fraction(str(lattice.LLL_ETA))
               for i in range(g.n) for k in range(i))
    delta = Fraction(str(lattice.LLL_DELTA))
    assert all(dq[k] >= (delta - Lq[k][k - 1] ** 2) * dq[k - 1]
               for k in range(1, g.n))


def test_reduction_of_a_block_diagonal_gram():
    """Rows 1, 3 and 4 start orthogonal to the rows before them, so their
    Gram-Schmidt coefficients are set to 0 and not summed; the 2x2 block
    [[2, 3], [3, 6]] is still reduced, to A2's Gram, and the rows are
    those the full update gave."""
    G = [[3, 0, 0, 0, 0], [0, 2, 3, 0, 0], [0, 3, 6, 0, 0],
         [0, 0, 0, 5, 0], [0, 0, 0, 0, 2]]
    given = [list(r) for r in G]
    assert lattice._lll(G) == [[2, -1, 0, 0, 0], [-1, 2, 0, 0, 0],
                               [0, 0, 2, 0, 0], [0, 0, 0, 3, 0],
                               [0, 0, 0, 0, 5]]
    assert G == given


def test_catalog_entries_are_built_once():
    for name in CATALOG_NAMES:
        assert catalog(name) is catalog(name)
    assert catalog("Z5") is not catalog("Z5")
    assert catalog("Z5") == catalog("Z5")
    with pytest.raises(UnknownLattice):
        catalog("Zn")


def test_reduced_grams_keep_their_basis():
    """A reduced Gram is searched as given, with its own factors."""
    for name in ("A2", "C2", "C3", "Z3"):
        for g in (catalog(name).gram, _dual_gram(catalog(name).gram)):
            s, H, L, d = lattice._reduced(g)
            assert H == [[x * s for x in row] for row in g.entries], name
            assert d == [float(x) for x in g.ldl[1]]


def _scalar_search(G, L, d, C, qmax):
    """({norm: half-vector count}, nodes) of a scalar Fincke-Pohst
    recursion with `_search`'s float test over the wider ranges
    int(c -+ r) -+ 1."""
    n = len(d)
    tally, nodes = {}, 0

    def expand(j, c, B, Q, P, zero):
        nonlocal nodes
        rem = C - P
        r = math.sqrt(max(rem, 0.0) / d[j])
        lo, hi = int(c[j] - r) - 1, int(c[j] + r) + 1
        for v in range(0 if zero else lo, hi + 1):
            t = v - c[j]
            contrib = d[j] * t * t
            if not contrib <= rem:
                continue
            nodes += 1
            Qc = Q + v * (2 * B[j] + G[j][j] * v)
            if j:
                expand(j - 1, [c[i] - L[j][i] * v for i in range(j)],
                       [B[i] + G[j][i] * v for i in range(j)], Qc,
                       P + contrib, zero and v == 0)
            elif Qc <= qmax and not (zero and v == 0):
                tally[Qc] = tally.get(Qc, 0) + 1

    expand(n - 1, [0.0] * n, [0] * n, 0, 0.0, True)
    return tally, nodes


@pytest.mark.parametrize("d0, ell, C", [
    # the child x_0 = -16 (-4) lies below fl(c - r), x_0 = 8 (14) above
    # fl(c + r), and the float test keeps it: contrib == rem
    ("0x1.3f366dfdf4c56p+0", "0x1.7115542b9279ap-2", "0x1.31fe25c86c2d4p+8"),
    ("0x1.8b1e158099466p+0", "0x1.63f3e15c2c60cp-1", "0x1.1db4dc92cff8ap+4"),
    ("0x1.831b1a2934262p-1", "0x1.d139d14fa9f50p-2", "0x1.b8527049a6ffep+5"),
    ("0x1.9072857145943p+0", "0x1.0bc0a7534fb04p-2", "0x1.3f26e0b68c5e4p+8"),
])
def test_tight_ranges_keep_children_at_the_rounding_edge(d0, ell, C):
    # float factors chosen so that x_1 = 1 leaves rem = C - 1 at the
    # centre c = -ell of x_0, where a kept child lies past the rounded
    # roots c -+ r of the test: only the slack puts it in range
    G = [[1, 0], [0, 1]]
    L = np.array([[1.0, 0.0], [float.fromhex(ell), 1.0]])
    d = [float.fromhex(d0), 1.0]
    C = float.fromhex(C)
    want = _scalar_search(G, L.tolist(), d, C, 10 ** 6)
    assert lattice._search(G, L, d, C, 10 ** 6, 10 ** 6,
                           lattice._int64_cap(G, 10 ** 6)) == want


_EPS = Fraction(1, 2 ** 62)


@pytest.mark.parametrize("entries", [
    # half-integer centres
    [[1, Fraction(1, 2)], [Fraction(1, 2), 1]],
    [[2, 1], [1, 2]],
    # centres a rounding away from integers
    [[1, _EPS], [_EPS, 1]],
    [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
    catalog("D4").gram.entries,
    catalog("C3").gram.entries,
])
def test_tight_ranges_keep_the_nodes_of_the_scalar_search(entries):
    # at cutoffs equal to the norms (and half-norms), exact float sums
    # make a child's contrib equal its budget rem
    gram = GramMatrix(entries)
    s, G = lattice._scale_to_integers(gram.entries)
    given = ([[float(x) for x in row] for row in gram.ldl[0]],
             [float(x) for x in gram.ldl[1]])
    bases = [(G,) + given, lattice._reduced(gram)[1:]]
    for G, L, d in bases:
        L = np.array(L)
        for C in [k / 2 for k in range(1, 17)] + [6 + 7e-9]:
            qmax = floor(C * s)
            want = _scalar_search(G, L.tolist(), d, C, qmax)
            for cap in (lattice._int64_cap(G, qmax), None):
                assert lattice._search(G, L, d, C, qmax, 10 ** 6, cap) \
                    == want, (C, cap)


def _search_args(gram, max_norm):
    """`_search`'s arguments for the reduced basis of a Gram."""
    s, G, L, d = lattice._reduced(gram)
    qmax = floor(max_norm * s)
    C = float(max_norm) + 1e-9 * (float(max_norm) + 1.0)
    return G, L, d, C, qmax


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merged_search_matches_the_scalar_search(data):
    # small entries, so that many prefixes share their partial sums;
    # with MERGE_MIN = 1 every batch is offered for merging, so small
    # trees merge too, and as merged nodes count once the merged search
    # keeps at most the scalar search's nodes
    n = data.draw(st.integers(3, 8))
    half = st.builds(Fraction, st.integers(-1, 1), st.sampled_from((1, 2)))
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = data.draw(st.builds(Fraction, st.integers(1, 4),
                                            st.sampled_from((1, 1, 2))))
        for j in range(i):
            entries[i][j] = entries[j][i] = data.draw(half)
    try:
        gram = GramMatrix(entries)
    except ValueError:
        assume(False)
    max_norm = data.draw(st.builds(Fraction, st.integers(1, 12),
                                   st.integers(1, 2)))
    G, L, d, C, qmax = _search_args(gram, max_norm)
    want, scalar_nodes = _scalar_search(G, L.tolist(), d, C, qmax)
    assume(scalar_nodes <= 20000)
    for merge_min in (1, lattice.MERGE_MIN):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "MERGE_MIN", merge_min)
            for cap in (lattice._int64_cap(G, qmax), None):
                tally, nodes = lattice._search(G, L, d, C, qmax, 10 ** 6, cap)
                assert tally == want and nodes <= scalar_nodes


@pytest.mark.parametrize("key", [
    # every row hashes alike: only the row check decides a merge
    lambda Q, B: np.zeros(len(Q), dtype=np.int64),
    # the all-zero prefix, Q = 0, gets the largest key
    lambda Q, B: -Q.astype(np.int64),
])
def test_merging_is_exact_whatever_the_key(monkeypatch, key):
    for name, norm in (("E8", 8), ("ExampleDim8", 10), ("K12", 6)):
        gram = catalog(name).gram
        G, L, d, C, qmax = _search_args(gram, norm)
        cap = lattice._int64_cap(G, qmax)
        want = _scalar_search(G, L.tolist(), d, C, qmax)[0]
        with monkeypatch.context() as mp:
            mp.setattr(lattice, "MERGE_MIN", 1)
            mp.setattr(lattice, "_key", key)
            for c in (cap, None):
                assert lattice._search(G, L, d, C, qmax, 10 ** 6, c)[0] \
                    == want, name


def test_merged_weights_add_exactly_past_int64():
    # Z^40 has 5e23 vectors of norm <= 40 and Z^64 4e19 of norm <= 16,
    # so the counts pass 2^53 and 2^63; theta_coefficients counts Z^n
    # as one-dimensional summands, without a search
    t3 = theta.expand("theta3", 41)
    for n, norm in ((40, 40), (64, 16)):
        got = theta_coefficients(catalog("Z%d" % n).gram, norm)
        series = t3 ** n
        assert got == [(Fraction(m), series.coeff_at(m))
                       for m in range(norm + 1)]
        assert max(c for _, c in got) > 2 ** 63
    # a search of Z^n merges on Q alone (B = 0), so its weights pass
    # 2^63 too: the Python-int search agrees, and int64 weights summing
    # past 2^63 are added exactly
    G, L, d, C, qmax = _search_args(catalog("Z40").gram, 40)
    assert lattice._search(G, L, d, C, qmax, 10 ** 6, None) == \
        lattice._search(G, L, d, C, qmax, 10 ** 6,
                        lattice._int64_cap(G, qmax))
    wt = np.array([2 ** 62, 2 ** 62, 3], dtype=np.int64)
    assert lattice._run_sums(wt, [0, 2]).tolist() == [2 ** 63, 3]
