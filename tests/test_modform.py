import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modlat.errors import (EmptyBasis, InconsistentSurplus, SingularSystem,
                           UnsupportedLevel)
from modlat import fixtures, lattice, modform
from modlat.lattice import (CATALOG_NAMES, GramMatrix, _dual_gram, catalog,
                            theta_coefficients)
from modlat.modform import (BasisSpec, ThetaDecomposition, build_basis,
                            certified_decomposition, check_table_row,
                            decomposition_from_fixture, expand_decomposition,
                            solve_coefficients)
from modlat.qseries import first_mismatch
from modlat.theta import expand


def test_build_basis_shapes():
    assert build_basis(2, 16, "even").terms == ((4, 0), (0, 1))
    assert build_basis(2, 8, "general").terms == ((4, 0), (2, 1), (0, 2))
    assert build_basis(3, 24, "even").terms == ((12, 0), (6, 1), (0, 2))
    assert build_basis(1, 8, "even").terms == ((1, 0),)


def test_build_basis_errors():
    with pytest.raises(UnsupportedLevel):
        build_basis(5, 8, "even")
    with pytest.raises(UnsupportedLevel):
        build_basis(3, 8, "general")
    with pytest.raises(EmptyBasis):
        build_basis(1, 2, "even")


def test_solve_bw16():
    basis = build_basis(2, 16, "even")
    known = theta_coefficients(catalog("BW16").gram, 8)
    d = solve_coefficients(basis, known)
    assert d.coeffs == (1, -96)
    assert d.pretty() == "Theta_D4^4 - 96*Delta_16"


def test_solve_needs_row_exchange_or_is_singular():
    known = theta_coefficients(catalog("BW16").gram, 8)
    # Delta_16 first: its q^0 coefficient is 0, so rows must be exchanged
    swapped = BasisSpec(2, "even", 16, ((0, 1), (4, 0)))
    assert solve_coefficients(swapped, known).coeffs == (-96, 1)
    with pytest.raises(SingularSystem):
        solve_coefficients(BasisSpec(2, "even", 16, ((4, 0), (4, 0))), known)


def test_solve_example_dim8():
    basis = build_basis(2, 8, "general")
    known = theta_coefficients(catalog("ExampleDim8").gram, 8)
    d = solve_coefficients(basis, known)
    assert d.coeffs == (1, -8, 0)


def test_solve_k12():
    basis = build_basis(3, 12, "even")
    known = theta_coefficients(catalog("K12").gram, 8)
    d = solve_coefficients(basis, known)
    assert d.coeffs == (1, -36)


def test_solve_e8_level1():
    basis = build_basis(1, 8, "even")
    known = theta_coefficients(catalog("E8").gram, 8)
    d = solve_coefficients(basis, known)
    assert d.coeffs == (1,)
    s = expand_decomposition(d, 10)
    assert first_mismatch(s, expand("Theta_E8", 10)) is None


def test_expand_bw16_decomposition():
    d = ThetaDecomposition(build_basis(2, 16, "even"), (Fraction(1),
                                                        Fraction(-96)))
    s = expand_decomposition(d, 8)
    assert s.coeff_at(0) == 1
    assert s.coeff_at(2) == 0
    assert s.coeff_at(4) == 4320


def test_expand_dim8_decomposition():
    row = fixtures.table_row("dim8")
    s = expand_decomposition(decomposition_from_fixture(row), 5)
    assert [s.coeff_at(e) for e in range(5)] == [1, 0, 32, 128, 240]


def test_inconsistent_surplus():
    basis = build_basis(2, 16, "even")
    known = theta_coefficients(catalog("BW16").gram, 8)
    bad = [(m, c + (1 if m == 6 else 0)) for m, c in known]
    with pytest.raises(InconsistentSurplus):
        solve_coefficients(basis, bad)


def test_round_trip_random():
    rng = random.Random(31337)
    shapes = ([build_basis(2, n, "even") for n in (8, 16, 24)]
              + [build_basis(3, n, "even") for n in (12, 24)]
              + [build_basis(2, n, "general") for n in (8, 16, 30)]
              + [build_basis(1, 8, "even")])
    for basis in shapes:
        for _ in range(25):
            coeffs = (Fraction(1),) + tuple(
                Fraction(rng.randrange(-300, 300))
                for _ in basis.terms[1:])
            d = ThetaDecomposition(basis, coeffs)
            s = expand_decomposition(d, 12)
            known = [(basis.step * i, s.coeff_at(basis.step * i))
                     for i in range(len(basis.terms))]
            back = solve_coefficients(basis, known, surplus_depth=0)
            assert back.coeffs == coeffs


def test_verify_table_rows():
    for row in fixtures.TABLE1 + fixtures.TABLE2:
        problems = check_table_row(row)[1]
        assert not problems, "%s: %s" % (row.name, problems)


def test_verify_table_enumerates_to_one_depth_rule(monkeypatch):
    # the Sturm depth where the gate proves the catalog Gram, the norm-8
    # spot check for ExampleDim8, which is odd
    names = {catalog(name).gram: name for name in CATALOG_NAMES}
    depths = []

    def recorder(gram, max_norm, budget):
        depths.append((names[gram], max_norm))
        return theta_coefficients(gram, max_norm, budget)

    monkeypatch.setattr(modform, "theta_coefficients", recorder)
    assert not any(check_table_row(row)[1] for row in fixtures.TABLE1)
    assert depths == [("A2", 0), ("D4", 0), ("K12", 4), ("BW16", 4)]
    del depths[:]
    assert not any(check_table_row(row)[1] for row in fixtures.TABLE2)
    assert depths == [("ExampleDim8", 8)]


def test_verify_table_lists_a_contradicting_count(monkeypatch):
    bw16 = catalog("BW16").gram

    def altered(gram, max_norm, budget):
        return [(m, c + (gram == bw16 and m == 4))
                for m, c in theta_coefficients(gram, max_norm, budget)]

    monkeypatch.setattr(modform, "theta_coefficients", altered)
    report = {row.name: check_table_row(row)[1] for row in fixtures.TABLE1}
    assert [name for name, problems in report.items() if problems] == ["BW16"]
    (problem,) = report["BW16"]
    assert "at q^4" in problem


def test_table_row_and_solve_messages(monkeypatch):
    # a row failing each check of check_table_row, and each refusal of
    # solve_coefficients, with its message
    def problems(*row, gram=None):
        return check_table_row(fixtures.TableRow(*row, 0.0, gram))[1]

    assert problems(16, "const", 2, "even", (2, -96)) == [
        "constant term 2 != 1"]
    assert problems(16, "third", 2, "even", (1, Fraction(1, 3))) == [
        "coefficient 289/3 at q^2 not a count",
        "coefficient 10648/3 at q^4 not a count",
        "coefficient 1586656/3 at q^8 not a count"]
    assert problems(16, "negative", 2, "even", (1, -200)) == [
        "coefficient -104 at q^2 not a count"]
    assert problems(16, "BW16", 2, "even", (1, -95), gram="BW16") == [
        "catalog Gram gives Theta_D4^4 - 96*Delta_16"]
    surplus = ("solution gives coefficient %s at q^%s but %s was supplied; "
               "wrong level, parity or basis shape for this lattice")
    assert problems(8, "dim8", 2, "even", (1,), gram="ExampleDim8") == [
        "catalog Gram: " + surplus % (48, 2, 32)]
    # the general shape read with step 2: its odd exponents are flagged
    monkeypatch.setitem(modform._SHAPES, ("general", 2),
                        modform._SHAPES["general", 2]._replace(step=2))
    assert problems(8, "odd", 2, "general", (1, -8, 0)) == [
        "odd-exponent term q^%d in even lattice" % e for e in (3, 5, 7, 9)]
    assert problems(8, "mixed", 2, "general", (1, Fraction(-17, 2), 0)) == [
        "coefficient -1/2 at q^1 not a count",
        "odd-exponent term q^1 in even lattice",
        "odd-exponent term q^3 in even lattice",
        "odd-exponent term q^5 in even lattice",
        "odd-exponent term q^7 in even lattice",
        "coefficient 6155/2 at q^9 not a count",
        "odd-exponent term q^9 in even lattice"]
    monkeypatch.undo()

    bw16, dim8 = build_basis(2, 16, "even"), build_basis(2, 8, "general")
    known = theta_coefficients(catalog("BW16").gram, 8)
    with pytest.raises(ValueError,
                       match=r"^need theta coefficients at exponents \[2\]$"):
        solve_coefficients(bw16, [(0, 1)])
    with pytest.raises(ValueError,
                       match=r"^need theta coefficients at exponents \[1\]$"):
        solve_coefficients(dim8, [(Fraction(1, 2), 3), (0, 1), (2, 5)])
    bad = [(m, c + (m == 6)) for m, c in known]
    with pytest.raises(InconsistentSurplus) as exc:
        solve_coefficients(bw16, bad)
    assert str(exc.value) == surplus % (61440, 6, 61441)
    # a norm given twice counts with its last count
    assert solve_coefficients(bw16, bad + known).coeffs == (1, -96)
    with pytest.raises(InconsistentSurplus):
        solve_coefficients(bw16, known + bad)
    # a half-scaled Gram has counts at half-integral norms
    half = GramMatrix([[Fraction(x, 2) for x in row]
                       for row in catalog("ExampleDim8").gram.entries])
    with pytest.raises(InconsistentSurplus) as exc:
        solve_coefficients(dim8, theta_coefficients(half, 4))
    assert str(exc.value) == surplus % (0, "3/2", 128)


def test_even_fixture_expansions_are_even():
    for row in fixtures.TABLE1:
        s = expand_decomposition(decomposition_from_fixture(row), 10)
        for e, c in s.terms():
            assert e.denominator == 1 and int(e) % 2 == 0


def test_fixture_expansions_are_counts():
    for row in fixtures.TABLE1 + fixtures.TABLE2:
        s = expand_decomposition(decomposition_from_fixture(row), 10)
        assert s.coeff_at(0) == 1
        for _, c in s.terms():
            assert c.denominator == 1 and c >= 0


def test_decomposition_serde_round_trip():
    row = fixtures.table_row("L24.2")
    d = decomposition_from_fixture(row)
    back = ThetaDecomposition.from_json_dict(d.to_json_dict())
    assert back.coeffs == d.coeffs
    assert back.basis == d.basis
    assert d.pretty() == \
        "Theta_A2^12 - 72*Theta_A2^6*Delta_12 - 216*Delta_12^2"


def _direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    k = 0
    for g in grams:
        for i, row in enumerate(g):
            out[k + i][k:k + len(row)] = row
        k += len(g)
    return GramMatrix(out)


@pytest.mark.parametrize("name,fixture", [
    ("E8", None), ("D4", "D4"), ("A2", "A2"), ("K12", "K12"),
    ("BW16", "BW16")])
def test_certified_decomposition_of_even_modular_grams(name, fixture):
    d = certified_decomposition(catalog(name).gram)
    if fixture is None:  # E8: Theta_E8 itself, level 1
        assert (d.basis, d.coeffs) == (build_basis(1, 8, "even"), (1,))
    else:
        assert d == decomposition_from_fixture(fixtures.table_row(fixture))


def _entries(name):
    return [list(row) for row in catalog(name).gram.entries]


@pytest.mark.parametrize("gram", [
    # odd: C2 and ExampleDim8 (level 4 too), and I_8 + 2*E8, which is
    # odd alone: level 2 and det 2^8 = 2^(16/2)
    catalog("C2").gram, catalog("ExampleDim8").gram,
    _direct_sum([[int(i == j) for j in range(8)] for i in range(8)],
                [[2 * x for x in row] for row in _entries("E8")]),
    # level 4 alone: 2*I_2 is even with det 4 = 4^(2/2)
    GramMatrix([[2, 0], [0, 2]]),
    # det alone: E8 + D4 is even of level 2, det 4 != 2^6
    _direct_sum(_entries("E8"), _entries("D4")),
    # rational, refused without NotIntegral
    GramMatrix([[Fraction(x, 2) for x in row] for row in _entries("D4")]),
])
def test_certified_decomposition_gate(monkeypatch, fresh_certificates, gram):
    calls = []
    monkeypatch.setattr(modform, "theta_coefficients",
                        lambda *a: calls.append(a))
    assert certified_decomposition(gram) is None
    assert calls == []  # refused before anything is enumerated


def test_gate_conditions_fail_one_at_a_time():
    # the inputs above: the level of G is the least N with N*G^-1
    # integral with an even diagonal
    i8_2e8 = _direct_sum([[int(i == j) for j in range(8)] for i in range(8)],
                         [[2 * x for x in row] for row in _entries("E8")])
    e8_d4 = _direct_sum(_entries("E8"), _entries("D4"))
    assert not i8_2e8.is_even() and i8_2e8.determinant() == 2 ** 8
    assert e8_d4.is_even() and e8_d4.determinant() == 4
    assert modform._gate_level(i8_2e8) is None
    assert modform._gate_level(e8_d4) is None
    assert [modform._gate_level(catalog(name).gram)
            for name in ("E8", "D4", "A2", "K12", "BW16")] == [1, 2, 3, 3, 2]


def _fraction_level(gram):
    """The least N with N*G^-1 integral with an even diagonal, read from
    the Fractions of G^-1."""
    return lcm(*((x / 2 if i == j else x).denominator
                 for i, row in enumerate(lattice._inverse(gram))
                 for j, x in enumerate(row)))


def test_level_from_the_adjugate_matches_the_fractions():
    for name in CATALOG_NAMES + ("Z3",):
        g = catalog(name).gram
        half = GramMatrix([[x / 2 for x in row] for row in g.entries])
        for h in (g, _dual_gram(g), half):
            assert modform._level(h) == _fraction_level(h), name


@st.composite
def _even_grams(draw):
    n = draw(st.integers(1, 6))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = 2 * draw(st.integers(1, 6))
        for j in range(i):
            entries[i][j] = entries[j][i] = draw(st.integers(-3, 3))
    try:
        return GramMatrix(entries)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(_even_grams())
def test_level_of_random_even_grams(gram):
    assert modform._level(gram) == _fraction_level(gram)


def test_certified_decomposition_checks_to_the_sturm_depth(
        monkeypatch, fresh_certificates):
    # BW16: two basis terms fixed by A_0 and A_2; the Sturm depth
    # 2*floor(16*3/24) = 4 leaves A_4 as the check, and dim M_8(Gamma_0(2))
    # = 3 exceeds the span's 2, so a count there can contradict it
    g = catalog("BW16").gram
    depths = []

    def altered(gram, max_norm, budget):
        depths.append(max_norm)
        return [(m, c + (m == 4)) for m, c in theta_coefficients(
            gram, max_norm, budget)]

    monkeypatch.setattr(modform, "theta_coefficients", altered)
    assert certified_decomposition(g) is None
    assert depths == [4]
