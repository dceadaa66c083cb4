import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modlat import fixtures
from modlat.codes import (ALL_ELEMS, CodeOverR, RingElem,
                          check_hermitian_self_dual, construction_a_gram,
                          coset_theta, enumerate_codewords,
                          length_weight_enumerator, lwe_pretty,
                          theta_from_lwe)
from modlat.errors import EnumerationTooLarge
from modlat.lattice import theta_coefficients
from modlat.modform import decomposition_from_fixture, expand_decomposition
from modlat.qseries import first_mismatch
from modlat.theta import jacobi_theta3


def fixture_code():
    return CodeOverR.from_pairs(fixtures.PSOLE_DIM8_GENERATOR)


def test_length_table():
    assert RingElem(0, 0).length() == 0
    assert RingElem(1, 0).length() == 1
    assert RingElem(2, 0).length() == 1
    assert RingElem(0, 1).length() == 2
    assert RingElem(0, 2).length() == 2
    for a in (1, 2):
        for b in (1, 2):
            assert RingElem(a, b).length() == 3


def test_ring_structure():
    assert len(ALL_ELEMS) == 9
    v = RingElem(0, 1)
    assert v * v == RingElem(1, 0)
    one = RingElem(1, 0)
    x = RingElem(2, 1)
    assert x * one == x
    assert x + (-x) == RingElem(0, 0)
    assert v.conj() == RingElem(0, 2)
    for r in ALL_ELEMS:
        assert r.length() == r.conj().length()


def test_parse_elements():
    assert RingElem.parse("1+v") == RingElem(1, 1)
    assert RingElem.parse("2v") == RingElem(0, 2)
    assert RingElem.parse("0") == RingElem(0, 0)
    assert RingElem.parse("2,1") == RingElem(2, 1)


def test_enumerate_fixture_code():
    words = enumerate_codewords(fixture_code())
    assert len(words) == 81
    # closure under scalar multiplication by every ring element
    ws = set(words)
    for w in list(ws)[:10]:
        for r in ALL_ELEMS:
            assert tuple(r * x for x in w) in ws


def test_enumerate_edge_cases():
    zero = CodeOverR.from_pairs([[(0, 0), (0, 0)]])
    assert enumerate_codewords(zero) == {((0, 0) and RingElem(0, 0),
                                          RingElem(0, 0))} or \
        len(enumerate_codewords(zero)) == 1
    full = CodeOverR.from_pairs([[(1, 0)]])
    assert len(enumerate_codewords(full)) == 9
    with pytest.raises(EnumerationTooLarge):
        enumerate_codewords(fixture_code(), budget=10)


def _reference_words(code):
    """Every combination of the rows by a product over all scalars, in
    RingElem arithmetic."""
    zero = RingElem(0, 0)
    words = set()
    for scalars in itertools.product(ALL_ELEMS, repeat=len(code.rows)):
        w = [zero] * code.length
        for s, row in zip(scalars, code.rows):
            w = [wi + s * ri for wi, ri in zip(w, row)]
        words.add(tuple(w))
    return words


def _reference_lwe(code):
    out = {}
    for w in _reference_words(code):
        comp = [0, 0, 0, 0]
        for x in w:
            comp[x.length()] += 1
        out[tuple(comp)] = out.get(tuple(comp), 0) + 1
    return out


def _reference_self_dual(code):
    for i, ri in enumerate(code.rows):
        for j, rj in enumerate(code.rows):
            s = RingElem(0, 0)
            for x, y in zip(ri, rj):
                s = s + x * y.conj()
            if not s.is_zero():
                return False, ("rows %d and %d have Hermitian inner product %s"
                               % (i, j, s))
    size = len(_reference_words(code))
    if size * size != 9 ** code.length:
        return False, ("|C|^2 = %d != 9^%d" % (size * size, code.length))
    return True, "self-dual: %d codewords, all generator pairs orthogonal" % size


@st.composite
def _codes(draw):
    """0-3 rows of length 0-5; a row may combine the rows before it."""
    k = draw(st.integers(0, 5))
    elems = st.sampled_from(ALL_ELEMS)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            row = [RingElem(0, 0)] * k
            for r in rows:
                s = draw(elems)
                row = [x + s * y for x, y in zip(row, r)]
        else:
            row = draw(st.lists(elems, min_size=k, max_size=k))
        rows.append(tuple(row))
    return CodeOverR(tuple(rows))


@settings(max_examples=100, deadline=None)
@given(_codes())
def test_index_kernel_matches_ring_arithmetic(code):
    assert enumerate_codewords(code) == _reference_words(code)
    assert length_weight_enumerator(code) == _reference_lwe(code)
    assert check_hermitian_self_dual(code) == _reference_self_dual(code)


def test_budget_bounds_the_row_combinations():
    code = fixture_code()
    m = len(code.rows)
    assert len(enumerate_codewords(code, budget=9 ** m)) == 81
    assert sum(length_weight_enumerator(code, budget=9 ** m).values()) == 81
    for f in (enumerate_codewords, length_weight_enumerator,
              check_hermitian_self_dual):
        with pytest.raises(EnumerationTooLarge):
            f(code, budget=9 ** m - 1)


def test_enumeration_builds_no_ring_elements(monkeypatch):
    code = fixture_code()
    built = []
    monkeypatch.setattr(RingElem, "__post_init__",
                        lambda self: built.append(self))
    words = enumerate_codewords(code)
    length_weight_enumerator(code)
    assert built == []
    assert all(x is ALL_ELEMS[3 * x.a + x.b] for w in words for x in w)


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="equal length"):
        CodeOverR.from_pairs([[(1, 0), (0, 0), (0, 1)], [(0, 0), (1, 0)]])
    with pytest.raises(ValueError, match="equal length"):
        CodeOverR.parse("1 0 v\n0 1\n")


def test_lwe_polynomial():
    lwe = length_weight_enumerator(fixture_code())
    assert sum(lwe.values()) == 81
    assert lwe[(4, 0, 0, 0)] == 1
    assert lwe_pretty(lwe) == ("a^4 + 4a^2d^2 + 16abcd + 8ad^3 + 8b^3d"
                               + " + 4b^2c^2 + 24bcd^2 + 8c^3d + 8d^4")


def test_lwe_edge_cases():
    zero = CodeOverR.from_pairs([[(0, 0), (0, 0), (0, 0)]])
    assert length_weight_enumerator(zero) == {(3, 0, 0, 0): 1}
    full = CodeOverR.from_pairs([[(1, 0)]])
    assert length_weight_enumerator(full) == \
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 2, (0, 0, 0, 1): 4}


def test_self_dual_check():
    ok, cert = check_hermitian_self_dual(fixture_code())
    assert ok, cert
    full = CodeOverR.from_pairs([[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert not check_hermitian_self_dual(full)[0]
    zero2 = CodeOverR.from_pairs([[(0, 0), (0, 0)]])
    assert not check_hermitian_self_dual(zero2)[0]


def test_construction_a_gram_fixture():
    g = construction_a_gram(fixture_code())
    assert g.n == 8
    assert g.is_integral()
    assert not g.is_even()
    assert g.determinant() == 16
    assert theta_coefficients(g, 4) == [(0, 1), (1, 0), (2, 32), (3, 128),
                                        (4, 240)]


def test_construction_a_zero_code():
    zero = CodeOverR.from_pairs([[(0, 0)]])
    with pytest.warns(UserWarning):
        g = construction_a_gram(zero)
    assert g.entries == ((Fraction(3), Fraction(0)),
                         (Fraction(0), Fraction(6)))


def test_construction_a_full_code_non_integral():
    full = CodeOverR.from_pairs([[(1, 0)]])
    with pytest.warns(UserWarning):
        g = construction_a_gram(full)
    assert not g.is_integral()
    assert g.determinant() == Fraction(2, 9)
    assert sorted(x for row in g.entries for x in row if x) == \
        [Fraction(1, 3), Fraction(2, 3)]


def test_theta_from_lwe_fixture():
    lwe = length_weight_enumerator(fixture_code())
    s = theta_from_lwe(lwe, 5)
    assert [s.coeff_at(e) for e in range(5)] == [1, 0, 32, 128, 240]


def test_theta_from_lwe_is_the_dim8_row():
    # the code's lattice is the table's dim8, at every quarter-step order
    lwe = length_weight_enumerator(fixture_code())
    d = decomposition_from_fixture(fixtures.table_row("dim8"))
    for k in range(32, 193):
        order = Fraction(k, 4)
        assert theta_from_lwe(lwe, order) == expand_decomposition(d, order)


def test_theta_from_lwe_zero_code():
    s = theta_from_lwe({(2, 0, 0, 0): 1}, 12)
    theta0 = coset_theta(0, 12)
    assert first_mismatch(s, theta0 * theta0) is None


def test_lwe_gram_oracle_equivalence():
    code = fixture_code()
    s = theta_from_lwe(length_weight_enumerator(code), 7)
    g = construction_a_gram(code)
    for m, c in theta_coefficients(g, 6):
        assert s.coeff_at(m) == c


def test_coset_completeness():
    order = Fraction(12)
    total = (coset_theta(0, order)
             + coset_theta(1, order).scalar_mul(2)
             + coset_theta(2, order).scalar_mul(2)
             + coset_theta(3, order).scalar_mul(4))
    full = (jacobi_theta3(order, Fraction(1, 3))
            * jacobi_theta3(order, Fraction(2, 3)))
    assert first_mismatch(total, full) is None
