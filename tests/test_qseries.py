import copy
import pickle
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modlat.errors import NotInvertible, QueryBeyondTruncation
from modlat import qseries
from modlat.qseries import QSeries, _rational, first_mismatch
from modlat.theta import eta, jacobi_theta3, jacobi_theta4


def F(x):
    return Fraction(x)


def random_series(rng, trunc=16):
    terms = []
    for _ in range(rng.randrange(0, 6)):
        num = rng.randrange(0, trunc * 2)
        den = rng.choice((1, 2, 3))
        e = Fraction(num, den)
        if e < trunc:
            terms.append((e, Fraction(rng.randrange(-9, 10),
                                      rng.choice((1, 2, 3)))))
    return QSeries.from_terms(terms, Fraction(trunc))


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)),
                                   copy.deepcopy, copy.copy])
def test_pickle_and_copy(clone):
    for s in (QSeries.one(4), QSeries.zero(), jacobi_theta3(Fraction(21, 2)),
              QSeries.from_terms([(Fraction(1, 3), Fraction(-2, 5)), (4, 7)], 9)):
        t = clone(s)
        assert t == s and hash(t) == hash(s)
        assert (t.den, t.coeffs, t.trunc) == (s.den, s.coeffs, s.trunc)


def test_add_coefficientwise():
    a = QSeries.from_terms([(0, 1), (1, 2)], 8)
    b = QSeries.from_terms([(1, 3), (2, 1)], 8)
    s = a + b
    assert s.coeff_at(0) == 1
    assert s.coeff_at(1) == 5
    assert s.coeff_at(2) == 1


def test_add_zero_identity():
    a = QSeries.from_terms([(0, 1), (3, -7)], 10)
    assert first_mismatch(a + QSeries.zero(10), a) is None


def test_add_theta3_theta4_even_survivors():
    # theta3 + theta4: odd-square exponents cancel, even squares double
    s = jacobi_theta3(10) + jacobi_theta4(10)
    expect = QSeries.from_terms(
        [(m * m, 4) for m in range(1, 4) if m * m < 10 and m % 2 == 0]
        + [(0, 2)], 10)
    assert first_mismatch(s, expect) is None


def test_mul_basic():
    a = QSeries.from_terms([(0, 1), (1, 1)], 8)
    b = QSeries.from_terms([(0, 1), (1, -1)], 8)
    p = a * b
    assert p.coeff_at(0) == 1
    assert p.coeff_at(1) == 0
    assert p.coeff_at(2) == -1


def test_mul_theta3_scaled_product():
    # theta3(3t) * theta3(6t) = 1 + 2q^3 + 2q^6 + ...
    p = jacobi_theta3(12, 3) * jacobi_theta3(12, 6)
    assert p.coeff_at(0) == 1
    assert p.coeff_at(3) == 2
    assert p.coeff_at(6) == 2
    assert p.coeff_at(1) == 0
    assert p.coeff_at(2) == 0


def test_divide_by_scalar():
    a = QSeries.from_terms([(F("1/2"), 3), (2, -1)], 9)
    assert a / 4 == Fraction(1, 4) * a
    assert a / F("3/2") == QSeries.from_terms([(F("1/2"), 2),
                                               (2, F("-2/3"))], 9)
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_mul_one_identity():
    a = QSeries.from_terms([(F("1/2"), 3), (2, -1)], 9)
    assert first_mismatch(a * QSeries.one(9), a) is None


def test_pow_d4_fourth():
    d4 = QSeries.from_terms([(0, 1), (2, 24), (4, 24), (6, 96)], 8)
    p = d4 ** 4
    assert p.coeff_at(0) == 1
    assert p.coeff_at(2) == 96


def test_pow_zero_and_one():
    s = QSeries.from_terms([(1, 5), (2, -3)], 7)
    assert first_mismatch(s ** 0, QSeries.one(7)) is None
    assert first_mismatch(s ** 1, s) is None


def test_scale_argument_theta3():
    t3 = jacobi_theta3(16)
    scaled = t3.scale_argument(3)
    assert scaled.coeff_at(3) == 2
    assert scaled.coeff_at(12) == 2
    assert scaled.coeff_at(1) == 0
    third = t3.scale_argument(F("1/3"))
    assert third.coeff_at(F("1/3")) == 2
    assert third.den % 3 == 0 or third.coeff_at(F("4/3")) == 2


def test_scale_argument_identity():
    s = QSeries.from_terms([(2, 1), (4, -8)], 8)
    assert first_mismatch(s.scale_argument(1), s) is None


def test_coeff_at_values_and_truncation_error():
    d4 = QSeries.from_terms([(0, 1), (2, 24), (4, 24), (6, 96)], 8)
    assert d4.coeff_at(2) == 24
    assert d4.coeff_at(3) == 0
    d16 = QSeries.from_terms([(2, 1), (4, -8), (6, 12)], 8)
    assert d16.coeff_at(4) == -8
    with pytest.raises(QueryBeyondTruncation):
        d4.coeff_at(8)


def test_invert_geometric():
    a = QSeries.from_terms([(0, 1), (1, -1)], 10)
    inv = a.invert_unit()
    for e in range(8):
        assert inv.coeff_at(e) == 1


def test_invert_shifted_unit():
    a = QSeries.from_terms([(1, 1), (2, 1)], 10)
    inv = a.invert_unit()
    assert inv.leading_exponent() == -1
    prod = a * inv
    assert prod.coeff_at(0) == 1
    for e in range(1, 6):
        assert prod.coeff_at(e) == 0


def test_invert_zero_raises():
    with pytest.raises(NotInvertible):
        QSeries.zero(8).invert_unit()


def test_eta_times_inverse_is_one():
    from modlat.theta import eta
    e = eta(10)
    prod = e * e.invert_unit()
    assert prod.coeff_at(0) == 1
    for e2 in range(1, 6):
        assert prod.coeff_at(e2) == 0


def test_ring_axioms_random():
    rng = random.Random(20260826)
    for _ in range(100):
        a, b, c = (random_series(rng) for _ in range(3))
        assert first_mismatch(a + b, b + a) is None
        assert first_mismatch((a + b) + c, a + (b + c)) is None
        assert first_mismatch(a * b, b * a) is None
        assert first_mismatch((a * b) * c, a * (b * c)) is None
        assert first_mismatch(a * (b + c), a * b + a * c) is None


def test_scale_argument_composes():
    rng = random.Random(7)
    for _ in range(20):
        s = random_series(rng)
        a, b = F("3/2"), F("2/3")
        lhs = s.scale_argument(a).scale_argument(b)
        rhs = s.scale_argument(a * b)
        assert first_mismatch(lhs, rhs) is None


def test_pow_additivity():
    rng = random.Random(99)
    for _ in range(20):
        s = random_series(rng)
        assert first_mismatch(s ** 5, (s ** 2) * (s ** 3)) is None


def test_serialization_round_trips():
    rng = random.Random(4)
    for _ in range(20):
        s = random_series(rng)
        assert first_mismatch(QSeries.from_json(s.to_json()), s) is None
        assert first_mismatch(QSeries.from_text(s.to_text()), s) is None
        again = QSeries.from_json(s.to_json())
        assert again.to_json() == s.to_json()


def test_normalization_minimal_denominator():
    s = QSeries.from_terms([(Fraction(2, 2), 1), (2, 5)], 8)
    assert s.den == 1


def schoolbook(a, b):
    """a*b term by term, below the smaller truncation order."""
    t = min(a.trunc, b.trunc)
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            if ea + eb < t:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return QSeries.from_terms(out.items(), t)


@st.composite
def series(draw):
    """Sparse series on a 1/den grid with rational coefficients of either
    sign, sometimes inverted, which shifts the exponents below 0."""
    den = draw(st.sampled_from([1, 2, 3, 4, 12]))
    trunc = Fraction(draw(st.integers(1, 8 * den)), den)
    limit = int(trunc * den - Fraction(1, 2)) + 1  # numerators below trunc
    coeff = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.sampled_from([1, 1, 2, 3, 7, 60]))
    terms = draw(st.lists(st.tuples(st.integers(0, limit - 1), coeff),
                          max_size=10))
    s = QSeries.from_terms([(Fraction(n, den), c) for n, c in terms], trunc)
    if not s.is_zero() and s.leading_exponent() < trunc / 2 \
            and draw(st.booleans()):
        s = s.truncate(min(trunc, s.leading_exponent() + 3)).invert_unit()
    return s


@settings(max_examples=60, deadline=None)
@given(series(), series())
def test_product_matches_schoolbook(a, b):
    assert a * b == schoolbook(a, b)
    assert (a * b).to_text() == schoolbook(a, b).to_text()
    assert a * a == schoolbook(a, a)


def convolution(a, b, m):
    """The first m coefficients of the product of integer vectors a, b."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(m)]


def extreme_vectors(la, lb, bits, signs):
    """Vectors of lengths la, lb at the largest magnitudes whose slot
    bound in `_product` is `bits` bits: all one sign ("same"), of
    opposite signs ("opposite"), or alternating ("alternate")."""
    spare = bits - 1 - min(la, lb).bit_length()
    ka = spare // 2
    ma, mb = 2 ** ka - 1, 2 ** (spare - ka) - 1
    if signs == "same":
        return [ma] * la, [mb] * lb
    if signs == "opposite":
        return [-ma] * la, [mb] * lb
    return [(-1) ** i * ma for i in range(la)], \
        [(-1) ** (i // 2) * mb for i in range(lb)]


@pytest.mark.parametrize("signs", ["same", "opposite", "alternate"])
@pytest.mark.parametrize("la, lb", [(1, 1), (1, 6), (5, 1), (3, 7), (8, 8)])
@pytest.mark.parametrize("width, step", [(1, 2), (2, 4), (4, 8), (8, 9)])
def test_product_at_each_slot_width(width, step, la, lb, signs):
    # bits = 8*width fills slots of `width` bytes; one bit more steps to
    # the next width, 9 bytes and past that one entry at a time
    for bits, slot in ((8 * width, width), (8 * width + 1, step)):
        a, b = extreme_vectors(la, lb, bits, signs)
        assert (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + min(la, lb).bit_length() + 1) == bits
        size, code = qseries._slot(bits)
        assert size == slot
        assert code is None if slot > 8 else \
            array(code).itemsize == slot
        full = la + lb - 1
        for m in {1, (full + 1) // 2, full, full + 2}:
            assert qseries._product(a, b, m) == convolution(a, b, m)
            assert qseries._product(a, a, m) == convolution(a, a, m)


@settings(max_examples=40, deadline=None)
@given(series())
def test_inverse_times_series_is_one(s):
    if s.is_zero():
        return
    inv = s.invert_unit()
    assert inv.trunc == s.trunc - 2 * s.leading_exponent()
    t = min(s.trunc, inv.trunc)
    assert schoolbook(s, inv) == QSeries.from_terms([(0, 1)], t)


@pytest.mark.parametrize("scale", [Fraction(1, 2), 1, 2, 3, 6])
@pytest.mark.parametrize("order", [1, 5, Fraction(37, 4), 60])
def test_pentagonal_eta_is_the_product(scale, order):
    # eta(s*tau) = q^(s/12) * prod_{m >= 1} (1 - q^(2*m*s))
    order, scale = Fraction(order), Fraction(scale)
    prod = QSeries.from_terms([(scale / 12, 1)], order)
    m = 1
    while 2 * m * scale < order:
        prod = schoolbook(prod, QSeries.from_terms(
            [(0, 1), (2 * m * scale, -1)], order))
        m += 1
    assert eta(order, scale) == prod


def _reading(read, s):
    """read(s), or the type of the exception it raises."""
    try:
        return read(s)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("s", [
    "0", "-0", "7", "-12", "007", "12/8", "-3/4", "-0/5", "007/010",
    "3/-4", "3/+4", "1.5", "1e2", " 7 ", "\t5\n", "+1/2", "+7", "1_0",
    "1_0/2_0", "1/0", "0/0", "", "-", "/2", "3/", "1/2/3", "1 /2", "1/ 2",
    "--1", "-+1", "nan", "inf", "0x10", "1.5/2", "\u0663", "\u00b2",
    "\u0663/\u0664", "1/\u00b2"])
def test_rational_reads_as_fraction(s):
    assert _reading(_rational, s) == _reading(Fraction, s)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/._e ", max_size=8))
def test_rational_reads_random_strings_as_fraction(s):
    assert _reading(_rational, s) == _reading(Fraction, s)


@pytest.mark.parametrize("trunc", [0, -1, Fraction(-1, 2)])
def test_one_refuses_non_positive_truncation(trunc):
    with pytest.raises(ValueError):
        QSeries.one(trunc)
