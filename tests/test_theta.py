import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import modlat
from modlat.errors import TailBoundNotMet
from modlat.qseries import _FIELDS, QSeries, first_mismatch
from modlat.theta import (FORM_NAMES, eta, eta_quotient, expand,
                          jacobi_theta2, jacobi_theta3, jacobi_theta4,
                          split_residue_theta, verify_theta_eta_identities)


def coeffs(series, exps):
    return [series.coeff_at(e) for e in exps]


def test_theta_d4_leading():
    s = expand("Theta_D4", 8)
    assert coeffs(s, (0, 2, 4, 6)) == [1, 24, 24, 96]


def test_delta12_leading():
    s = expand("Delta_12", 8)
    assert coeffs(s, (0, 2, 4, 6)) == [0, 1, -6, 9]


def test_f1_leading():
    s = expand("f1_l2", 4)
    assert coeffs(s, (0, 1, 2, 3)) == [1, 2, 2, 4]


def test_delta4_leading():
    s = expand("Delta_4", 4)
    assert coeffs(s, (0, 1, 2, 3)) == [0, 1, -4, 4]


def test_theta_a2_leading():
    s = expand("Theta_A2", 8)
    assert coeffs(s, (0, 2, 4, 6)) == [1, 6, 0, 6]


def test_delta16_leading():
    s = expand("Delta_16", 8)
    assert coeffs(s, (2, 4, 6)) == [1, -8, 12]


def test_theta_e8_leading():
    s = expand("Theta_E8", 6)
    assert coeffs(s, (0, 2, 4)) == [1, 240, 2160]


def test_eta_quotient_theta2():
    # theta2 = 2 * eta(2t)^2 / eta(t)
    q = eta_quotient([(2, 2)], [(1, 1)], 12)
    assert first_mismatch(q.scalar_mul(2), jacobi_theta2(q.trunc)) is None


def test_eta_quotient_theta4():
    q = eta_quotient([(Fraction(1, 2), 2)], [(1, 1)], 12)
    assert first_mismatch(q, jacobi_theta4(q.trunc)) is None


def test_eta_quotient_trivial():
    q = eta_quotient([(1, 1)], [(1, 1)], 10)
    assert q.coeff_at(0) == 1
    for e in range(1, 6):
        assert q.coeff_at(e) == 0


def test_identities_pass():
    report = verify_theta_eta_identities(12)
    assert len(report) == 3
    for name, (ok, mismatch) in report.items():
        assert ok, "%s failed at %s" % (name, mismatch)


def test_identities_negative_control():
    # corrupt eta by one coefficient and recheck an identity by hand
    e = eta(12)
    bad = e + QSeries.from_terms([(Fraction(25, 12), 1)], e.trunc)
    lhs = bad.scale_argument(2) ** 2 * e.invert_unit()
    mism = first_mismatch(lhs.scalar_mul(2), jacobi_theta2(lhs.trunc))
    assert mism is not None


def test_theta_d4_equals_half_sum():
    t3 = jacobi_theta3(12)
    t4 = jacobi_theta4(12)
    half = (t3 ** 4 + t4 ** 4).scalar_mul(Fraction(1, 2))
    assert first_mismatch(half, expand("Theta_D4", 12)) is None


def test_delta16_two_forms_agree():
    ep = (eta(14) * eta(14, 2)) ** 8
    tp = (jacobi_theta2(14) ** 8 * jacobi_theta3(14) ** 4
          * jacobi_theta4(14) ** 4).scalar_mul(Fraction(1, 256))
    assert first_mismatch(ep, tp) is None


def test_delta4_two_forms_agree():
    tform = (jacobi_theta2(12, 2) ** 2
             * jacobi_theta4(12) ** 2).scalar_mul(Fraction(1, 4))
    assert first_mismatch(tform, expand("Delta_4", 12)) is None


def test_delta4_f2_product_form():
    # Delta_4 = f1^2 * f2 with f2 the eta quotient
    # (eta(t/2) eta(4t) / (eta(t) eta(2t)))^8
    f2 = eta_quotient([(Fraction(1, 2), 8), (4, 8)], [(1, 8), (2, 8)], 16)
    f1 = expand("f1_l2", f2.trunc)
    assert first_mismatch(f1 ** 2 * f2, expand("Delta_4", f2.trunc)) is None


def test_split_residue_zero():
    s = split_residue_theta(0, 1, 40)
    assert coeffs(s, (0, 9, 36)) == [1, 2, 2]
    assert s.coeff_at(1) == 0


def test_split_residue_one_brute_force():
    s = split_residue_theta(1, 1, 120)
    # brute-force half-sum over residues +-1 mod 3
    expect = {}
    for m in range(-50, 51):
        for r in (1, -1):
            e = Fraction((3 * m + r) ** 2)
            if e < 120:
                expect[e] = expect.get(e, Fraction(0)) + Fraction(1, 2)
    got = dict(s.terms())
    assert got == {e: c for e, c in expect.items() if c}


def test_split_residue_scaled():
    s = split_residue_theta(1, Fraction(1, 3), 12)
    assert s.coeff_at(Fraction(1, 3)) == 1
    assert s.coeff_at(Fraction(4, 3)) == 1


def test_basis_forms_counting_series():
    for name in ("Theta_D4", "Theta_A2", "Theta_E8", "f1_l2"):
        s = expand(name, 10)
        assert s.coeff_at(0) == 1
        for e, c in s.terms():
            assert c.denominator == 1 and c >= 0


def test_memoized_expansion_referentially_transparent():
    a = expand("Theta_D4", 10)
    b = expand("Theta_D4", 10)
    assert first_mismatch(a, b) is None
    assert a.to_json() == b.to_json()


def test_form_name_list_is_stable():
    assert FORM_NAMES == ("theta2", "theta3", "theta4", "eta", "Theta_D4",
                          "Delta_16", "Theta_A2", "Delta_12", "Theta_E8",
                          "Delta_24", "f1_l2", "Delta_4")
    t3 = jacobi_theta3(5)
    assert coeffs(t3, (0, 1, 4)) == [1, 2, 2]


#: sha256 of `to_text()` of every named form at three orders and of the
#: eta-quotient sides of the three identities at two, recorded from the
#: sparse Fraction implementation this dense one replaced.
TEXT_DIGESTS = {
    "theta2@16":
        "3bf2b09aa673d15d6f982b5a3bd85deb6caf8df7b6f5a4a90e475b8675b38ff6",
    "theta2@161/4":
        "abfbd5fce9ee4b2ba6b8d07b77eb61a750430288def5b6dd7ebd5b2f4760f2da",
    "theta2@160":
        "c1871b4798a32a8904d891535ff3cb961648f3ee4bf31d1cdbc668226dda003d",
    "theta3@16":
        "24a44a02c82ac3468393f68bfd12dbbd2484a9172555ba2994f57a6fce2445eb",
    "theta3@161/4":
        "48a850c17adc525707b2e0628e5e2c76b40b252b2d4cc5d50f8af454d2d78520",
    "theta3@160":
        "29c09f50befa2419dea11a399ba15ace81b3448983885cc588bb96f82ffa6cfc",
    "theta4@16":
        "12c2c71eda796824f8ccac652f4ff599d89d375c16cb5bb866616e1cfaafd3c5",
    "theta4@161/4":
        "1fa28a8593b51e2c2cb7d68244a72507ddc7ff5af06987402a5e23fec909c991",
    "theta4@160":
        "fd4fa0b853c63dde7db6a628616c00df17026d6b8e2d9c1c0f260d87d9cf43cc",
    "eta@16":
        "89e13b349d24c4266ac77542c9878fe3d6d9ca6423b0ac30470c2f5c53f068ff",
    "eta@161/4":
        "f207ed5fc58963311bdb1327f3eb81f61c4fa5ebb2620918ca616ea9084bec6b",
    "eta@160":
        "f877245fdc0473089219a845937062121b8239f97201312f28180274e2bb3a3c",
    "Theta_D4@16":
        "7828167e5614a90384ba238b47e395e4d9bfaf1a4488a121d8512cd61d8972e8",
    "Theta_D4@161/4":
        "efbcedbf65880c9ef2e40ecb14558a5a47fd0b61abf229fb578678c383ebf0f5",
    "Theta_D4@160":
        "7b1d8cac233c43f321c17dc7b1f1023587e1b70151e88a4493791d7e36fb0736",
    "Delta_16@16":
        "f617e0f474c6e351adab6547c89e18748a45af89fda06f5c2ba1b07690e11ff4",
    "Delta_16@161/4":
        "e5f27ed601dabd38aeb5357e55c9ce2b4ee9aaa25619c379c23a2f2d205a38f6",
    "Delta_16@160":
        "c75a2832bb6bd5c22f3412b73733bb5b551e9f218720e62818d1ba527e68992d",
    "Theta_A2@16":
        "b67ab1b97104f5032a1787189090e6960b8bdb33225ca2e97a780322ba86f485",
    "Theta_A2@161/4":
        "d9d3918db600367e3a7edc57e8428a0d50b6d7ac3206ff3ea91e194b8c532b4a",
    "Theta_A2@160":
        "cefe0761e709f4f72f3d59908b53a931cbbfa431d267646d8d3a30f7194c894e",
    "Delta_12@16":
        "159e7e4309a67d26853415979e1f0fcdf9691821edf497c5598cf586f09d1e93",
    "Delta_12@161/4":
        "0408aa11b87fa006d043f0f703df73814722445621a6141d42319ff3821e3f46",
    "Delta_12@160":
        "e531100638b02b591b9bc408a886bc4249b4d74df2530b12de7b1e3a6f9552b9",
    "Theta_E8@16":
        "8cf730428ece5fd38ba27c80461016d1d66d182d8d17a012be3234ebe655a9de",
    "Theta_E8@161/4":
        "e8fc0719c6513381af4c7a1671fc2d4bc2ae9c19d71e0a8589ef5e68661ff0c6",
    "Theta_E8@160":
        "2d88842c063d055cfe23260b63a4e90ad5103c718a90fa5fccc05d62a423b0f0",
    "Delta_24@16":
        "92874ec30ee11688c5ea31fbac802eaf250a0b0a105fa73266b5f0a3175519a2",
    "Delta_24@161/4":
        "023140efda37139e1df9d5f2f7ca53d366acf4b7725dd7c5188d985f36b8defe",
    "Delta_24@160":
        "a7b0594db6edfc7f7bdd1f1ef7a6ed0d871c405e99ad25453cd49de2adfd544e",
    "f1_l2@16":
        "6e1d26b00fd4b069286873f36cc6fa134e8cbce1510dcdd2a8ac6a080684b5b1",
    "f1_l2@161/4":
        "21c552db8ca167b592e4ded971bb2d32fa345deb7b1ea8a7dab943c570bf6b91",
    "f1_l2@160":
        "2ecdd1cbdd029bf01d261e01feb575b7fcd39a058d42a36db085139d8100193e",
    "Delta_4@16":
        "4d797999b7fbaf92e2ea9a10d5f4a855245bfcc0baac4725d5a2c9b49c48a3ea",
    "Delta_4@161/4":
        "c17f3c76754030330c7a9ec5f1da1b5391f30cba9b8212690173eaff0011e02c",
    "Delta_4@160":
        "905b2b7d6a773aa9c68146a2cf32e70086a5d5d79e661b75b6ced45870f2ebe5",
    "2*eta(2t)^2/eta(t)@12":
        "2ba03d52b3f2fe87602a55235f8349395c95eb89459b3de220f7ba8d8fb85e41",
    "2*eta(2t)^2/eta(t)@161/4":
        "abfbd5fce9ee4b2ba6b8d07b77eb61a750430288def5b6dd7ebd5b2f4760f2da",
    "eta(t)^5/(eta(t/2)^2*eta(2t)^2)@12":
        "4537e968be2d1e9e79aca03aa9d939aa1ced2cc638107de7c1fe1a40a3e28169",
    "eta(t)^5/(eta(t/2)^2*eta(2t)^2)@161/4":
        "48a850c17adc525707b2e0628e5e2c76b40b252b2d4cc5d50f8af454d2d78520",
    "eta(t/2)^2/eta(t)@12":
        "898aa198f3fcfc06545b3c36619f101c917165885bb4e29b6b3462abe4c7b800",
    "eta(t/2)^2/eta(t)@161/4":
        "1fa28a8593b51e2c2cb7d68244a72507ddc7ff5af06987402a5e23fec909c991",
}


IDENTITY_SIDES = {
    "2*eta(2t)^2/eta(t)":
        lambda o: 2 * eta_quotient([(2, 2)], [(1, 1)], o),
    "eta(t)^5/(eta(t/2)^2*eta(2t)^2)":
        lambda o: eta_quotient([(1, 5)], [(Fraction(1, 2), 2), (2, 2)], o),
    "eta(t/2)^2/eta(t)":
        lambda o: eta_quotient([(Fraction(1, 2), 2)], [(1, 1)], o),
}


def test_expansions_match_pinned_digests():
    got = {}
    for name in FORM_NAMES:
        for order in (Fraction(16), Fraction(161, 4), Fraction(160)):
            got["%s@%s" % (name, order)] = expand(name, order).to_text()
    for side, f in IDENTITY_SIDES.items():
        for order in (Fraction(12), Fraction(161, 4)):
            got["%s@%s" % (side, order)] = f(order).to_text()
    assert {k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in got.items()} == TEXT_DIGESTS


#: Each float primitive as a sum over n in Z of +-q^(alpha*(n + beta)^2):
#: (primitive, alpha, beta as a pair, its mpmath.jtheta index or None).
_Z_SUMS = [(jacobi_theta2, 1, (1, 2), 2), (jacobi_theta3, 1, (0, 1), 3),
           (jacobi_theta4, 1, (0, 1), 4), (eta, 3, (-1, 6), None)]


@pytest.mark.parametrize("scale", [1, 2, 3, 6])
def test_float_primitives_against_mpmath(scale):
    """theta2, theta3, theta4 and eta in floats against mpmath.jtheta and
    mpmath.eta at 30 digits, at 41 points y in [0.05, 20].

    The float reading leaves out less than 2^-55 of its sum.  Each term
    e^(-x_n) with x_n = pi*scale*y*alpha*(n + beta)^2 carries a few
    roundings of x_n, so about 5*x_n ulps, and the exp and the sum about
    one ulp each per term that counts.  So the tolerance is 2^-54 |value|
    plus u*(8*A + 5*B), A = sum_n e^(-x_n) the absolute series and
    B = sum_n x_n e^(-x_n), u = 2^-53.
    """
    mpmath = pytest.importorskip("mpmath")
    u = 2.0 ** -53
    with mpmath.workdps(30):
        for prim, alpha, (bn, bd), k in _Z_SUMS:
            beta = mpmath.mpf(bn) / bd
            for i in range(41):
                y = 0.05 * 400.0 ** (i / 40)
                x = mpmath.pi * scale * y
                if k is None:
                    ref = mpmath.eta(1j * scale * mpmath.mpf(y)).real
                else:
                    ref = mpmath.jtheta(k, 0, mpmath.exp(-x))
                xs = [x * alpha * (n + beta) ** 2 for n in range(-40, 41)]
                a = mpmath.fsum(mpmath.exp(-t) for t in xs)
                b = mpmath.fsum(t * mpmath.exp(-t) for t in xs)
                value = prim.numeric(y, scale)
                tol = 2.0 ** -54 * abs(value) + u * (8 * a + 5 * b)
                assert abs(value - ref) <= tol, (prim.name, scale, y)


def test_float_primitive_needing_too_many_terms_raises():
    # theta3 would need about 4e5 terms here
    with pytest.raises(TailBoundNotMet):
        jacobi_theta3.numeric(1e-10)


@pytest.mark.parametrize("y", [0.0, -1.0, float("nan")])
def test_float_primitive_rejects_non_positive_points(y):
    with pytest.raises(ValueError):
        jacobi_theta4.numeric(y)


def _from_terms_reference(prim, order, scale):
    """prim(order, scale) read term by term through QSeries.from_terms."""
    terms = []
    for e, c in prim.terms():
        x = scale * (prim.lead + e)
        if x >= order:
            return QSeries.from_terms(terms, order)
        terms.append((x, c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([jacobi_theta2, jacobi_theta3, jacobi_theta4, eta]),
       st.fractions(min_value=0, max_value=200, max_denominator=12)
       .filter(lambda x: x > 0),
       st.integers(1, 12), st.integers(1, 12))
def test_primitive_equals_term_by_term_reading(prim, order, p, q):
    scale = Fraction(p, q)
    got = prim(order, scale)
    want = _from_terms_reference(prim, order, scale)
    assert [getattr(got, f) for f in _FIELDS] == \
        [getattr(want, f) for f in _FIELDS]


def test_non_positive_scale_raises_at_once():
    # at a scale <= 0, scale*(lead + e) never reaches the order, so a
    # reading that walks the terms up to it would not end: run the calls
    # where a timeout stops them
    code = """
from modlat.theta import eta, jacobi_theta2, jacobi_theta3, split_residue_theta
for call in (lambda: jacobi_theta3(4, 0), lambda: jacobi_theta3(4, -1),
             lambda: jacobi_theta2(4, 0), lambda: eta(4, -0.5),
             lambda: split_residue_theta(1, 0, 4)):
    try:
        call()
    except ValueError:
        print("ValueError")
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(modlat.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 5
