"""Every route a Gram takes through `secrecy`, bit for bit.

C2, C3, ExampleDim8 and the Construction-A Gram of the shipped code
have no certified closed form, so their secrecy functions are summed
from enumerated norm counts on the primal or the dual side.  A2 and
D4 are read from a certified decomposition of one monomial, a power of
Theta_A2 or Theta_D4 alone, and BW16 from one over both generators
(route "closed_form"); Z4, the identity Gram, is read as theta3^4
(route "theta3_product").  The values below are the `float.hex` of
what each route returns; a change that only makes a route cheaper must
leave each of them as it is.  The points lie 3, 1 and 0.25 dB either
side of the symmetry point, so both sides of the count sums are read.
"""

import math

import pytest

from modlat import fixtures
from modlat.codes import CodeOverR, construction_a_gram
from modlat.lattice import catalog
from modlat.secrecy import (locate_maximum, secrecy_curve, secrecy_function,
                            weak_secrecy_gain)

#: Offsets in dB from the symmetry point of the "function" entries.
OFFSETS = (-3.0, -1.0, -0.25, 0.25, 1.0, 3.0)

#: name -> "function": (xi, theta_lattice, bound_on_tail, terms_used,
#: route) at OFFSETS; "weak": the weak secrecy gain; "curve": the xi of
#: a 13-sample curve over the symmetry point -+ 3 dB; "maximum":
#: `locate_maximum` over its default range.
GOLDEN = {
    "C2": {
        "function": [
            ("0x1.f7c47a0b17654p-1", "0x1.0589f57a7f322p+1",
             "0x1.084d29b3688eep-45", 7, "dual"),
            ("0x1.e84e62f116cb1p-1", "0x1.6c50a89014694p+0",
             "0x1.68b01609d1cf5p-43", 10, "dual"),
            ("0x1.e54dc718abc6ep-1", "0x1.489cd26e96ee7p+0",
             "0x1.3f3655ffbb059p-42", 10, "dual"),
            ("0x1.e54dc718abc70p-1", "0x1.363af40341885p+0",
             "0x1.2c4ba1db4f371p-42", 10, "primal"),
            ("0x1.e84e62f116cb5p-1", "0x1.2162c062cc6c6p+0",
             "0x1.1c86bc3185407p-43", 10, "primal"),
            ("0x1.f7c47a0b17659p-1", "0x1.0628f05aa92d8p+0",
             "0x1.179dc831f5862p-40", 6, "primal"),
        ],
        "weak": "0x1.e517728b3148ep-1",
        "curve": [
            "0x1.f7c47a0b17654p-1", "0x1.f4117a30c0318p-1",
            "0x1.efee7294880dbp-1", "0x1.ebd25f125f154p-1",
            "0x1.e84e62f116cb1p-1", "0x1.e5ee63b7096dcp-1",
            "0x1.e517728b3148ep-1", "0x1.e5ee63b7096dap-1",
            "0x1.e84e62f116cb3p-1", "0x1.ebd25f125f154p-1",
            "0x1.efee7294880d8p-1", "0x1.f4117a30c031ap-1",
            "0x1.f7c47a0b17659p-1",
        ],
        "maximum": ("0x1.692e42e5f9dd9p+0", "0x1.f7c4782dea469p-1"),
    },
    "C3": {
        "function": [
            ("0x1.e99dc488cbc91p-1", "0x1.0d191b0a011e4p+1",
             "0x1.f61ad741f1036p-42", 6, "dual"),
            ("0x1.c976138e3a8dbp-1", "0x1.84e12873b7790p+0",
             "0x1.7748e6ed2addcp-44", 8, "dual"),
            ("0x1.c3bccdbc05042p-1", "0x1.6107b517cdffdp+0",
             "0x1.0d52f868d9d36p-44", 9, "dual"),
            ("0x1.c3bccdbc05043p-1", "0x1.4d482b6584a3cp+0",
             "0x1.8c8fa15af0498p-42", 9, "primal"),
            ("0x1.c976138e3a8d9p-1", "0x1.34e5e25f607b5p+0",
             "0x1.4e5028e7cb22fp-41", 8, "primal"),
            ("0x1.e99dc488cbc8ep-1", "0x1.0dbcae38524bcp+0",
             "0x1.f574031e4eac0p-43", 6, "primal"),
        ],
        "weak": "0x1.c3566c30c0789p-1",
        "curve": [
            "0x1.e99dc488cbc91p-1", "0x1.e160cb31d7ec6p-1",
            "0x1.d8a4873e7145fp-1", "0x1.d0558fe559f7dp-1",
            "0x1.c976138e3a8dbp-1", "0x1.c4ec5c0a58c7fp-1",
            "0x1.c3566c30c0789p-1", "0x1.c4ec5c0a58c7dp-1",
            "0x1.c976138e3a8d9p-1", "0x1.d0558fe559f7dp-1",
            "0x1.d8a4873e71487p-1", "0x1.e160cb31d7ec5p-1",
            "0x1.e99dc488cbc8ep-1",
        ],
        "maximum": ("0x1.26e71ec7a76b0p+0", "0x1.e99dc040d460fp-1"),
    },
    "ExampleDim8": {
        "function": [
            ("0x1.069f578e6040cp+0", "0x1.fd9200f3028c8p+3",
             "0x1.5f6a2e9d98465p-39", 10, "dual"),
            ("0x1.2c3499ae0da82p+0", "0x1.7265ff0092b05p+1",
             "0x1.6bc24f99f242cp-40", 16, "dual"),
            ("0x1.3909009a4d088p+0", "0x1.cad0efe4c241bp+0",
             "0x1.46e2928836108p-43", 20, "dual"),
            ("0x1.3909009a4d089p+0", "0x1.6c735c8aa1294p+0",
             "0x1.1201d6b4ac239p-40", 19, "primal"),
            ("0x1.2c3499ae0da88p+0", "0x1.26eaa21610d55p+0",
             "0x1.21204b1bae81bp-41", 16, "primal"),
            ("0x1.069f578e60406p+0", "0x1.0136b5d8f3314p+0",
             "0x1.61018e1d99ca0p-43", 10, "primal"),
        ],
        "weak": "0x1.3a0a72ca5844ep+0",
        "curve": [
            "0x1.069f578e6040cp+0", "0x1.0c52e5ec05d05p+0",
            "0x1.14db0a8ba7edep+0", "0x1.200487d34ae36p+0",
            "0x1.2c3499ae0da82p+0", "0x1.36249ff6a8bf4p+0",
            "0x1.3a0a72ca5844ep+0", "0x1.36249ff6a8bedp+0",
            "0x1.2c3499ae0da87p+0", "0x1.200487d34ae33p+0",
            "0x1.14db0a8ba7ed8p+0", "0x1.0c52e5ec05d06p+0",
            "0x1.069f578e60406p+0",
        ],
        "maximum": ("0x1.6a09d826fbd26p-1", "0x1.3a0a72ca57ca7p+0"),
    },
    "ConstructionA": {
        "function": [
            ("0x1.069f578e6040cp+0", "0x1.fd9200f3028c8p+3",
             "0x1.b4b27f9519477p-39", 10, "dual"),
            ("0x1.2c3499ae0da82p+0", "0x1.7265ff0092b05p+1",
             "0x1.b78abd8a108a1p-40", 16, "dual"),
            ("0x1.3909009a4d088p+0", "0x1.cad0efe4c241bp+0",
             "0x1.8342d95c29ae6p-43", 20, "dual"),
            ("0x1.3909009a4d089p+0", "0x1.6c735c8aa1294p+0",
             "0x1.20a8d5256f194p-43", 20, "primal"),
            ("0x1.2c3499ae0da88p+0", "0x1.26eaa21610d55p+0",
             "0x1.4942298e87d18p-41", 16, "primal"),
            ("0x1.069f578e60406p+0", "0x1.0136b5d8f3314p+0",
             "0x1.9c0bc06209cb8p-43", 10, "primal"),
        ],
        "weak": "0x1.3a0a72ca5844ep+0",
        "curve": [
            "0x1.069f578e6040cp+0", "0x1.0c52e5ec05d05p+0",
            "0x1.14db0a8ba7edep+0", "0x1.200487d34ae36p+0",
            "0x1.2c3499ae0da82p+0", "0x1.36249ff6a8bf4p+0",
            "0x1.3a0a72ca5844ep+0", "0x1.36249ff6a8bedp+0",
            "0x1.2c3499ae0da87p+0", "0x1.200487d34ae33p+0",
            "0x1.14db0a8ba7ed8p+0", "0x1.0c52e5ec05d06p+0",
            "0x1.069f578e60406p+0",
        ],
        "maximum": ("0x1.6a09d826fbd26p-1", "0x1.3a0a72ca57ca7p+0"),
    },
    "A2": {
        "function": [
            ("0x1.00d646f80725dp+0", "0x1.007eb4cb11aa1p+1",
             "0x1.ce0f6a6c1e9d6p-52", 0, "closed_form"),
            ("0x1.03cbbc82b430bp+0", "0x1.5661092e1af84p+0",
             "0x1.34633ba8ffeeap-52", 0, "closed_form"),
            ("0x1.0486c3407ac15p+0", "0x1.321115faaa593p+0",
             "0x1.13ae2f86f406bp-52", 0, "closed_form"),
            ("0x1.0486c3407ac15p+0", "0x1.20f215387a0c0p+0",
             "0x1.044253da5d077p-52", 0, "closed_form"),
            ("0x1.03cbbc82b430cp+0", "0x1.0ff61a9b24328p+0",
             "0x1.e9ec08539ecc1p-53", 0, "closed_form"),
            ("0x1.00d646f80725dp+0", "0x1.011a9ec36b4dfp+0",
             "0x1.cf284909e9adcp-53", 0, "closed_form"),
        ],
        "weak": "0x1.049472e4ad681p+0",
        "curve": [
            "0x1.00d646f80725dp+0", "0x1.0169bc7e5a6e5p+0",
            "0x1.02292374f034ep+0", "0x1.030087c165ce1p+0",
            "0x1.03cbbc82b430bp+0", "0x1.045ea9a5b92dap+0",
            "0x1.049472e4ad681p+0", "0x1.045ea9a5b92d7p+0",
            "0x1.03cbbc82b430cp+0", "0x1.030087c165ce2p+0",
            "0x1.02292374f034dp+0", "0x1.0169bc7e5a6e6p+0",
            "0x1.00d646f80725dp+0",
        ],
        "maximum": ("0x1.279a68b5a469cp-1", "0x1.049472e4ad61ap+0"),
    },
    "D4": {
        "function": [
            ("0x1.03068a7adc842p+0", "0x1.ff4e2aeaf255bp+1",
             "0x1.cc8afc24455f2p-50", 0, "closed_form"),
            ("0x1.110f38b0c52fdp+0", "0x1.ba1f187b55eb6p+0",
             "0x1.8e3a44fb7f3c4p-51", 0, "closed_form"),
            ("0x1.1516a3937cf65p+0", "0x1.5e22f6e163054p+0",
             "0x1.3b5fff9951503p-51", 0, "closed_form"),
            ("0x1.1516a3937cf69p+0", "0x1.380f3effc5614p+0",
             "0x1.191408cad13a8p-51", 0, "closed_form"),
            ("0x1.110f38b0c5302p+0", "0x1.16f5b49906894p+0",
             "0x1.f6877eb30b3b3p-52", 0, "closed_form"),
            ("0x1.03068a7adc83dp+0", "0x1.00de41b96aee7p+0",
             "0x1.cebb8b517dd38p-52", 0, "closed_form"),
        ],
        "weak": "0x1.15643c9684bedp+0",
        "curve": [
            "0x1.03068a7adc842p+0", "0x1.056fb7fb08f69p+0",
            "0x1.08d1cba264093p+0", "0x1.0cec2a0fa131ep+0",
            "0x1.110f38b0c52fdp+0", "0x1.1434f1e63564ap+0",
            "0x1.15643c9684bedp+0", "0x1.1434f1e635646p+0",
            "0x1.110f38b0c52ffp+0", "0x1.0cec2a0fa131ep+0",
            "0x1.08d1cba26408fp+0", "0x1.056fb7fb08f69p+0",
            "0x1.03068a7adc83dp+0",
        ],
        "maximum": ("0x1.6a09d826fbd26p-1", "0x1.15643c968499cp+0"),
    },
    "BW16": {
        "function": [
            ("0x1.0ff410008008cp+0", "0x1.f66bb2c350d88p+7",
             "0x1.c48a53372edb7p-42", 0, "closed_form"),
            ("0x1.b7768b4470054p+0", "0x1.ad4fe7241c086p+2",
             "0x1.82b0a29e15561p-47", 0, "closed_form"),
            ("0x1.14ab2f7bc5ad4p+1", "0x1.1c6c1f698bcf6p+1",
             "0x1.002f5469908c5p-48", 0, "closed_form"),
            ("0x1.14ab2f7bc5af1p+1", "0x1.66eaafeab1802p+0",
             "0x1.43489130622d9p-49", 0, "closed_form"),
            ("0x1.b7768b4470077p+0", "0x1.102a6106bdb5cp+0",
             "0x1.ea4a33f3af39bp-50", 0, "closed_form"),
            ("0x1.0ff4100080077p+0", "0x1.0005a9b5d74d7p+0",
             "0x1.cd355d0e69d26p-50", 0, "closed_form"),
        ],
        "weak": "0x1.1a52251c2a226p+1",
        "curve": [
            "0x1.0ff410008008cp+0", "0x1.20510440fad55p+0",
            "0x1.3d823525c8532p+0", "0x1.6e56c187f693bp+0",
            "0x1.b7768b4470054p+0", "0x1.058b8bfe5d267p+1",
            "0x1.1a52251c2a226p+1", "0x1.058b8bfe5d253p+1",
            "0x1.b7768b447005dp+0", "0x1.6e56c187f6940p+0",
            "0x1.3d823525c8525p+0", "0x1.20510440fad57p+0",
            "0x1.0ff4100080077p+0",
        ],
        "maximum": ("0x1.6a09d826fbd26p-1", "0x1.1a52251c2765cp+1"),
    },
    "Z4": {
        "function": [
            ("0x1.0000000000000p+0", "0x1.02ac92eb1dc04p+2",
             "0x1.a0c26006ef74cp-46", 0, "theta3_product"),
            ("0x1.0000000000000p+0", "0x1.d79572d60d225p+0",
             "0x1.5903b2c58b31cp-47", 0, "theta3_product"),
            ("0x1.0000000000000p+0", "0x1.7afacbdd13b25p+0",
             "0x1.0cc38a0a26d75p-47", 0, "theta3_product"),
            ("0x1.0000000000000p+0", "0x1.51c417dfa8bf3p+0",
             "0x1.d5e1d7be1868ep-48", 0, "theta3_product"),
            ("0x1.0000000000000p+0", "0x1.298c9bc3243cep+0",
             "0x1.92dd007dcfc06p-48", 0, "theta3_product"),
            ("0x1.0000000000000p+0", "0x1.03e76ca738244p+0",
             "0x1.4a936f6e706ccp-48", 0, "theta3_product"),
        ],
        "weak": "0x1.0000000000000p+0",
        "curve": [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0",
        ],
        "maximum": ("0x1.009bad4bfcf14p-1", "0x1.0000000000000p+0"),
    },
}


def _source(name):
    if name == "ConstructionA":
        code = CodeOverR.from_pairs(fixtures.PSOLE_DIM8_GENERATOR)
        return construction_a_gram(code), 2
    entry = catalog(name)
    return entry.gram, entry.ell


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_gram_route_is_bit_identical(name):
    gram, ell = _source(name)
    want = GOLDEN[name]
    sym = 10.0 * math.log10(ell ** -0.5)
    got = []
    for offset in OFFSETS:
        ev = secrecy_function(gram, ell, 10.0 ** ((sym + offset) / 10.0))
        got.append((ev.xi.hex(), ev.theta_lattice.hex(),
                    ev.bound_on_tail.hex(), ev.terms_used, ev.route))
    assert got == want["function"]
    assert weak_secrecy_gain(gram, ell).hex() == want["weak"]
    assert [xi.hex() for _, xi in secrecy_curve(
        gram, ell, (sym - 3.0, sym + 3.0), 13)] == want["curve"]
    assert tuple(x.hex() for x in locate_maximum(gram, ell)) == \
        want["maximum"]
