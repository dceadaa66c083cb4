"""The Gram route of `secrecy`, bit for bit.

C2, C3, ExampleDim8 and the Construction-A Gram of the shipped code
have no certified closed form, so their secrecy functions are summed
from enumerated norm counts on the primal or the dual side.  The
values below are the `float.hex` of what that route returns; a change
that only makes the route cheaper must leave each of them as it is.
The points lie 3, 1 and 0.25 dB either side of the symmetry point, so
both sides are read.
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
