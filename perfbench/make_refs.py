"""Write the committed references in perfbench/refs/.

Run from the repository root:  python3 perfbench/make_refs.py

The references record what the package computes at the commit that
defines the benchmark, cross-checked where an independent route exists:
  oracle_counts.json  A_0..A_N of every oracle lattice from its closed
                      form, each confirmed by enumeration in the shipped
                      basis;
  forms.json          every named form to order 161; theta2/3/4, eta,
                      Theta_E8 and Theta_D4 are confirmed against their
                      classical coefficient formulas;
  rows.json           every Table 1/2 decomposition expanded to order 49;
                      rows with a catalog Gram are confirmed by
                      enumeration to norm 8;
  lwe.json            length weight enumerator of the shipped code;
  cli.json            exit code and output of every CLI call the
                      closed_form workload can draw.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import common
from closed_form import cli_calls, run_cli
from oracle import EXPECTED, PLAN, ANCHOR, HALF

FORM_ORDER = 161
ROW_ORDER = 49


def oracle_counts(m):
    depth = {name: max(PLAN[name]) for name in PLAN}
    depth[ANCHOR[0]] = max(depth[ANCHOR[0]], ANCHOR[1])
    for name, norm in HALF.items():
        depth[name] = max(depth[name], norm)
    out = {}
    for name, top in depth.items():
        order = top + 1
        exp = EXPECTED[name]
        if exp is None:  # C3 = Z + sqrt(3) Z
            s = m.jacobi_theta3(order) * m.jacobi_theta3(order, 3)
        else:
            ell, kind, coeffs = exp
            basis = m.build_basis(ell, m.catalog(name).gram.n, kind)
            s = m.expand_decomposition(
                m.ThetaDecomposition(basis, tuple(map(Fraction, coeffs))),
                order)
        counts = [int(s.coeff_at(e)) for e in range(order)]
        enum = [c for _, c in m.theta_coefficients(m.catalog(name).gram, top)]
        assert counts == enum, name
        out[name] = counts
    return out


def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def classical(name, e):
    """Coefficient of q^e (q = e^{pi i tau}) by a classical formula."""
    if name == "theta3":
        r = int(e) ** 0.5
        return (1 if e == 0 else 2) if e.denominator == 1 and \
            round(r) ** 2 == e else 0
    if name == "theta4":
        if e.denominator != 1 or round(int(e) ** 0.5) ** 2 != e:
            return 0
        r = round(int(e) ** 0.5)
        return 1 if e == 0 else 2 * (-1) ** r
    if name == "theta2":
        x = 4 * e
        if x.denominator != 1 or round(int(x) ** 0.5) ** 2 != x:
            return 0
        return 2 if round(int(x) ** 0.5) % 2 else 0
    if name == "eta":  # Euler: q^{1/12} * sum (-1)^k q^{k(3k-1)}
        x = e - Fraction(1, 12)
        for k in range(-60, 61):
            if k * (3 * k - 1) == x:
                return (-1) ** k
        return 0
    if name == "Theta_E8":  # 1 + 240 sum sigma_3(m) q^{2m}
        if e == 0:
            return 1
        return 240 * sigma(int(e) // 2, 3) \
            if e.denominator == 1 and int(e) % 2 == 0 else 0
    if name == "Theta_D4":  # 1 + 24 sum sigma_1(odd part of m) q^{2m}
        if e == 0:
            return 1
        if e.denominator != 1 or int(e) % 2:
            return 0
        mm = int(e) // 2
        while mm % 2 == 0:
            mm //= 2
        return 24 * sigma(mm, 1)
    return None


def forms(m):
    out = {}
    for name in m.FORM_NAMES:
        s = m.expand(name, FORM_ORDER)
        if classical(name, Fraction(0)) is not None:
            den = s.den
            for n in range(FORM_ORDER * max(den, 12)):
                e = Fraction(n, max(den, 12))
                assert s.coeff_at(e) == classical(name, e), (name, e)
        out[name] = s.to_json_dict()
    return out


def rows(m):
    out = {}
    for row in m.fixtures.TABLE1 + m.fixtures.TABLE2:
        d = m.ThetaDecomposition(m.build_basis(row.ell, row.dim, row.kind),
                                 tuple(Fraction(c) for c in row.coeffs))
        s = m.expand_decomposition(d, ROW_ORDER)
        if row.catalog_name:
            for e, c in m.theta_coefficients(m.catalog(row.catalog_name).gram,
                                             8):
                assert s.coeff_at(e) == c, (row.name, e)
        out[row.name] = s.to_json_dict()
    return out


def main():
    m = common.import_package()
    code = m.CodeOverR.from_pairs(m.fixtures.PSOLE_DIM8_GENERATOR)
    lwe = sorted([list(k), v]
                 for k, v in m.length_weight_enumerator(code).items())
    cli = {}
    for argv in cli_calls(m):
        rc, text = run_cli(m.cli, argv)
        cli[" ".join(argv)] = {"rc": rc, "stdout": text}
    assert cli["tables --which 3"]["rc"] == 1
    refs = {"oracle_counts.json": oracle_counts(m), "forms.json": forms(m),
            "rows.json": rows(m), "lwe.json": lwe, "cli.json": cli}
    os.makedirs(common.REFS, exist_ok=True)
    for fname, data in refs.items():
        with open(os.path.join(common.REFS, fname), "w") as fh:
            json.dump(data, fh, indent=None, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
        print("wrote", os.path.join("perfbench", "refs", fname))


if __name__ == "__main__":
    main()
