"""Command-line interface.

Subcommands:
  expand     print the q-expansion of a named form or catalog lattice
  decompose  solve a lattice's theta series over a modular-form basis
  code       codeword/enumerator/lattice pipeline for codes over F3+vF3
  gain       weak secrecy gain of a lattice
  curve      sample the secrecy function on a dB grid (CSV/JSON)
  tables     recompute the reference tables and diff against the shipped
             values
  catalog    list shipped lattice and form names

decompose, gain and curve take a lattice as a table row name (its
shipped decomposition), a catalog name, Z<n>, or --gram FILE (a Gram).
The level ell, the dimension n and the default basis shape are read
from the lattice: a row's from its basis; a Gram's ell from det G =
ell^(n/2), its shape "even" for an even Gram and "general" otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import codes, fixtures, lattice, modform, secrecy, theta
from .errors import ModlatError
from .qseries import QSeries


def _emit(args, pretty_lines, payload):
    fmt = args.format
    if fmt == "pretty":
        text = "\n".join(pretty_lines) + "\n"
    elif fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:  # csv; every payload is a dict or a non-empty list of dicts
        rows = payload if isinstance(payload, list) else [payload]
        cols = sorted(rows[0])
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(str(r[c]) for c in cols))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lattice(name, gram_file=None):
    """(source, ell, n) for the lattice a command names.

    A table row gives its shipped ThetaDecomposition, with the level and
    dimension of its basis.  A catalog name (Z<n> included) or a Gram
    file gives a GramMatrix, with ell from `lattice.ell_from_det`.
    """
    if gram_file:
        with open(gram_file) as fh:
            text = fh.read()
        g = (lattice.GramMatrix.from_json(text)
             if text.lstrip().startswith("{")
             else lattice.GramMatrix.from_text(text))
        return g, lattice.ell_from_det(g), g.n
    if name is None:
        raise ModlatError("a lattice name or --gram FILE is required")
    try:
        row = fixtures.table_row(name)
    except KeyError:
        entry = lattice.catalog(name)
        return entry.gram, entry.ell, entry.gram.n
    d = modform.decomposition_from_fixture(row)
    return d, d.basis.ell, d.basis.n


def cmd_expand(args):
    order = Fraction(args.order)
    if args.name in theta.FORM_NAMES:
        s = theta.expand(args.name, order)
    else:
        src, _, _ = _lattice(args.name)
        if isinstance(src, modform.ThetaDecomposition):
            s = modform.expand_decomposition(src, order)
        else:
            # every norm below the order; catalog Grams are integral
            pairs = lattice.theta_coefficients(src, math.ceil(order) - 1,
                                               args.budget)
            s = QSeries.from_terms(pairs, order)
    _emit(args, [str(s)], s.to_json_dict())
    return 0


def cmd_decompose(args):
    src, ell, n = _lattice(args.name, args.gram)
    if isinstance(src, modform.ThetaDecomposition):
        basis = modform.build_basis(ell, n, args.kind or src.basis.kind)
        ref = modform.expand_decomposition(src)
        d = modform.solve_coefficients(
            basis, [(e, ref.coeff_at(e)) for e in range(9)])
    else:
        kind = args.kind or ("even" if src.is_even() else "general")
        d = modform.gram_decomposition(
            src, modform.build_basis(ell, n, kind), args.budget)
    _emit(args, [d.pretty()], d.to_json_dict())
    return 0


def cmd_code(args):
    if args.generator == "PSole_dim8":
        code = codes.CodeOverR.from_pairs(fixtures.PSOLE_DIM8_GENERATOR)
    else:
        with open(args.generator) as fh:
            code = codes.CodeOverR.parse(fh.read())
    if args.action == "selfdual":
        ok, cert = codes.check_hermitian_self_dual(code, args.budget)
        _emit(args, ["%s  (%s)" % (str(ok).lower(), cert)],
              {"self_dual": ok, "certificate": cert})
        return 0 if ok else 1
    if args.action == "lwe":
        lwe = codes.length_weight_enumerator(code, args.budget)
        payload = {"compositions": [[list(k), v]
                                    for k, v in sorted(lwe.items())]}
        _emit(args, [codes.lwe_pretty(lwe)], payload)
        return 0
    if args.action == "gram":
        g = codes.construction_a_gram(code, args.budget)
        _emit(args, [g.to_text().rstrip("\n")], g.to_json_dict())
        return 0
    # theta
    lwe = codes.length_weight_enumerator(code, args.budget)
    s = codes.theta_from_lwe(lwe, Fraction(args.order))
    _emit(args, [str(s)], s.to_json_dict())
    return 0


def cmd_gain(args):
    src, ell, n = _lattice(args.name, args.gram)
    chi = secrecy.weak_secrecy_gain(src, ell, eps=args.eps,
                                    budget=args.budget)
    _emit(args, ["%.5f" % chi],
          {"lattice": args.gram or args.name, "ell": ell, "n": n,
           "chi_w": chi})
    return 0


def cmd_curve(args):
    src, ell, _ = _lattice(args.name, args.gram)
    lo, hi = (float(x) for x in args.range.split(":"))
    pts = secrecy.secrecy_curve(src, ell, (lo, hi), args.samples,
                                eps=args.eps, budget=args.budget)
    payload = [{"y_dB": p[0], "xi": p[1]} for p in pts]
    _emit(args, ["%.6f %.9f" % p for p in pts], payload)
    return 0


def cmd_tables(args):
    tol = 1e-5 if args.which in (1, 2) else 1e-4
    rows = []
    failed = 0
    if args.which in (1, 2):
        table = fixtures.TABLE1 if args.which == 1 else fixtures.TABLE2
        for row in table:
            d, problems = modform.check_table_row(row, args.budget)
            chi = secrecy.weak_secrecy_gain(d, row.ell, eps=args.eps)
            ok = not problems and abs(chi - row.chi_w) < tol
            failed += not ok
            rows.append({"dim": row.dim, "lattice": row.name, "ell": row.ell,
                         "theta_series": d.pretty(), "chi_w_ref": row.chi_w,
                         "chi_w_computed": round(chi, 6),
                         "status": "PASS" if ok else "FAIL"})
    else:
        for row in fixtures.TABLE3:
            if row.recompute_zn:
                chi, ok = 1.0, True
            elif row.modular_key:
                ref = fixtures.table_row(row.modular_key)
                d = modform.decomposition_from_fixture(ref)
                chi = secrecy.weak_secrecy_gain(d, ref.ell, eps=args.eps)
                ok = abs(chi - row.chi) < tol
            else:
                chi, ok = row.chi, True  # unimodular comparison fixtures
            failed += not ok
            rows.append({"dim": row.dim, "lattice": row.name, "ell": row.ell,
                         "chi_ref": row.chi, "chi_computed": round(chi, 6),
                         "status": "PASS" if ok else "FAIL"})
    lines = ["%-4s %-22s %-3s %-10s %-10s %s"
             % ("dim", "lattice", "ell",
                "reference", "computed", "status")]
    for r in rows:
        ref = r.get("chi_w_ref", r.get("chi_ref"))
        com = r.get("chi_w_computed", r.get("chi_computed"))
        lines.append("%-4d %-22s %-3d %-10s %-10s %s"
                     % (r["dim"], r["lattice"], r["ell"], ref, com,
                        r["status"]))
    _emit(args, lines, rows)
    return 1 if failed else 0


def cmd_catalog(args):
    names = list(lattice.CATALOG_NAMES)
    tables = [r.name for r in fixtures.TABLE1 + fixtures.TABLE2]
    lines = (["catalog lattices (Gram shipped):"]
             + ["  " + n for n in names]
             + ["  Z<n>  (the cubic lattice Z^n, e.g. Z16)"]
             + ["table fixtures (decomposition shipped):"]
             + ["  " + n for n in tables]
             + ["named forms:"]
             + ["  " + n for n in theta.FORM_NAMES])
    _emit(args, lines, {"catalog": names, "patterns": ["Z<n>"],
                        "fixtures": tables, "forms": list(theta.FORM_NAMES)})
    return 0


def build_parser():
    """A new parser for the `modlat` command line.

    Each call builds a fresh tree and keeps no state of its own; `main`
    builds one per process and reuses it.  The --eps and --budget
    defaults are read from `secrecy._EPS_DEFAULT` and
    `lattice.DEFAULT_BUDGET` when the parser is built, so `main` reads
    them once, at its first call; nothing patches them.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json", "csv"),
                        default="pretty")
    common.add_argument("--out", metavar="FILE", default=None)
    common.add_argument("--eps", type=float, default=secrecy._EPS_DEFAULT)
    common.add_argument("--budget", type=int, default=lattice.DEFAULT_BUDGET)

    p = argparse.ArgumentParser(prog="modlat", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = sub_parser("expand", help="q-expansion of a form or lattice")
    s.add_argument("name")
    s.add_argument("--order", default="16")
    s.set_defaults(func=cmd_expand)

    s = sub_parser("decompose", help="solve a theta decomposition")
    s.add_argument("name", nargs="?", default=None)
    s.add_argument("--gram", metavar="FILE", default=None)
    s.add_argument("--kind", choices=("even", "general"), default=None)
    s.set_defaults(func=cmd_decompose)

    s = sub_parser("code", help="operations on codes over F3+vF3")
    s.add_argument("generator",
                   help="named fixture 'PSole_dim8' or a generator file")
    s.add_argument("action", choices=("lwe", "gram", "theta", "selfdual"))
    s.add_argument("--order", default="8")
    s.set_defaults(func=cmd_code)

    s = sub_parser("gain", help="weak secrecy gain")
    s.add_argument("name", nargs="?", default=None)
    s.add_argument("--gram", metavar="FILE", default=None)
    s.set_defaults(func=cmd_gain)

    s = sub_parser("curve", help="secrecy function samples")
    s.add_argument("name", nargs="?", default=None)
    s.add_argument("--gram", metavar="FILE", default=None)
    s.add_argument("--range", default="-6:3", help="dB range lo:hi")
    s.add_argument("--samples", type=int, default=200)
    s.set_defaults(func=cmd_curve)

    s = sub_parser("tables", help="recompute a reference table")
    s.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    s.set_defaults(func=cmd_tables)

    s = sub_parser("catalog", help="list shipped names")
    s.set_defaults(func=cmd_catalog)
    return p


#: The parser `main` reuses, built at its first call.
_parser = None


def main(argv=None):
    """Run one command; returns its exit code.

    May be called any number of times in one process: the parser is
    built at the first call (see `build_parser`) and reused, and each
    call reads argv, writes its output and keeps nothing.  An argparse
    error raises SystemExit(2), as from the command line.
    """
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    # glue "--range -6:3" into one token so argparse does not read the
    # negative bound as a flag
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--range" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = ["--range=" + argv[i + 1]]
        i += 1
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModlatError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
