"""Workload `closed_form`: exact q-series work with almost no enumeration.

Why: `qseries`, `theta`, `modform` and `codes` do the work; `lattice`
only runs ExampleDim8 to norm 8 inside `tables --which 2`.  The memo
caches (`theta.expand` and the others) start cold in every run and fill
during it: every second draw of a form, row or code order repeats an
earlier one.  The share of repeated keys is measured and reported, so a
caching change shows which share of jobs it can help.

Job mix per cycle: `theta.expand` of every name in FORM_NAMES at a
seeded order up to 160; `expand_decomposition` of six Table 1/2 rows
(all eighteen every three cycles) at seeded orders up to 48; six solve
round trips on seeded random coefficient vectors, one basis shape each
(the pattern of acceptance criterion 7); the theta/eta identities at a
seeded order; the length weight enumerator of the shipped code and
`theta_from_lwe` at a seeded order; JSON and text round trips; and five
in-process CLI calls (`tables --which 2`, `tables --which 3`, `gain`,
`curve --format json`, `expand`).

Checks: expansions equal the references committed in refs/ (made by
make_refs.py); round trips return their input exactly; the identities
pass; `theta_from_lwe` equals the dim8 expansion; CLI output is
byte-equal to the committed reference, except that the float values of
`curve --format json` are compared within 1e-12 relative.  `tables
--which 3` is correct when it exits 1 with HS20 marked FAIL, as the
shipped data disputes that row.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from common import (Cycler, Job, Keys, Mismatch, bump_series, check_series,
                    load_ref)

#: Cycles of the traced run's fixed job list.
TRACE_CYCLES = 80

TAIL_PERCENTILE = 99



def _orders(lo, hi):
    """Truncation orders lo..hi on a quarter-integer grid."""
    return [lo + Fraction(k, 4) for k in range(4 * (hi - lo) + 1)]


#: Orders drawn for each form name (theta.expand), each row
#: (expand_decomposition), theta_from_lwe and the identities; every
#: second draw repeats an earlier one (common.Keys).  The quarter grid
#: gives each stream enough fresh keys for 250 cycles or more, over
#: twice the most a 30 s run has completed, so the repeat share stays
#: one half however fast the package gets within that margin.
EXPAND_ORDERS = _orders(16, 160)
DECOMP_ORDERS = _orders(10, 48)
LWE_ORDERS = _orders(8, 48)
IDENTITY_ORDERS = _orders(8, 40)
ROWS_PER_CYCLE = 6
ROUND_TRIPS_PER_CYCLE = 6

#: The finite set of CLI calls the cycles draw from; make_refs.py
#: records the output of each.
CURVE_RANGES = ("-6:3", "-4:0", "-2:2")
CLI_EXPAND_ORDERS = ("8", "16", "24")
CURVE_TOL = 1e-12


def cli_calls(modlat):
    rows = [r.name for r in modlat.fixtures.TABLE1 + modlat.fixtures.TABLE2]
    calls = [("tables", "--which", "2"), ("tables", "--which", "3")]
    calls += [("gain", r) for r in rows]
    calls += [("curve", r, "--range", rg, "--samples", "10", "--format",
               "json") for r in rows for rg in CURVE_RANGES]
    calls += [("expand", name, "--order", o)
              for name in tuple(modlat.FORM_NAMES) + tuple(rows)
              for o in CLI_EXPAND_ORDERS]
    return calls


def run_cli(cli, argv):
    """modlat.cli.main in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


class State:
    pass


def setup(modlat, rng):
    st = State()
    st.m = modlat
    rows = modlat.fixtures.TABLE1 + modlat.fixtures.TABLE2
    st.rows = {r.name: r for r in rows}
    st.bases = {r.name: modlat.build_basis(r.ell, r.dim, r.kind)
                for r in rows}
    st.decomps = {r.name: modlat.ThetaDecomposition(
        st.bases[r.name], tuple(Fraction(c) for c in r.coeffs))
        for r in rows}
    st.code = modlat.CodeOverR.from_pairs(
        modlat.fixtures.PSOLE_DIM8_GENERATOR)
    st.serial_series = [modlat.QSeries.from_terms(
        [(Fraction(rng.randrange(1, 200), rng.choice((1, 2, 3, 4, 12))),
          Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 50)))
         for _ in range(24)], 60) for _ in range(4)]
    st.serial_grams = [modlat.catalog(n).gram
                       for n in ("D4", "E8", "ExampleDim8", "K12")]
    st.expand_orders = {name: Keys(rng, EXPAND_ORDERS)
                        for name in modlat.FORM_NAMES}
    st.decomp_rows = Cycler(rng, st.rows)
    st.decomp_orders = {name: Keys(rng, DECOMP_ORDERS) for name in st.rows}
    st.shapes = Cycler(rng, st.rows)
    st.lwe_orders = Keys(rng, LWE_ORDERS)
    st.identity_orders = Keys(rng, IDENTITY_ORDERS)
    st.serial = Cycler(rng, range(len(st.serial_series)))
    st.serial_rows = Cycler(rng, st.rows)
    st.serial_gram = Cycler(rng, range(len(st.serial_grams)))
    calls = cli_calls(modlat)
    st.gain_calls = Cycler(rng, [c for c in calls if c[0] == "gain"])
    st.curve_calls = Cycler(rng, [c for c in calls if c[0] == "curve"])
    st.expand_calls = Cycler(rng, [c for c in calls if c[0] == "expand"])
    st.rng = rng
    st.seen = set()
    return st


def load_refs(st):
    st.forms = load_ref("forms.json")
    st.row_refs = load_ref("rows.json")
    st.lwe_ref = load_ref("lwe.json")
    st.cli_refs = load_ref("cli.json")


def _repeat(st, key):
    rep = key in st.seen
    st.seen.add(key)
    return {"cache_key": "repeat" if rep else "first"}


def _expand_job(st, name, order):
    theta = st.m.theta

    def run():
        return theta.expand(name, order)

    return Job("expand", "expand %s order %s" % (name, order), run,
               lambda s: check_series(s, st.forms[name], order),
               lambda s: bump_series(st.m, s),
               _repeat(st, ("expand", name, order)))


def _decomp_job(st, name, order):
    modform = st.m.modform
    d = st.decomps[name]

    def run():
        return modform.expand_decomposition(d, order)

    return Job("expand_decomposition", "%s order %s" % (name, order), run,
               lambda s: check_series(s, st.row_refs[name], order),
               lambda s: bump_series(st.m, s),
               _repeat(st, ("decomposition", name, order)))


def _round_trip_job(st, name):
    m = st.m
    basis = st.bases[name]
    step = 2 if basis.kind == "even" else 1
    coeffs = (Fraction(1),) + tuple(Fraction(st.rng.randrange(-500, 500))
                                    for _ in basis.terms[1:])
    order = max(10, step * len(basis.terms))

    def run():
        d = m.ThetaDecomposition(basis, coeffs)
        s = m.modform.expand_decomposition(d, order)
        known = [(step * i, s.coeff_at(step * i))
                 for i in range(len(basis.terms))]
        return m.modform.solve_coefficients(basis, known,
                                            surplus_depth=0).coeffs

    def check(back):
        if back != coeffs:
            raise Mismatch("round trip returned %s for %s" % (back, coeffs))

    return Job("round_trip", "shape (%d,%d,%s)" % (basis.ell, basis.n,
                                                   basis.kind),
               run, check, lambda back: (back[0] + 1,) + back[1:])


def _identity_job(st, order):
    theta = st.m.theta

    def run():
        return theta.verify_theta_eta_identities(order)

    def check(report):
        if len(report) != 3:
            raise Mismatch("expected three identities, got %d"
                           % len(report))
        bad = [k for k, (ok, _) in report.items() if not ok]
        if bad:
            raise Mismatch("identities fail: %s" % bad)

    def perturb(report):
        bad = dict(report)
        bad[next(iter(bad))] = (False, Fraction(0))
        return bad

    return Job("identities", "identities order %s" % order, run, check,
               perturb, _repeat(st, ("identities", order)))


def _lwe_job(st, order):
    codes = st.m.codes
    code = st.code

    def run():
        lwe = codes.length_weight_enumerator(code)
        return lwe, codes.theta_from_lwe(lwe, order)

    def check(out):
        lwe, s = out
        if sorted([list(k), v] for k, v in lwe.items()) != st.lwe_ref:
            raise Mismatch("length weight enumerator differs")
        check_series(s, st.row_refs["dim8"], order)

    return Job("lwe", "lwe + theta_from_lwe order %s" % order, run, check,
               lambda out: (out[0], bump_series(st.m, out[1])),
               _repeat(st, ("theta_from_lwe", order)))


def _serial_job(st):
    m = st.m
    s = st.serial_series[st.serial.next()]
    d = st.decomps[st.serial_rows.next()]
    g = st.serial_grams[st.serial_gram.next()]

    def run():
        return (m.QSeries.from_json(s.to_json()),
                m.QSeries.from_text(s.to_text()),
                m.ThetaDecomposition.from_json(d.to_json()),
                m.GramMatrix.from_json(g.to_json()),
                m.GramMatrix.from_text(g.to_text()))

    def check(out):
        if out != (s, s, d, g, g):
            raise Mismatch("serialization round trip changed its input")

    return Job("serialize", "json/text round trips", run, check,
               lambda out: (bump_series(m, out[0]),) + out[1:])


def _cli_job(st, argv):
    cli = st.m.cli
    key = " ".join(argv)
    ref = st.cli_refs[key]

    def run():
        return run_cli(cli, argv)

    def check(out):
        rc, text = out
        if rc != ref["rc"]:
            raise Mismatch("exit code %d, reference %d" % (rc, ref["rc"]))
        if argv[0] == "curve":
            _check_curve(text, ref["stdout"])
        elif text != ref["stdout"]:
            raise Mismatch("output differs from the committed reference")
        if argv[:3] == ("tables", "--which", "3"):
            hs20 = [ln for ln in text.splitlines() if " HS20 " in ln]
            if rc != 1 or len(hs20) != 1 or not hs20[0].endswith("FAIL"):
                raise Mismatch("tables --which 3 must exit 1 with HS20 FAIL")

    return Job("cli", key, run, check, lambda out: (out[0] + 1, out[1]))


def _check_curve(text, ref_text):
    got, want = json.loads(text), json.loads(ref_text)
    if len(got) != len(want):
        raise Mismatch("curve has %d points, reference %d"
                       % (len(got), len(want)))
    for a, b in zip(got, want):
        if a["y_dB"] != b["y_dB"] or \
                abs(a["xi"] - b["xi"]) > CURVE_TOL * abs(b["xi"]):
            raise Mismatch("curve point %s differs from reference %s"
                           % (a, b))


def anchors(st):
    return []


def cycle(st):
    jobs = [_expand_job(st, name, st.expand_orders[name].next())
            for name in st.m.FORM_NAMES]
    for _ in range(ROWS_PER_CYCLE):
        name = st.decomp_rows.next()
        jobs.append(_decomp_job(st, name, st.decomp_orders[name].next()))
    for _ in range(ROUND_TRIPS_PER_CYCLE):
        jobs.append(_round_trip_job(st, st.shapes.next()))
    jobs.append(_identity_job(st, st.identity_orders.next()))
    jobs.append(_lwe_job(st, st.lwe_orders.next()))
    jobs.append(_serial_job(st))
    for argv in (("tables", "--which", "2"), ("tables", "--which", "3"),
                 st.gain_calls.next(), st.curve_calls.next(),
                 st.expand_calls.next()):
        jobs.append(_cli_job(st, argv))
    return jobs
