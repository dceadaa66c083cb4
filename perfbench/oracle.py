"""Workload `oracle`: Gram matrix -> exact theta coefficients -> decomposition.

Why: nearly all of the time is spent in `lattice` (the Fincke-Pohst
enumerator) with a little in `modform` (solving for the decomposition).
Basis order is an input property the enumerator's cost depends on, so
every catalog Gram runs both in its shipped basis and in seeded
re-ordered bases (a signed permutation plus a few +-1 shears).
Half-scaled copies of ExampleDim8, K12 and D4 have entries with 1/2
and so exercise the rational branch of the enumerator, which no catalog
Gram reaches.

Job mix per cycle: every lattice once shipped and once re-ordered, and
the three half-scaled copies once each.  That puts nine fast jobs (the
small lattices and half-scaled D4) below the shipped E8 job and nine
slower ones, re-ordered E8 among them, above it, so the median job is
the shipped E8 enumeration, the same job in every cycle, rather than
the edge between two groups of different cost.  Every re-ordered job
gets a fresh seeded basis, so a run averages the enumerator's cost over
many of them.  Once per run, before the first cycle, BW16 is enumerated
in its shipped basis to norm 8, the heaviest case.  Every job that has a
basis also solves for its decomposition.

Checks: counts equal the closed-form expansion committed in
refs/oracle_counts.json (made by make_refs.py, which also confirms it by
enumeration); re-ordered Grams give the shipped counts; half-scaled
copies give the shipped counts at halved norms; decompositions equal
the fixture coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from common import Job, Mismatch, load_ref

#: Cycles of the traced run's fixed job list.
TRACE_CYCLES = 8

#: Highest percentile with at least ten samples beyond it at this
#: workload's smallest job count per run.
TAIL_PERCENTILE = 90

#: name -> (norm enumerated to in the shipped basis, in re-ordered
#: bases).  Fixed norms give the latencies plateaus, so the median and
#: the tail do not sit on a slope; re-ordered BW16 stops at norm 4
#: because at norm 8 one basis takes 12-26 s.
PLAN = {
    "E8": (8, 8),
    "K12": (8, 8),
    "BW16": (6, 4),
    "ExampleDim8": (21, 14),
    "D4": (16, 16),
    "A2": (30, 30),
    "C2": (30, 30),
    "C3": (30, 30),
}

#: Half-scaled copies: norm of the unscaled lattice to enumerate to.
HALF = {"ExampleDim8": 6, "K12": 6, "D4": 16}

#: Run once per run before the cycles: (lattice, norm).
ANCHOR = ("BW16", 8)

SHEARS = 3

#: Decomposition coefficients expected from solving (None: no basis).
#: C3 = Z + sqrt(3)Z is not in the level-3 even space, so it has none.
EXPECTED = {"E8": (1, "even", (1,)), "K12": (3, "even", (1, -36)),
            "BW16": (2, "even", (1, -96)),
            "ExampleDim8": (2, "general", (1, -8, 0)),
            "D4": (2, "even", (1,)), "A2": (3, "even", (1,)),
            "C2": (2, "general", (1,)), "C3": None}


def reordered(entries, rng):
    """U G U^T for a seeded signed permutation U with a few shears."""
    n = len(entries)
    G = [[int(x) for x in row] for row in entries]
    perm = list(range(n))
    rng.shuffle(perm)
    U = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        U[i][p] = rng.choice((1, -1))
    for _ in range(SHEARS):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        U[i] = [a + s * b for a, b in zip(U[i], U[j])]
    UG = [[sum(U[i][k] * G[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(UG[i][k] * U[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


class State:
    pass


def setup(modlat, rng):
    """Build every input through public constructors."""
    st = State()
    st.m = modlat
    st.rng = rng
    st.grams = {}
    st.bases = {}
    for name in PLAN:
        entry = modlat.catalog(name)
        st.grams[name] = entry.gram
        exp = EXPECTED[name]
        if exp is not None:
            ell, kind, _ = exp
            st.bases[name] = modlat.build_basis(ell, entry.gram.n, kind)
    st.half = {name: modlat.GramMatrix([[x / 2 for x in row]
                                        for row in st.grams[name].entries])
               for name in HALF}
    return st


def load_refs(st):
    st.counts = load_ref("oracle_counts.json")


def _reordered(st, name):
    return st.m.GramMatrix(reordered(st.grams[name].entries, st.rng))


def _job(st, name, gram, norm, basis_kind):
    lattice, modform = st.m.lattice, st.m.modform
    basis = st.bases.get(name)
    half = basis_kind == "half"
    max_norm = Fraction(norm, 2) if half else norm
    ref = st.counts[name]
    if half:
        want = [(Fraction(m, 2), c) for m, c in enumerate(ref[:norm + 1])
                if c]
    else:
        want = [(Fraction(m), c) for m, c in enumerate(ref[:norm + 1])]
    solve = basis is not None and not half

    def run():
        counts = lattice.theta_coefficients(gram, max_norm)
        dec = modform.solve_coefficients(basis, counts) if solve else None
        return counts, dec

    def check(out):
        counts, dec = out
        if counts != want:
            raise Mismatch("counts differ from the closed form")
        if solve:
            coeffs = EXPECTED[name][2]
            if dec.basis != basis or dec.coeffs != tuple(map(Fraction,
                                                             coeffs)):
                raise Mismatch("decomposition %s, fixture %s"
                               % (dec.coeffs, coeffs))

    def perturb(out):
        counts, dec = out
        bad = list(counts)
        m, c = bad[-1]
        bad[-1] = (m, c + 1)
        return bad, dec

    props = {"basis": "re-ordered" if basis_kind == "re-ordered"
             else "shipped",
             "gram": "rational" if half else "integral"}
    return Job("theta_coefficients", "%s %s norm<=%s" % (name, basis_kind,
                                                          max_norm),
               run, check, perturb, props)


def anchors(st):
    name, norm = ANCHOR
    return [_job(st, name, st.grams[name], norm, "shipped")]


def cycle(st):
    jobs = []
    for name, (shipped, reordered_norm) in PLAN.items():
        jobs.append(_job(st, name, st.grams[name], shipped, "shipped"))
        jobs.append(_job(st, name, _reordered(st, name), reordered_norm,
                         "re-ordered"))
    for name, norm in HALF.items():
        jobs.append(_job(st, name, st.half[name], norm, "half"))
    return jobs
