"""Pieces shared by the benchmark's workloads, worker and reference maker.

The benchmark reads the package only through its public API, from the
`src/` tree of the checkout it runs in; no installed copy is used.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

#: Numeric tolerance requested from every secrecy evaluation (the
#: package default).
EPS = 1e-12


def import_package():
    """Import modlat from this checkout's src/ tree, or exit with code 3."""
    sys.path.insert(0, SRC)
    try:
        import modlat
        import modlat.cli
        import modlat.fixtures
    except ImportError as exc:
        sys.stderr.write("cannot import modlat from %s: %s\n" % (SRC, exc))
        sys.exit(3)
    if not os.path.abspath(modlat.__file__).startswith(SRC + os.sep):
        sys.stderr.write("modlat was imported from %s, not from %s\n"
                         % (modlat.__file__, SRC))
        sys.exit(3)
    return modlat


def load_ref(name):
    with open(os.path.join(REFS, name)) as fh:
        return json.load(fh)


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    """One unit of work in the closed loop.

    `run` takes no arguments and returns the package's output; it is the
    only timed part.  `check` compares that output with a reference and
    raises Mismatch on disagreement; it may return a string naming a
    known baseline defect that the output shows (see `known_errors`).
    `perturb` returns a deliberately wrong copy of a passing output, so
    the benchmark can confirm that `check` rejects it.  Exceptions of a
    type in `known_errors` are recorded as known defects with their
    message, not as failures.
    """
    kind: str
    label: str
    run: object
    check: object
    perturb: object
    props: dict = field(default_factory=dict)
    known_errors: tuple = ()


def spread_order(rng, choices):
    """`choices` in a seeded order whose every prefix is evenly spread.

    A golden-ratio sequence with a seeded offset picks the next unused
    position, so the first k values cover the range about evenly for
    any k, and the cost of a run's first draws depends little on the
    seed.
    """
    items = list(choices)
    n = len(items)
    used = [False] * n
    out = []
    x = rng.random()
    phi = (5 ** 0.5 - 1) / 2
    while len(out) < n:
        x = (x + phi) % 1.0
        i = int(x * n)
        while used[i]:
            i = (i + 1) % n
        used[i] = True
        out.append(items[i])
    return out


class Cycler:
    """Seeded systematic sampler: `choices` in spread_order, cycled.

    Every run visits the choices evenly, so the cost of a run depends on
    the seed far less than independent draws would make it.
    """

    def __init__(self, rng, choices):
        self.items = spread_order(rng, choices)
        self.i = 0

    def next(self):
        item = self.items[self.i % len(self.items)]
        self.i += 1
        return item


class Keys:
    """Seeded cache keys of which every second one repeats an earlier one.

    Fresh keys come from `choices` without replacement, in spread_order;
    a repeat is a seeded pick among the keys already drawn.  While fresh
    keys last, that is for the first 2 * len(choices) draws, the share of
    repeats is one half, and a memo cache keyed on them can serve at
    most that share of the draws; after that every draw repeats.  The
    workloads size `choices` so that fresh keys last well beyond the
    longest run seen, and the benchmark reports the measured share.
    """

    def __init__(self, rng, choices):
        self.rng = rng
        self.fresh = spread_order(rng, choices)
        self.seen = []

    def next(self):
        n_fresh = (len(self.seen) + 1) // 2
        if len(self.seen) % 2 or n_fresh >= len(self.fresh):
            key = self.rng.choice(self.seen)
        else:
            key = self.fresh[n_fresh]
        self.seen.append(key)
        return key


def check_series(result, ref, order):
    """A QSeries must equal its committed to_json_dict reference below
    `order`, compared as exponent -> coefficient maps."""
    den = ref["den"]
    want = {Fraction(n, den): Fraction(c) for n, c in ref["terms"]
            if Fraction(n, den) < order}
    if dict(result.terms()) != want or result.trunc != order:
        raise Mismatch("series differs from reference below order %s"
                       % order)


def bump_series(modlat, s):
    """Copy of a QSeries with its constant coefficient raised by one."""
    coeffs = dict(s.coeffs)
    coeffs[0] = coeffs.get(0, 0) + 1
    return modlat.QSeries(s.den, coeffs, s.trunc)
