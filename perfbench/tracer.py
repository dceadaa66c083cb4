"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each layer module on the
module object, and again wherever another module bound them by name
(e.g. `secrecy.theta_coefficients`, `modlat.expand`), so nested calls are
seen.  It also wraps the arithmetic and serialization methods of
`QSeries`.  Each call becomes a span: name, start, end, parent span and
job id, kept in memory in flat arrays and written out at the end.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  A wrap point that no longer exists records zero.

The benchmark's checks run with the tracer paused, so only job work is
recorded.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("qseries", "theta", "lattice", "modform", "codes", "secrecy", "cli")

ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "scalar_mul", "__pow__", "scale_argument", "invert_unit")
SERIALIZE = ("to_json_dict", "from_json_dict", "to_json", "from_json",
             "to_text", "from_text")

#: Metric name -> (kind, argument), in the order BENCHMARK.json lists them.
#: kinds: calls / incl (outermost-span seconds) / count / ratio / self.
METRICS = {
    "lattice.enum_calls": ("calls", "lattice.theta_coefficients"),
    "lattice.enum_s": ("incl", "lattice.theta_coefficients"),
    "lattice.vectors": ("count", "lattice.vectors"),
    "lattice.vectors_per_s": ("ratio", ("lattice.vectors",
                                        "lattice.theta_coefficients")),
    "lattice.rational_enum_s": ("count", "lattice.rational_enum_s"),
    "lattice.budget_failures": ("count", "lattice.budget_failures"),
    "lattice.self_s": ("self", "lattice"),
    "qseries.mul_calls": ("calls", "qseries.QSeries.__mul__"),
    "qseries.mul_s": ("incl", "qseries.QSeries.__mul__"),
    "qseries.add_calls": ("calls", "qseries.QSeries.__add__"),
    "qseries.add_s": ("incl", "qseries.QSeries.__add__"),
    "qseries.pow_s": ("incl", "qseries.QSeries.__pow__"),
    "qseries.invert_unit_s": ("incl", "qseries.QSeries.invert_unit"),
    "qseries.serialize_s": ("incl", "qseries.serialize"),
    "qseries.terms_out": ("count", "qseries.terms_out"),
    "qseries.self_s": ("self", "qseries"),
    "theta.expand_calls": ("calls", "theta.expand"),
    "theta.expand_s": ("incl", "theta.expand"),
    "theta.cache_hit_ratio": ("hits", "theta.expand"),
    "theta.eta_quotient_s": ("incl", "theta.eta_quotient"),
    "theta.self_s": ("self", "theta"),
    "modform.solve_calls": ("calls", "modform.solve_coefficients"),
    "modform.solve_s": ("incl", "modform.solve_coefficients"),
    "modform.solve_unknowns": ("count", "modform.solve_unknowns"),
    "modform.expand_decomposition_s": ("incl", "modform.expand_decomposition"),
    "modform.self_s": ("self", "modform"),
    "codes.lwe_s": ("incl", "codes.length_weight_enumerator"),
    "codes.theta_from_lwe_s": ("incl", "codes.theta_from_lwe"),
    "codes.construction_a_s": ("incl", "codes.construction_a_gram"),
    "codes.coset_theta_hit_ratio": ("hits", "codes.coset_theta"),
    "codes.self_s": ("self", "codes"),
    "secrecy.eval_gram_calls": ("calls", "secrecy.eval_gram_numeric"),
    "secrecy.eval_gram_s": ("incl", "secrecy.eval_gram_numeric"),
    "secrecy.enum_per_eval": ("ratio", ("secrecy.enum_in_eval",
                                        "secrecy.eval_gram_numeric")),
    "secrecy.terms_used": ("count", "secrecy.terms_used"),
    "secrecy.closed_form_eval_s": ("incl",
                                   "secrecy.eval_decomposition_numeric"),
    "secrecy.maximum_evals": ("count", "secrecy.maximum_evals"),
    "secrecy.self_s": ("self", "secrecy"),
    "cli.main_calls": ("calls", "cli.main"),
    "cli.main_s": ("incl", "cli.main"),
    "cli.emit_bytes": ("count", "cli.emit_bytes"),
    "cli.self_s": ("self", "cli"),
}
UNITS = {"calls": "count", "incl": "s", "count": "count", "self": "s",
         "hits": "ratio"}


def metric_unit(name):
    kind, arg = METRICS[name]
    if kind == "ratio":
        return "1/s" if name.endswith("_per_s") else "ratio"
    if kind == "count":
        return "s" if name.endswith("_s") else "count"
    return UNITS[kind]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.counts = defaultdict(float)
        self.caches = {}
        self.job = -1
        self.paused = False
        self.cli_start = None

    # -- spans --------------------------------------------------------

    def _open(self, name):
        idx = len(self.span_start)
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        t = perf_counter()
        self.span_end[idx] = t
        self.stack.pop()
        return t - self.span_start[idx]

    def call(self, fn, name, group, before, after, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        outer = self.depth[group] == 0
        self.depth[group] += 1
        self.calls[name] += 1
        if before is not None:
            before(self, args, kwargs)
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            dur = self._close(idx)
            self._leave(group, outer, dur)
            if after is not None:
                after(self, dur, None, exc, args, kwargs)
            raise
        dur = self._close(idx)
        self._leave(group, outer, dur)
        if after is not None:
            after(self, dur, out, None, args, kwargs)
        return out

    def _leave(self, group, outer, dur):
        self.depth[group] -= 1
        if outer:
            self.incl[group] += dur

    def begin_job(self, job_id, kind):
        self.job = job_id
        return self._open("bench.job." + kind)

    def end_job(self, idx):
        self._close(idx)
        self.job = -1

    # -- installation -------------------------------------------------

    def install(self, modlat):
        mods = [m for k, m in list(sys.modules.items()) if m is not None
                and (k == "modlat" or k.startswith("modlat."))]
        for layer in LAYERS:
            mod = sys.modules.get("modlat." + layer)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or \
                        not callable(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                wrapped = self._wrap(obj, name, name)
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is obj:
                            setattr(m, k, wrapped)
        qs = getattr(sys.modules.get("modlat.qseries"), "QSeries", None)
        if qs is not None:
            for meth in ARITHMETIC + SERIALIZE:
                raw = qs.__dict__.get(meth)
                if raw is None:
                    continue
                name = "qseries.QSeries." + meth
                group = "qseries.serialize" if meth in SERIALIZE else name
                if isinstance(raw, classmethod):
                    setattr(qs, meth, classmethod(
                        self._wrap(raw.__func__, name, group)))
                else:
                    setattr(qs, meth, self._wrap(raw, name, group))

    def _wrap(self, fn, name, group):
        before, after = HOOKS.get(name, (None, None))
        if group.startswith("qseries.QSeries.") and after is None and \
                name.rsplit(".", 1)[1] in ARITHMETIC:
            after = _terms_out
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(fn, name, group, before, after, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------

    def self_times(self):
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        out = defaultdict(float)
        names = self.span_name
        for i in range(n):
            out[layer_of[names[i]]] += dur[i] - child[i]
        return out

    def metrics(self):
        selfs = self.self_times()
        out = {}
        for metric, (kind, arg) in METRICS.items():
            if kind == "calls":
                v = self.calls.get(arg, 0)
            elif kind == "incl":
                v = self.incl.get(arg, 0.0)
            elif kind == "count":
                v = self.counts.get(arg, 0)
            elif kind == "self":
                v = selfs.get(arg, 0.0)
            elif kind == "hits":
                fn = self.caches.get(arg)
                info = fn.cache_info() if fn is not None else None
                total = info.hits + info.misses if info else 0
                v = info.hits / total if total else 0.0
            else:  # ratio of a count (or calls) to seconds (or calls)
                num, den = arg
                a = self.counts.get(num, 0)
                b = self.incl.get(den, 0.0) if metric.endswith("_per_s") \
                    else self.calls.get(den, 0)
                v = a / b if b else 0.0
            out[metric] = v
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: job,name,start,end,parent (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job,name,start,end,parent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (
                    self.span_job[i], names[self.span_name[i]],
                    self.span_start[i], self.span_end[i],
                    self.span_parent[i]))


# -- hooks: counts measured where the work happens ----------------------

def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs.get(key)


def _enum_before(tr, args, kwargs):
    if tr.depth["secrecy.eval_gram_numeric"]:
        tr.counts["secrecy.enum_in_eval"] += 1


def _enum_after(tr, dur, out, exc, args, kwargs):
    gram = _arg(args, kwargs, 0, "gram")
    if gram is not None and not gram.is_integral():
        tr.counts["lattice.rational_enum_s"] += dur
    if exc is not None:
        if type(exc).__name__ == "BoundTooLarge":
            tr.counts["lattice.budget_failures"] += 1
        return
    tr.counts["lattice.vectors"] += sum(c for _, c in out)


def _eval_gram_after(tr, dur, out, exc, args, kwargs):
    if exc is None:
        tr.counts["secrecy.terms_used"] += out.terms_used


def _secrecy_function_before(tr, args, kwargs):
    if tr.depth["secrecy.locate_maximum"]:
        tr.counts["secrecy.maximum_evals"] += 1


def _solve_before(tr, args, kwargs):
    basis = _arg(args, kwargs, 0, "basis")
    tr.counts["modform.solve_unknowns"] += len(basis.terms)


def _main_before(tr, args, kwargs):
    out = sys.stdout
    tr.cli_start = out.tell() if out.seekable() else None


def _main_after(tr, dur, out, exc, args, kwargs):
    if tr.cli_start is not None:
        tr.counts["cli.emit_bytes"] += sys.stdout.tell() - tr.cli_start


def _terms_out(tr, dur, out, exc, args, kwargs):
    coeffs = getattr(out, "coeffs", None)
    if coeffs is not None:
        tr.counts["qseries.terms_out"] += len(coeffs)


HOOKS = {
    "lattice.theta_coefficients": (_enum_before, _enum_after),
    "secrecy.eval_gram_numeric": (None, _eval_gram_after),
    "secrecy.secrecy_function": (_secrecy_function_before, None),
    "modform.solve_coefficients": (_solve_before, None),
    "cli.main": (_main_before, _main_after),
}
