"""Per-layer tracing from outside the program.

A Tracer wraps every public function of charp's layer modules in every
module namespace that binds it (so `charp.testideal.mixed_root`,
`charp.hsl.mixed_root` and `charp.cli.mixed_root` all share the wrapper of
`charp.frobenius.mixed_root`), plus `Polynomial.__mul__`,
`Polynomial.__pow__` and `RingContext.from_dict`, and three private cli
helpers that bound the cache and payload work. Each wrapped call records a
span (name, start, end, parent) in flat arrays; a few hooks count what the
call returned. Calls, parent-to-child edges and self times are derived
from the spans in `metrics`. Spans stay in memory until `write`.

A span's self time is its duration minus the time its child spans cover;
a layer's self time sums the self times of its spans. Time between the
top-level spans is the benchmark's own time, so the layer self times plus
that outside time add up to the traced round's total.
"""

import functools
import gzip
import json
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("ring", "frobenius", "groebner", "testideal", "hsl", "cli")
CLASS_METHODS = (
    ("ring", "Polynomial", "__mul__"),
    ("ring", "Polynomial", "__pow__"),
    ("ring", "RingContext", "from_dict"),
)
# cache file I/O and the hsl payload have no public function around them
CLI_PRIVATE = ("_load_cache_file", "_store_cache_entry", "_hsl_payload")


def _modules():
    import importlib

    return {layer: importlib.import_module(f"charp.{layer}") for layer in LAYERS}


def _targets(modules):
    """(qualified name, layer, owner, attribute, function) for every callable
    the tracer wraps. `owner` is the class for methods, else None."""
    out = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and not (layer == "cli" and name in CLI_PRIVATE):
                continue
            out.append((f"{layer}.{name}", layer, None, name, obj))
    for layer, cls_name, attr in CLASS_METHODS:
        cls = getattr(modules[layer], cls_name)
        out.append((f"{layer}.{cls_name}.{attr}", layer, cls, attr, vars(cls)[attr]))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # indices of the open spans
        self.counts = Counter()  # hook counters, by metric name
        self._installed = []

    # -- spans ------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, qualname, layer, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        after = _AFTER.get(qualname)
        if qualname == "cli.cached_compute":
            return _wrap_cached_compute(self, nid, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self):
        modules = _modules()
        import charp

        namespaces = [charp, *modules.values()]
        for qualname, layer, owner, attr, fn in _targets(modules):
            wrapper = self._wrap(qualname, layer, fn)
            if owner is not None:
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._installed.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self):
        while self._installed:
            ns, name, fn = self._installed.pop()
            setattr(ns, name, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def _tables(self):
        """Calls per name, calls per (parent name, name) edge, self time per
        layer and the time covered by top-level spans, all from the spans."""
        names, parents = self.span_name, self.span_parent
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        covered = [0.0] * len(durations)
        inside_s = 0.0
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                covered[parent] += duration
            else:
                inside_s += duration
        self_s = Counter()
        for nid, duration, child_s in zip(names, durations, covered):
            self_s[self.layer_of[nid]] += duration - child_s
        calls = Counter(names)
        edges = Counter((names[p] if p >= 0 else -1, nid) for p, nid in zip(parents, names))
        return calls, edges, self_s, inside_s, durations

    def metrics(self, total_s):
        """Every layer metric of one traced round whose timed span took
        total_s seconds of wall time."""
        calls, edges, self_s, inside_s, durations = self._tables()
        nid = {name: i for i, name in enumerate(self.names)}

        def c(name):
            return calls[nid[name]] if name in nid else 0

        def e(parent, child):
            return edges[(nid[parent], nid[child])] if parent in nid and child in nid else 0

        def duration(*qualnames):
            ids = {nid[q] for q in qualnames if q in nid}
            return sum(d for i, d in zip(self.span_name, durations) if i in ids)

        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "ring.mul.calls": c("ring.Polynomial.__mul__"),
            "ring.mul.terms_out": self.counts["ring.mul.terms_out"],
            "ring.pow.calls": c("ring.Polynomial.__pow__"),
            "ring.from_dict.calls": c("ring.RingContext.from_dict"),
            "frobenius.mixed_root.calls": c("frobenius.mixed_root"),
            "frobenius.root_levels": self.counts["frobenius.root_levels"],
            "frobenius.frob_root.calls": c("frobenius.frob_root"),
            "frobenius.gens_out": self.counts["frobenius.gens_out"],
            "frobenius.gens_kept": self.counts["frobenius.gens_kept"],
            "groebner.rgb.calls": c("groebner.reduced_groebner_basis"),
            "groebner.rgb.monomial_calls": self.counts["groebner.rgb.monomial_calls"],
            "groebner.normal_form.calls": c("groebner.normal_form"),
            "groebner.ideal_equal.calls": c("groebner.ideal_equal"),
            "groebner.basis_size.max": self.counts["groebner.basis_size.max"],
            "testideal.tau.calls": c("testideal.tau"),
            "testideal.tau_left.calls": c("testideal.tau_left"),
            "testideal.tau_ppower.calls": c("testideal.tau_ppower"),
            "testideal.chain_steps": e("testideal.cartier_chain", "frobenius.mixed_root"),
            "testideal.nu.probes": e("testideal.nu", "testideal.tau_ppower"),
            "testideal.grid_probes": e(
                "testideal.jumps_in_unit_interval", "testideal.tau_ppower"
            ),
            "testideal.candidates": e("testideal.jumps_in_unit_interval", "testideal.tau")
            + e("testideal.fpt", "testideal.tau"),
            "testideal.certified": self.counts["testideal.certified"],
            "hsl.chain_steps": c("hsl.cartier_step"),
            "cli.cache.loads": e("cli.cached_compute", "cli._load_cache_file"),
            "cli.cache.stores": c("cli._store_cache_entry"),
            "cli.cache.hits": self.counts["cli.cache.hits"],
            "cli.cache.audits": self.counts["cli.cache.audits"],
            "cli.cache_s": duration("cli._load_cache_file", "cli._store_cache_entry"),
            "cli.payload_s": duration(
                "cli.ideal_payload", "cli.certificate_payload", "cli._hsl_payload"
            ),
            "trace.total_s": total_s,
            "trace.outside_s": total_s - inside_s,
            "trace.spans": len(self.span_start),
        })
        return m

    def write(self, path, meta):
        body = {
            **meta,
            "names": self.names,
            "layers": self.layer_of,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(body, fh)


# -- hooks: counts taken from what a wrapped call returned -------------------


def _count_mul(counts, args, kwargs, result):
    counts["ring.mul.terms_out"] += len(result.terms)


def _count_mixed_root(counts, args, kwargs, result):
    counts["frobenius.root_levels"] += args[3] if len(args) > 3 else kwargs["e"]


def _count_frob_root(counts, args, kwargs, result):
    counts["frobenius.gens_out"] += len(result.gens)


def _count_canonical(counts, args, kwargs, result):
    counts["frobenius.gens_kept"] += len(result.gens)


def _count_rgb(counts, args, kwargs, result):
    gens = [g for g in args[1] if g.terms]
    if gens and all(len(g.terms) == 1 for g in gens) and not any(g.is_unit() for g in gens):
        counts["groebner.rgb.monomial_calls"] += 1
    counts["groebner.basis_size.max"] = max(counts["groebner.basis_size.max"], len(result))


def _count_jumps(counts, args, kwargs, result):
    counts["testideal.certified"] += sum(c.status == "certified-jump" for c in result)


def _count_fpt(counts, args, kwargs, result):
    counts["testideal.certified"] += getattr(result, "status", None) == "certified-jump"


_AFTER = {
    "ring.Polynomial.__mul__": _count_mul,
    "frobenius.mixed_root": _count_mixed_root,
    "frobenius.frob_root": _count_frob_root,
    "groebner.canonical_ideal": _count_canonical,
    "groebner.reduced_groebner_basis": _count_rgb,
    "testideal.jumps_in_unit_interval": _count_jumps,
    "testideal.fpt": _count_fpt,
}


def _wrap_cached_compute(tracer, nid, fn):
    """cached_compute(job, ring, f, op, params, compute): a call that opened
    no `_store_cache_entry` span stored nothing, so it was a hit, and a hit
    that ran `compute` was audited."""

    @functools.wraps(fn)
    def wrapper(job, ring, f, op, params, compute):
        ran = []

        def counted():
            ran.append(True)
            return compute()

        idx = tracer._open(nid)
        try:
            result = fn(job, ring, f, op, params, counted)
        finally:
            tracer._close(idx)
        store = tracer.names.index("cli._store_cache_entry")
        if job.cache_dir and store not in tracer.span_name[idx:]:
            tracer.counts["cli.cache.hits"] += 1
            tracer.counts["cli.cache.audits"] += len(ran)
        return result

    return wrapper
