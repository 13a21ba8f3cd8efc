"""Span tracer for the loopsoup layers, installed from outside the package.

The tracer rebinds every public function of the traced modules at every
import site (the package namespace and each module that imported it), and
patches the methods that matter on their classes.  Each call records a
span (name, start, end, parent); spans stay in memory and are written when
the run ends.  Counts are read from return values only, so tracing never
consumes random draws.  src/ is left unchanged.
"""

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("graph", "exact", "loops", "zeta", "samplers", "verify")

# (module, class, method) patched on the class itself
METHODS = (
    ("graph", "EnergyForm", "__init__"),
    ("samplers", "PointedLoopSampler", "__init__"),
    ("samplers", "PointedLoopSampler", "sample"),
)


def _pointed_setup(counts, args, out):
    sampler = args[0]
    n = sampler.e.n
    counts["samplers.pointed_setups"] += 1
    counts["samplers.k_cap"] = max(counts["samplers.k_cap"], sampler.k_cap)
    powers = (sampler.k_cap + 1) * n * n * 8 / 2**20
    counts["samplers.powers_mb"] = max(counts["samplers.powers_mb"], powers)


def _pointed_sample(counts, args, out):
    counts["samplers.loops"] += 1
    counts["samplers.loop_steps"] += out.p


def _bridge(counts, args, out):
    counts["samplers.bridges"] += 1
    counts["samplers.bridge_steps"] += len(out.vertices)


def _wilson(counts, args, out):
    tree, ensemble = out
    counts["samplers.erased_loops"] += len(ensemble.loops)
    counts["samplers.walk_steps"] += len(tree.parent) + sum(loop.p for loop in ensemble.loops)


def _enumerate(counts, args, out):
    counts["loops.classes"] += len(out[0])


def _nb_counts(counts, args, out):
    counts["zeta.walks"] += sum(out[1])


def _green_call(counts, args, out):
    counts["exact.green_calls"] += 1


POST = {
    "samplers.PointedLoopSampler.__init__": _pointed_setup,
    "samplers.PointedLoopSampler.sample": _pointed_sample,
    "samplers.sample_bridge": _bridge,
    "samplers.wilson_sample": _wilson,
    "loops.enumerate_loops": _enumerate,
    "zeta.non_backtracking_counts": _nb_counts,
    "exact.green": _green_call,
    "exact.green_chi": _green_call,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.name_ids = {}
        self.segments = []  # (kind, spans, counts)
        self.spans = None
        self.counts = None
        self.stack = []
        self._undo = []
        self._wrappers = {}  # original function -> traced wrapper
        self._methods = []  # (class, method name, original, traced wrapper)
        self._build_wrappers()

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        post = POST.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                stack.pop()
            if post is not None:
                post(tracer.counts, args, out)
            return out

        return traced

    def _build_wrappers(self):
        pkg = self.package
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        self._wrappers[pkg.cli.main] = self._wrap("cli.main", pkg.cli.main)
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(pkg, layer), cls_name)
            original = cls.__dict__[meth]
            self._methods.append((cls, meth, original, self._wrap(f"{layer}.{cls_name}.{meth}", original)))

    def install(self):
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in LAYERS + ("cli", "rng", "fixtures")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        for cls, meth, original, wrapper in self._methods:
            self._undo.append((cls, meth, original))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- segments ---------------------------------------------------------

    def begin(self, kind):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.segments.append((kind, self.spans, self.counts))

    def end(self):
        self.spans = None
        self.counts = None

    def write(self, path):
        out = {
            "names": self.names,
            "segments": [
                {"kind": kind, "counts": dict(counts), "spans": spans}
                for kind, spans, counts in self.segments
            ],
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


# per-layer groups: time covered by spans of these names, counting a span
# nested inside another span of the same group once
GROUPS = {
    "graph.build_s": ("graph.load_energy_form", "graph.EnergyForm.__init__"),
    "graph.derive_s": ("graph.restrict", "graph.trace_on", "graph.build_wreath"),
    "exact.green_s": ("exact.green", "exact.green_chi"),
    "exact.kernel_s": ("exact.hitting_kernel", "exact.capacity", "exact.transfer_matrix",
                       "exact.twisted_green", "exact.partition_ratio"),
    "loops.enumerate_s": ("loops.enumerate_loops",),
    "loops.det_s": ("loops.mu_hit_avoid", "loops.cross_hitting_series", "loops.alpha_permanent",
                    "loops.occupation_moments", "loops.mu_nontrivial_total",
                    "loops.spectral_radius"),
    "zeta.series_s": ("zeta.zeta_ihara",),
    "zeta.enum_s": ("zeta.non_backtracking_counts",),
    "samplers.pointed_setup_s": ("samplers.PointedLoopSampler.__init__",),
    "samplers.loop_total_s": ("samplers.PointedLoopSampler.sample",),
    "samplers.bridge_total_s": ("samplers.sample_bridge",),
    "samplers.wilson_s": ("samplers.wilson_sample",),
    "samplers.gff_s": ("samplers.sample_gff",),
}

SUITES = {
    "verify.verify_dynkin": "dynkin",
    "verify.verify_transfer_current": "transfer_current",
    "verify.verify_loop_erasure": "loop_erasure",
    "verify.verify_reflection_positivity": "reflection",
    "verify.verify_energy_variation": "energy_variation",
    "verify.verify_zeta": "zeta",
    "verify.verify_occupation_marginals": "occupation",
}

GROUP_OF = {}
for _metric, _members in GROUPS.items():
    for _member in _members:
        GROUP_OF.setdefault(_member, []).append(_metric)

COUNTS = (
    "exact.green_calls", "loops.classes", "zeta.walks", "samplers.pointed_setups", "samplers.k_cap",
    "samplers.powers_mb", "samplers.loops", "samplers.loop_steps", "samplers.bridge_steps",
    "samplers.walk_steps", "samplers.erased_loops",
)


def segment_metrics(names, spans, counts):
    """Per-layer totals of one traced segment (a set-up or a batch)."""
    out = dict.fromkeys(GROUPS, 0.0)
    for suite in SUITES.values():
        out[f"verify.{suite}_s"] = 0.0
    out["verify.self_s"] = 0.0
    out["cli.self_s"] = 0.0
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    for k, (nid, t0, t1, parent) in enumerate(spans):
        name = names[nid]
        dur = t1 - t0
        for metric in GROUP_OF.get(name, ()):
            members = GROUPS[metric]
            p = parent
            while p >= 0 and names[spans[p][0]] not in members:
                p = spans[p][3]
            if p < 0:
                out[metric] += dur
        if name in SUITES:
            out[f"verify.{SUITES[name]}_s"] += dur
            out["verify.self_s"] += dur - child_time[k]
        elif name == "cli.main":
            out["cli.self_s"] += dur - child_time[k]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    loops = counts.get("samplers.loops", 0)
    bridges = counts.get("samplers.bridges", 0)
    steps = counts.get("samplers.walk_steps", 0)
    loop_s = out.pop("samplers.loop_total_s")
    bridge_s = out.pop("samplers.bridge_total_s")
    out["samplers.loop_us"] = 1e6 * loop_s / loops if loops else 0.0
    out["samplers.bridge_us"] = 1e6 * bridge_s / bridges if bridges else 0.0
    out["samplers.walk_step_us"] = 1e6 * out["samplers.wilson_s"] / steps if steps else 0.0
    enum_s = out["loops.enumerate_s"]
    out["loops.classes_per_s"] = out["loops.classes"] / enum_s if enum_s > 0 else 0.0
    return out

