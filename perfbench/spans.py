"""Spans around calls into moduliq's public functions, and the per-layer
metrics built from them.

A ``Tracer`` replaces every public function of each layer module with a
wrapper that records a span [name, start, end, parent, operation, pairs].
The replacement is made in every moduliq module that holds the function,
because ``modforms`` and ``borcherds`` bind ``count_coset_vectors`` and
``inverse_delta`` at import.  Untraced runs install nothing.

Run as a script, this file is the traced (or profiled) ``moduliq``
entry point of the cli workload:

    python3 perfbench/spans.py --child traced -- theta --lattice E6 --json

It runs the subcommand exactly as the console script does and reports its
spans, cache counters and import time on one marker line of stderr.
"""

import cProfile
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

TRACE_MARKER = "@@perfbench-trace "

LAYERS = (
    "_linalg", "lattices", "shortvec", "qseries", "modforms", "borcherds",
    "hermitian", "kirwan", "ledger", "luna", "cli",
)
# public methods that carry a layer's work
METHODS = {
    ("qseries", "QSeries"): ("__mul__", "invert", "pow"),
    ("modforms", "WeilRep"): ("symmetrized",),
}
CACHES = {
    "lattices.discriminant_group": ("lattices", "discriminant_group"),
    "shortvec.root_data": ("shortvec", "root_data"),
    "modforms.weil_rep": ("modforms", "weil_rep"),
    "borcherds._obstruction_tuples": ("borcherds", "_obstruction_tuples"),
    "luna.sextic_discriminant": ("luna", "sextic_discriminant"),
}
# metric group -> span names whose self time it sums
GROUPS = {
    "modforms.theta": ("modforms.theta_series",),
    "modforms.eisenstein": ("modforms.eisenstein_level3", "modforms.bernoulli"),
    "modforms.obstruction": ("modforms.obstruction_eisenstein", "modforms.obstruction_cusp_basis"),
    "modforms.weil": ("modforms.weil_rep", "modforms.WeilRep.symmetrized"),
    "modforms.dimension": ("modforms.vvmf_dimension_report", "modforms.vvmf_dimension"),
    "qseries.mul": ("qseries.QSeries.__mul__",),
    "qseries.invert": ("qseries.QSeries.invert",),
    "qseries.eta_power": ("qseries.eta_power",),
}
ENUMERATIONS = ("shortvec.count_coset_vectors", "shortvec.coset_vectors")
SCALAR_FILES = ("fractions.py", "_rational.py", "scalars.py")

# (name, unit, better); every traced run reports all of them
PER_LAYER = (
    ("shortvec.self_s", "s", "lower"),
    ("shortvec.calls", "count", "lower"),
    ("shortvec.vectors", "count", "lower"),
    ("shortvec.vectors_per_s", "1/s", "higher"),
    ("shortvec.root_data.hits", "count", "higher"),
    ("shortvec.root_data.misses", "count", "lower"),
    ("modforms.self_s", "s", "lower"),
    ("modforms.theta.self_s", "s", "lower"),
    ("modforms.theta.calls", "count", "lower"),
    ("modforms.eisenstein.self_s", "s", "lower"),
    ("modforms.obstruction.self_s", "s", "lower"),
    ("modforms.weil.self_s", "s", "lower"),
    ("modforms.dimension.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("qseries.self_s", "s", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.self_s", "s", "lower"),
    ("qseries.mul.pairs", "count", "lower"),
    ("qseries.invert.calls", "count", "lower"),
    ("qseries.invert.self_s", "s", "lower"),
    ("qseries.eta_power.self_s", "s", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("lattices.self_s", "s", "lower"),
    ("lattices.discriminant_group.hits", "count", "higher"),
    ("lattices.discriminant_group.misses", "count", "lower"),
    ("borcherds.self_s", "s", "lower"),
    ("hermitian.self_s", "s", "lower"),
    ("kirwan.self_s", "s", "lower"),
    ("ledger.self_s", "s", "lower"),
    ("luna.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("process.import_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def import_layers():
    """Import every layer module; returns {layer name: module}."""
    return {name: importlib.import_module(f"moduliq.{name}") for name in LAYERS + ("scalars", "_rational")}


def cache_functions(mods):
    """The lru caches, looked up before any wrapper replaces them."""
    return {key: getattr(mods[m], f) for key, (m, f) in CACHES.items()}


def cache_counts(caches):
    return {key: list(f.cache_info()[:2]) for key, f in caches.items()}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        value = getattr(mod, name)
        if inspect.isfunction(value) or hasattr(value, "cache_info"):
            if getattr(value, "__module__", None) == mod.__name__:
                yield name, value


class Tracer:
    """Records spans while installed; aggregates them into per-layer metrics."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.stack = []
        self.op = None
        self.caches = {}
        self.import_s = []
        self._patches = []

    def reset(self):
        self.spans, self.stack, self.caches = [], [], {}

    def wrap(self, name, fn, pairs=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = pairs(args) if pairs else None
            index = len(self.spans)
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.op, extra]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = clock()
            if name in ENUMERATIONS:
                span[5] = result if isinstance(result, int) else len(result)
            return result

        return wrapper

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = self.mods[layer]
            if layer == "cli":
                found = [("run", mod.run)] + [(n, f) for n, f in vars(mod).items() if n.startswith("_cmd_")]
            else:
                found = list(_public_functions(mod))
            for fname, fn in found:
                span = "handler." + fname if fname.startswith("_cmd_") else f"{layer}.{fname}"
                targets[id(fn)] = (fn, self.wrap(span, fn))
        modules = [m for n, m in sys.modules.items() if n == "moduliq" or n.startswith("moduliq.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        qseries_cls = self.mods["qseries"].QSeries

        def mul_pairs(args):
            a, b = args[0], args[1]
            if isinstance(a, qseries_cls) and isinstance(b, qseries_cls):
                return len(a.exponents()) * len(b.exponents())
            return 0

        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(self.mods[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                wrapper = self.wrap(f"{layer}.{cls_name}.{meth}", fn, mul_pairs if meth == "__mul__" else None)
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._patches.append((cls, attr, value))
                        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def absorb(self, line):
        """Merge one child's marker payload (cli workload) into this pass."""
        payload = json.loads(line)
        offset = len(self.spans)
        for name, start, end, parent, _op, extra in payload.get("spans", []):
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op, extra])
        self.add_caches(payload.get("caches", {}))
        if "import_s" in payload:
            self.import_s.append(payload["import_s"])

    def add_caches(self, counts):
        for key, (hits, misses) in counts.items():
            old = self.caches.get(key, [0, 0])
            self.caches[key] = [old[0] + hits, old[1] + misses]

    def metrics(self):
        """Per-layer figures of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_by_name = {}
        calls = {}
        for i, s in enumerate(spans):
            self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + (s[2] - s[1] - child[i])
            calls[s[0]] = calls.get(s[0], 0) + 1

        def layer_of(name):
            return name.split(".")[0]

        out = {}
        for layer in LAYERS:
            key = "linalg" if layer == "_linalg" else layer
            out[f"{key}.self_s"] = sum((v for n, v in self_by_name.items() if layer_of(n) == layer), 0.0)
        out["cli.self_s"] = self_by_name.get("cli.run", 0.0)
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_by_name.get(n, 0.0) for n in names)
        out["modforms.theta.calls"] = calls.get("modforms.theta_series", 0)
        out["qseries.mul.calls"] = calls.get("qseries.QSeries.__mul__", 0)
        out["qseries.invert.calls"] = calls.get("qseries.QSeries.invert", 0)
        out["qseries.mul.pairs"] = sum(s[5] or 0 for s in spans if s[0] == "qseries.QSeries.__mul__")

        def outermost(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return False
                p = spans[p][3]
            return True

        shortvec_names = {n for n in calls if layer_of(n) == "shortvec"}
        out["shortvec.calls"] = sum(
            1 for i, s in enumerate(spans) if s[0] in shortvec_names and outermost(i, shortvec_names)
        )
        out["shortvec.vectors"] = sum(
            s[5] or 0 for i, s in enumerate(spans) if s[0] in ENUMERATIONS and outermost(i, ENUMERATIONS)
        )
        busy = out["shortvec.self_s"]
        out["shortvec.vectors_per_s"] = out["shortvec.vectors"] / busy if busy else 0.0
        for key in ("shortvec.root_data", "lattices.discriminant_group"):
            out[f"{key}.hits"], out[f"{key}.misses"] = self.caches.get(key, [0, 0])
        return out


def scalar_self_time(profile) -> float:
    """Profiler self time spent in fractions, moduliq._rational and moduliq.scalars."""
    profile.create_stats()
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in profile.stats.items():
        path = Path(filename)
        if path.name == "fractions.py" or (path.name in SCALAR_FILES and path.parent.name == "moduliq"):
            total += tottime
    return total


def child_main(mode, argv):
    start = time.perf_counter()
    import moduliq.cli as cli

    payload = {"import_s": time.perf_counter() - start}
    mods = import_layers()
    caches = cache_functions(mods)
    tracer = Tracer(mods) if mode == "traced" else None
    profile = cProfile.Profile() if mode == "profiled" else None
    sys.argv = ["moduliq", *argv]
    if tracer:
        tracer.install()
    try:
        if profile:
            profile.enable()
        code = cli.main()
    finally:
        if profile:
            profile.disable()
            payload["scalars_s"] = scalar_self_time(profile)
        if tracer:
            tracer.uninstall()
            payload["spans"] = tracer.spans
            payload["caches"] = cache_counts(caches)
        sys.stderr.write(TRACE_MARKER + json.dumps(payload) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] != "--child" or sys.argv[2] not in ("traced", "profiled") or sys.argv[3] != "--":
        sys.exit("usage: spans.py --child traced|profiled -- SUBCOMMAND ...")
    sys.exit(child_main(sys.argv[2], sys.argv[4:]))
