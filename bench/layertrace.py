"""Layer tracing of hkrlab from outside the package.

``Tracer.install()`` replaces the public functions and methods of every
hkrlab module with wrappers, and rebinds every by-name import of them
(``from .modules import flatten_map`` and the like) so that no call slips
past untraced.  Each layer is one module; a span is recorded only where a
call crosses from one layer into another, which is where self time changes
hands.  Calls inside a layer are only counted.

Layer self time is span time minus the time covered by child spans.  Spans
of the element-level classes (``Vec``, ``Poly``, ``BasedModule``, ...) are
timed into the self times but not kept as records, because there are
millions of them; all other spans are kept in memory as (name, start, end,
parent) under the tracer's run id and written out by ``write_spans``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "rational",
    "coeff",
    "modules",
    "exterior_core",
    "chain_core",
    "extension_dg",
    "ak_complexes",
    "hkr_local",
    "connections",
    "cech_twist",
)
CHECK_LAYER = "check"  # the pass-required check functions of cli_report

# classes whose methods run per element: timed and counted, never recorded
ELEMENT_CLASSES = {
    ("coeff", "Poly"),
    ("coeff", "CoeffAlgebra"),
    ("modules", "Vec"),
    ("modules", "BasedModule"),
    ("modules", "QBasis"),
}

# dunder methods that do arithmetic or construction work
WRAPPED_DUNDERS = {
    "__init__", "__call__", "__eq__", "__hash__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__",
    "__getitem__", "__setitem__",
}

OUTSIDE = -1


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []  # function id -> qualified name "layer.qualname"
        self.fids = {}  # qualified name -> function id
        self.counts = []
        self.layer_names = list(LAYERS) + [CHECK_LAYER]
        self.layer_self = [0.0] * len(self.layer_names)
        # recorded spans, column-wise: function id, parent span index (-1 for
        # none), start and end on the perf_counter clock
        self.spans = (array("i"), array("i"), array("d"), array("d"))
        self.originals = {}  # id(original) -> original, to prove none is left reachable
        self._layer_stack = [OUTSIDE]
        self._child_time = [0.0]
        self._open_records = [-1]
        self.observers = {}
        self.module_eq_same = 0
        self.rref_entries = 0
        self.rref_max_entries = 0
        self._keys = {}  # name -> set of argument keys seen
        self.repeats = {}  # name -> calls whose key was seen before

    # -- observers for ratios measured where the work happens ---------------

    def _observe_module_eq(self, args, kwargs):
        if args[0] is args[1]:
            self.module_eq_same += 1

    def _observe_rref(self, args, kwargs):
        M = args[0]
        n = len(M) * (len(M[0]) if M else 0)
        self.rref_entries += n
        if n > self.rref_max_entries:
            self.rref_max_entries = n

    def _repeat_observer(self, name, key_fn):
        seen = self._keys.setdefault(name, set())
        self.repeats[name] = 0

        def observe(args, kwargs):
            key = key_fn(*args, **kwargs)
            if key in seen:
                self.repeats[name] += 1
            else:
                seen.add(key)

        return observe

    def _install_observers(self):
        # The defining data each candidate cache would be keyed by, built from
        # plain attributes so that no wrapped __hash__ or __eq__ is called.
        def algebra_key(a):
            return (a.num_vars, a.degree_bound, a.var_names)

        def cech_key(nerve, module, transitions=None, max_degree=None):
            module_key = (algebra_key(module.algebra), module.labels, module.grades, module.name)
            return (nerve.vertices, nerve.simplices, module_key, transitions, max_degree)

        def hat_d_key(ext, k):
            return (ext, k)

        def zeta_key(ext, window=None):
            return (algebra_key(ext.algebra), ext.rank, ext.name, window)

        self.observers = {
            "modules.BasedModule.__eq__": self._observe_module_eq,
            "rational.rref": self._observe_rref,
            "cech_twist.cech_complex": self._repeat_observer("cech_twist.cech_complex", cech_key),
            "extension_dg.TrivialExtension.hat_d": self._repeat_observer(
                "extension_dg.TrivialExtension.hat_d", hat_d_key
            ),
            "hkr_local.zeta_checks": self._repeat_observer("hkr_local.zeta_checks", zeta_key),
        }

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name, layer, record):
        fid = self.fids[name] = len(self.names)
        self.names.append(name)
        self.counts.append(0)
        self.originals[id(fn)] = fn
        counts = self.counts
        layer_stack = self._layer_stack
        child_time = self._child_time
        layer_self = self.layer_self
        span_fid, span_parent, span_start, span_end = self.spans
        open_records = self._open_records
        observe = self.observers.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            if observe is not None:
                observe(args, kwargs)
            if layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            layer_stack.append(layer)
            child_time.append(0.0)
            if record:
                idx = len(span_fid)
                span_fid.append(fid)
                span_parent.append(open_records[-1])
                span_start.append(0.0)
                span_end.append(0.0)
                open_records.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                layer_stack.pop()
                covered = child_time.pop()
                span = t1 - t0
                child_time[-1] += span
                layer_self[layer] += span - covered
                if record:
                    open_records.pop()
                    span_start[idx] = t0
                    span_end[idx] = t1

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_class(self, mod_name, layer, cls):
        record = (mod_name, cls.__name__) not in ELEMENT_CLASSES
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                new = classmethod(self._wrap(value.__func__, name, layer, record))
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, name, layer, record))
            elif isinstance(value, property):
                if value.fget is None:
                    continue
                new = property(self._wrap(value.fget, name, layer, record), value.fset, value.fdel, value.__doc__)
            elif inspect.isfunction(value):
                new = self._wrap(value, name, layer, record)
            else:
                continue
            setattr(cls, attr, new)

    def install(self):
        """Wrap every layer module, then rebind by-name imports everywhere."""
        self._install_observers()
        replaced = {}  # id(original) -> wrapper
        modules = {name: importlib.import_module(f"hkrlab.{name}") for name in LAYERS}
        cli = importlib.import_module("hkrlab.cli_report")
        for layer, mod_name in enumerate(LAYERS):
            mod = modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_class(mod_name, layer, value)
                elif inspect.isfunction(value):
                    wrapper = self._wrap(value, f"{mod_name}.{attr}", layer, True)
                    replaced[id(value)] = wrapper
        check_layer = self.layer_names.index(CHECK_LAYER)
        for checks in cli.SUITES.values():
            for i, (check_id, claim, fn) in enumerate(checks):
                if id(fn) not in replaced:
                    replaced[id(fn)] = self._wrap(fn, f"check.{check_id}", check_layer, True)
                checks[i] = (check_id, claim, replaced[id(fn)])
        for mod in list(modules.values()) + [cli]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]

    def _is_original(self, obj):
        return id(obj) in self.originals and self.originals[id(obj)] is obj

    def unwrapped_references(self):
        """Names in hkrlab namespaces that still reach an original, unwrapped function."""
        leaks = []
        mods = [importlib.import_module(f"hkrlab.{name}") for name in LAYERS]
        mods.append(importlib.import_module("hkrlab.cli_report"))
        for mod in mods:
            for attr, value in vars(mod).items():
                items = [(attr, value)]
                if isinstance(value, dict):
                    items += [(f"{attr}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, list):
                    items += [(f"{attr}[{i}]", v) for i, v in enumerate(value)]
                for where, v in items:
                    if inspect.isclass(v) and v.__module__.startswith("hkrlab."):
                        for a, m in vars(v).items():
                            m = getattr(m, "__func__", getattr(m, "fget", m))
                            if self._is_original(m):
                                leaks.append(f"{mod.__name__}.{where}.{a}")
                    for obj in (v,) + (tuple(v) if isinstance(v, tuple) else ()):
                        if self._is_original(obj):
                            leaks.append(f"{mod.__name__}.{where}")
        return sorted(set(leaks))

    # -- results ---------------------------------------------------------------

    def count(self, name):
        return self.counts[self.fids[name]]

    def repeat_share(self, name):
        calls = self.count(name)
        return self.repeats.get(name, 0) / calls if calls else 0.0

    @property
    def span_count(self):
        return len(self.spans[0])

    def check_seconds(self):
        out = {}
        for fid, _parent, t0, t1 in zip(*self.spans):
            name = self.names[fid]
            if name.startswith("check."):
                out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def layer_metrics(self):
        """Per-layer metrics under the names BENCHMARK.json lists."""
        m = {f"{layer}.self_s": self.layer_self[i] for i, layer in enumerate(self.layer_names[:-1])}
        eq_calls = self.count("modules.BasedModule.__eq__")
        m.update({
            "modules.vec_new.calls": self.count("modules.Vec.__init__"),
            "modules.module_eq.calls": eq_calls,
            "modules.module_eq.identity_share": self.module_eq_same / eq_calls if eq_calls else 0.0,
            "modules.linmap_from_function.calls": self.count("modules.LinMap.from_function"),
            "modules.linmap_apply.calls": self.count("modules.LinMap.apply"),
            "modules.flatten_map.calls": self.count("modules.flatten_map"),
            "coeff.poly_mul.calls": self.count("coeff.Poly.__mul__"),
            "cech_twist.cech_complex.calls": self.count("cech_twist.cech_complex"),
            "cech_twist.cech_complex.repeat_share": self.repeat_share("cech_twist.cech_complex"),
            "chain_core.complexmap_apply.calls": self.count("chain_core.ComplexMap.apply"),
            "chain_core.homology.calls": self.count("chain_core.homology"),
            "rational.rref.calls": self.count("rational.rref"),
            "rational.rref.entries": self.rref_entries,
            "rational.rref.max_entries": self.rref_max_entries,
            "extension_dg.star.calls": self.count("extension_dg.TrivialExtension.star"),
            "extension_dg.hat_d.repeat_share": self.repeat_share("extension_dg.TrivialExtension.hat_d"),
            "hkr_local.zeta_checks.repeat_share": self.repeat_share("hkr_local.zeta_checks"),
            "hkr_local.tensor_power_module.calls": self.count("hkr_local.tensor_power_module"),
        })
        return m

    def write_spans(self, path):
        """Gzipped JSON lines: a header naming the functions, then one
        ``[name_index, parent_line, start_us, end_us]`` per span, where
        parent_line indexes the span lines (-1 for none) and times are
        microseconds from the first span's start."""
        fn_ids, parents, starts, ends = self.spans
        origin = starts[0] if starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names}) + "\n")
            for fid, parent, t0, t1 in zip(fn_ids, parents, starts, ends):
                fh.write(f"[{fid},{parent},{round((t0 - origin) * 1e6)},{round((t1 - origin) * 1e6)}]\n")
