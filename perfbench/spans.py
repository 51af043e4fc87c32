"""In-memory span tracing installed from outside the package.

A ``Tracer`` keeps spans as ``[name, start, end, parent, op]`` lists and
named counters.  ``install`` wraps every public function and method of the
``gauss_cis`` layers in every module namespace that binds it (plus the
``SCENARIOS`` registry and ``numpy.linalg.svd``, the solver stage of
``gauss_space``); ``Installation.remove`` puts every original back.
Nothing here is imported by the package itself.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("lattice", "gauss_space", "fock", "logdomain", "experiments")
LAYER_MODULES = {
    "lattice": ("gauss_cis.lattice",),
    "gauss_space": ("gauss_cis.gauss_space",),
    "fock": ("gauss_cis.fock",),
    "logdomain": ("gauss_cis.logdomain",),
    "experiments": (
        "gauss_cis.experiments.config",
        "gauss_cis.experiments.cli",
        "gauss_cis.experiments.runner",
        "gauss_cis.experiments.scenarios",
        "gauss_cis.experiments.sign_retrieval",
    ),
}
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.op = 0

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def record(self, name, start, end):
        """Add a closed span timed elsewhere, under the span open now."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op])

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def operation(self, name="bench.op"):
        """One benchmark operation: a new op id and a span around it."""
        self.op += 1
        with self.span(name) as idx:
            yield idx

    def adopt(self, spans, parent):
        """Append spans recorded by a child process under span ``parent``.

        ``perf_counter`` reads CLOCK_MONOTONIC on Linux, so child and parent
        timestamps share one time base.
        """
        base = len(self.spans)
        op = self.spans[parent][OP]
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


class NullTracer:
    """Stand-in used by untraced passes: operations cost one context switch."""

    @contextmanager
    def span(self, name="bench.op"):
        yield -1

    operation = span


# -- counters read from arguments and results -------------------------------

def _svd_flops(args, kwargs, result):
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0  # Golub-Kahan bidiagonalization
    return {"svd_flops": flops * (4.0 if np.iscomplexobj(a) else 1.0)}


def _collocation(args, kwargs, result):
    return {"entries": result.entries.size, "entry_bytes": result.entries.nbytes}


def _one_minus_exp(args, kwargs, result):
    return {"one_minus_exp_elems": np.size(args[0])}


def _enumeration(args, kwargs, result):
    return {"nodes": len(getattr(args[0], "nodes", ()))}


def _sign(args, kwargs, result):
    return {"sign_survivors": result.n_survivors, "sign_patterns": 2**result.window}


def _run_scenario(args, kwargs, result):
    paths = list(result.csv_paths) + [result.out_dir / "report.json"]
    return {"bytes_written": sum(p.stat().st_size for p in paths)}


HOOKS = {
    "gauss_space.svd": _svd_flops,
    "gauss_space.collocation_matrix": _collocation,
    "logdomain.log_abs_one_minus_exp": _one_minus_exp,
    "lattice.canonical_enumeration": _enumeration,
    "experiments.sign_retrieval.sign_retrieval_check": _sign,
    "experiments.runner.run_scenario": _run_scenario,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            tracer.counters.update(hook(args, kwargs, result))
        return result

    traced.__perfbench_original__ = fn
    return traced


def _span_name(module_name, qualname):
    parts = module_name.split(".")[1:]
    if parts[0] != "experiments":
        parts = parts[:1]
    return ".".join(parts + [qualname])


def _public_callables(module):
    """(qualname, owner, attr, original) for the module's public functions and methods.

    Public means defined here under a name without a leading underscore, or
    a function the module re-exports through ``__all__`` (``logsumexp``).
    """
    exported = set(getattr(module, "__all__", ()))
    out = []
    for attr, obj in vars(module).items():
        here = getattr(obj, "__module__", None) == module.__name__
        if attr.startswith("_") or not (here or (attr in exported and inspect.isfunction(obj))):
            continue
        if inspect.isfunction(obj):
            out.append((attr, module, attr, obj))
        elif inspect.isclass(obj):
            for mattr, member in vars(obj).items():
                plain = isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member)
                if plain and (not mattr.startswith("_") or mattr == "__init__"):
                    out.append((f"{attr}.{mattr}", obj, mattr, member))
    return out


class Installation:
    """The wrappers of one ``install`` call; ``remove`` restores originals."""

    def __init__(self):
        self.patches = []  # (owner, attr, original); owner is a dict for registries

    def set(self, owner, attr, value):
        if isinstance(owner, dict):
            self.patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches.clear()


def install(tracer) -> Installation:
    """Wrap the public functions of every layer in every namespace binding them."""
    inst = Installation()
    wrapped = {}  # id(original function) -> wrapper
    for layer in LAYERS:
        for module_name in LAYER_MODULES[layer]:
            module = importlib.import_module(module_name)
            for qualname, owner, attr, member in _public_callables(module):
                name = _span_name(module_name, qualname)
                if isinstance(member, (classmethod, staticmethod)):
                    inst.set(owner, attr, type(member)(_wrap(tracer, name, member.__func__)))
                elif inspect.isclass(owner):
                    inst.set(owner, attr, _wrap(tracer, name, member))
                elif id(member) not in wrapped:
                    wrapped[id(member)] = _wrap(tracer, name, member)
    # rebind functions wherever the package imported them by name
    for module_name, module in list(sys.modules.items()):
        if module_name == "gauss_cis" or module_name.startswith("gauss_cis."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    inst.set(module, attr, wrapped[id(obj)])
    registry = sys.modules["gauss_cis.experiments.scenarios"].SCENARIOS
    for key, fn in list(registry.items()):
        inst.set(registry, key, wrapped[id(fn)])
    inst.set(np.linalg, "svd", _wrap(tracer, "gauss_space.svd", np.linalg.svd))
    return inst


def leftover_wrappers():
    """Names still bound to a tracing wrapper; empty once an installation is removed."""

    def wrapped(obj):
        fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
        return hasattr(fn, "__perfbench_original__")

    found = [f"numpy.linalg.{a}" for a, o in vars(np.linalg).items() if wrapped(o)]
    for module_name, module in list(sys.modules.items()):
        if module_name != "gauss_cis" and not module_name.startswith("gauss_cis."):
            continue
        for attr, obj in vars(module).items():
            if wrapped(obj):
                found.append(f"{module_name}.{attr}")
            elif inspect.isclass(obj):
                found.extend(f"{module_name}.{attr}.{m}" for m, o in vars(obj).items() if wrapped(o))
    registry = sys.modules["gauss_cis.experiments.scenarios"].SCENARIOS
    found.extend(f"SCENARIOS[{k!r}]" for k, fn in registry.items() if wrapped(fn))
    return found


def self_times(spans, lo=0):
    """Self time of spans[lo:]: duration minus the time direct children cover."""
    own = [s[END] - s[START] for s in spans[lo:]]
    for s in spans[lo:]:
        if s[PARENT] >= lo:
            own[s[PARENT] - lo] -= s[END] - s[START]
    return own


def layer_metrics(spans, counters, lo=0):
    """Per-layer metrics of the spans recorded from index ``lo`` on."""
    own = self_times(spans, lo)
    calls, self_s = Counter(), Counter()
    for s, t in zip(spans[lo:], own):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += t

    def total(prefixes, table):
        return sum(v for k, v in table.items() if k.startswith(prefixes))

    def between(child, parent):
        return sum(1 for s in spans[lo:] if s[NAME] == child and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == parent)

    scen = "experiments.scenarios.scenario_"
    inclusive = Counter()
    for s in spans[lo:]:
        if s[NAME].startswith(scen) and s[PARENT] >= 0:
            inclusive[s[PARENT]] += s[END] - s[START]
    write_s = sum(
        s[END] - s[START] - inclusive[lo + i]
        for i, s in enumerate(spans[lo:])
        if s[NAME] == "experiments.runner.run_scenario"
    )
    startup = sorted(t for s, t in zip(spans[lo:], own) if s[NAME] == "experiments.cli_process")
    candidates = between("fock.log_distance_to_zeros", scen + "g0_estimate")
    product = ("fock.GeneratingProduct.", "fock.generating_product_")
    m = {
        "lattice.verdict_calls": calls["lattice.avdonin_verdict"],
        "lattice.verdict_s": self_s["lattice.avdonin_verdict"],
        "lattice.enumeration_s": self_s["lattice.canonical_enumeration"],
        "lattice.nodes": counters["nodes"],
        "lattice.densities_s": self_s["lattice.beurling_densities"],
        "gauss_space.collocation_calls": calls["gauss_space.collocation_matrix"],
        "gauss_space.collocation_s": self_s["gauss_space.collocation_matrix"],
        "gauss_space.entries": counters["entries"],
        "gauss_space.entry_bytes": counters["entry_bytes"],
        "gauss_space.svd_calls": calls["gauss_space.svd"],
        "gauss_space.svd_s": self_s["gauss_space.svd"],
        "gauss_space.svd_flops": counters["svd_flops"],
        "gauss_space.frame_bounds_s": self_s["gauss_space.frame_bounds"],
        "fock.g0_ratio_calls": calls["fock.g0_estimate_ratio"],
        "fock.g0_ratio_s": self_s["fock.g0_estimate_ratio"],
        "fock.distance_calls": calls["fock.log_distance_to_zeros"],
        "fock.distance_s": self_s["fock.log_distance_to_zeros"],
        "fock.product_builds": calls["fock.GeneratingProduct.__init__"],
        "fock.product_evals": calls["fock.GeneratingProduct.evaluate"],
        "fock.product_s": total(product, self_s),
        "fock.kernel_calls": calls["fock.kernel_norm"],
        "fock.kernel_s": self_s["fock.kernel_norm"],
        "fock.consistency_calls": calls["fock.consistency_identity"],
        "fock.consistency_s": self_s["fock.consistency_identity"],
        "fock.grid_kept_ratio": (
            between("fock.g0_estimate_ratio", scen + "g0_estimate") / candidates if candidates else 0.0
        ),
        "logdomain.diff_exp_calls": calls["logdomain.log_abs_diff_exp"],
        "logdomain.diff_exp_s": self_s["logdomain.log_abs_diff_exp"],
        "logdomain.one_minus_exp_calls": calls["logdomain.log_abs_one_minus_exp"],
        "logdomain.one_minus_exp_elems": (
            counters["one_minus_exp_elems"] / calls["logdomain.log_abs_one_minus_exp"]
            if calls["logdomain.log_abs_one_minus_exp"] else 0.0
        ),
        "logdomain.one_minus_exp_s": self_s["logdomain.log_abs_one_minus_exp"],
        "logdomain.logsumexp_calls": calls["logdomain.logsumexp"],
        "logdomain.logsumexp_s": self_s["logdomain.logsumexp"],
        "experiments.startup_s": startup[len(startup) // 2] if startup else 0.0,
        "experiments.config_s": self_s["experiments.config.load_config"],
        "experiments.scenario_s": total((scen,), self_s),
        "experiments.write_s": write_s,
        "experiments.bytes_written": counters["bytes_written"],
        "experiments.sign_calls": calls["experiments.sign_retrieval.sign_retrieval_check"],
        "experiments.sign_s": self_s["experiments.sign_retrieval.sign_retrieval_check"],
        "experiments.sign_survivor_ratio": (
            counters["sign_survivors"] / counters["sign_patterns"] if counters["sign_patterns"] else 0.0
        ),
    }
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = total((layer + ".",), self_s)
    return m


def load_child(path):
    """Spans and counters written by ``save_child``, its own ``bench.child`` span last."""
    with open(path, "r", encoding="utf-8") as fh:
        child = json.loads(fh.readline())
        child["spans"].append(json.loads(fh.readline()))
    return child


def save_child(path, tracer, start):
    """Write a CLI child's spans and counters, then a ``bench.child`` span from ``start``.

    That last span, on a line of its own, ends once the rest is written, so
    it covers removing the wrappers and writing the spans.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"spans": tracer.spans, "counters": dict(tracer.counters)}) + "\n")
        fh.flush()
        fh.write(json.dumps(["bench.child", start, time.perf_counter(), -1, 0]) + "\n")
