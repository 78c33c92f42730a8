"""Outside-in span recorder for the traced benchmark run.

Nothing under src/ knows about it: `install()` replaces public entry points
of the monomod modules with wrappers.  Methods are wrapped on their classes;
functions are replaced in every loaded module namespace that holds them by
name (homology imports is_isomorphic from modules, cli imports run_scenario
from gallery, and so on).  The untraced run never imports this file.

Every wrapped call made while an op (or the traced run's set-up) is open
records one span: name, parent span, start and end, by wall clock.  Spans are kept in flat arrays and written out once,
when the run ends.  Self time (a span's duration minus the time its child
spans cover) and the counters are accumulated as the spans close.
"""

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Stats reported for every workload, in this order.  Names follow
# <module>.<entry>.<stat>; BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("linalg.mul.calls", "count"),
    ("linalg.mul.self_s", "s"),
    ("linalg.mul.density", "ratio"),
    ("linalg.apply.calls", "count"),
    ("linalg.apply.self_s", "s"),
    ("linalg.apply.density", "ratio"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.eliminator.builds", "count"),
    ("linalg.eliminator.build_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.span.adds", "count"),
    ("linalg.span.self_s", "s"),
    ("linalg.span.grew_frac", "ratio"),
    ("linalg.max_side", "count"),
    ("algebra.validate.self_s", "s"),
    ("algebra.generators.self_s", "s"),
    ("algebra.radical.self_s", "s"),
    ("modules.hom_space.calls", "count"),
    ("modules.hom_space.self_s", "s"),
    ("modules.hom_space.presentation_calls", "count"),
    ("modules.is_isomorphic.calls", "count"),
    ("modules.is_isomorphic.self_s", "s"),
    ("modules.is_isomorphic.cheap_refuted", "count"),
    ("modules.is_isomorphic.unknown", "count"),
    ("modules.action_of_vector.calls", "count"),
    ("modules.action_of_vector.self_s", "s"),
    ("modules.subquotient.self_s", "s"),
    ("modules.validate_module.calls", "count"),
    ("modules.validate_module.self_s", "s"),
    ("modules.tensor_over.calls", "count"),
    ("modules.tensor_over.self_s", "s"),
    ("homology.resolution.steps", "count"),
    ("homology.resolution.self_s", "s"),
    ("homology.resolution.proj_dim_sum", "count"),
    ("homology.resolution.max_proj_dim", "count"),
    ("homology.hom_complex.self_s", "s"),
    ("homology.is_semi_gp.calls", "count"),
    ("homology.is_semi_gp.self_s", "s"),
    ("homology.is_semi_gp.iso_pairs", "count"),
    ("homology.ext_dims.self_s", "s"),
    ("homology.tor_dims.self_s", "s"),
    ("duality.a_dual.calls", "count"),
    ("duality.a_dual.self_s", "s"),
    ("duality.canonical_map.self_s", "s"),
    ("duality.classify.self_s", "s"),
    ("triangular.t2_dual_bundle.self_s", "s"),
    ("triangular.classify_triple.self_s", "s"),
    ("triangular.flatten.self_s", "s"),
    ("quiver.build_tensor.self_s", "s"),
    ("quiver.monic_check.combinatorial.self_s", "s"),
    ("quiver.monic_check.homological.self_s", "s"),
    ("quiver.rep_to_module.self_s", "s"),
    ("quiver.mon_membership.self_s", "s"),
    ("gallery.run_scenario.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("io.load.self_s", "s"),
    ("sampling.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("bench.setup.self_s", "s"),
]
# Call counts of the entry points the list above times but does not count.
LAYER_METRICS += [
    (entry + ".calls", "count")
    for entry in dict.fromkeys(m.rsplit(".", 1)[0] for m, u in LAYER_METRICS if u == "s")
    if (entry + ".calls", "count") not in LAYER_METRICS
    and not entry.startswith("bench.") and entry not in ("linalg.eliminator", "linalg.span")
]

# Refutations is_isomorphic makes before it builds any Hom space.
_CHEAP_REASONS = {
    "dimension mismatch",
    "action rank mismatch",
    "radical-image dimension mismatch",
}


class Recorder:
    """Spans of the wrapped calls made inside open ops, plus counters."""

    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # [span index, child time]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._nnz_cache = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._ids[name] = nid
        return nid

    # -- spans ----------------------------------------------------------

    def open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, 0.0])
        return idx

    def close(self, idx):
        end = perf_counter()
        top_idx, child = self._stack.pop()
        if top_idx != idx:
            raise RuntimeError("span stack out of order")
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def begin_op(self, name="bench.op"):
        self.active = True
        return self.open(self.name_id(name))

    def end_op(self, idx):
        self.close(idx)
        self.active = False

    # -- counters ---------------------------------------------------------

    def nnz(self, m):
        """Nonzero count of an (immutable) Matrix, cached for repeat use."""
        got = self._nnz_cache.get(id(m))
        if got is not None and got[0] is m:
            return got[1]
        z = m.field.zero
        n = sum(len(r) - r.count(z) for r in m.rows)
        if len(self._nnz_cache) >= 64:
            self._nnz_cache.clear()
        self._nnz_cache[id(m)] = (m, n)
        return n

    def metrics(self):
        """Per-layer metrics over every op the run traced."""
        def self_of(name):
            return self.self_s[self.name_id(name)]

        def calls_of(name):
            return self.calls[self.name_id(name)]

        c = self.counts

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for metric, _unit in LAYER_METRICS:
            entry, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                val = self_of(entry)
            elif stat in ("calls", "adds", "builds"):
                val = calls_of(entry)
            elif stat == "build_s":
                val = self.total_s[self.name_id(entry)]
            elif metric == "linalg.mul.density":
                val = share("mul.nnz", "mul.entries")
            elif metric == "linalg.apply.density":
                val = share("apply.nnz", "apply.entries")
            elif metric == "linalg.span.grew_frac":
                val = c["span.grew"] / calls_of("linalg.span") if calls_of("linalg.span") else 0.0
            else:
                val = c[metric]
            out[metric] = val
        return out

    def write(self, path):
        """Spans as four native-order arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:u16", "parent:i32", "start:f64", "end:f64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# wrappers


def _wrap(rec, fn, name, pre=None, post=None):
    """A wrapper recording one span per call while an op is open.

    name is a span name or a callable (args, kwargs) -> span name.
    pre(args) returns a state passed to post(args, result, state).
    """
    fixed = None if callable(name) else rec.name_id(name)

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        nid = fixed if fixed is not None else rec.name_id(name(args, kwargs))
        state = pre(args) if pre is not None else None
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if post is not None:
            post(args, result, state)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _replace_everywhere(original, replacement):
    """Rebind a function in every loaded module that holds it by name."""
    for mod in list(sys.modules.values()):
        d = getattr(mod, "__dict__", None)
        if not isinstance(d, dict):
            continue
        for key, val in list(d.items()):
            if val is original:
                d[key] = replacement


def install(rec):
    """Wrap the public entry points of every monomod layer."""
    from monomod import algebra, cli, duality, gallery, homology, io, linalg
    from monomod import modules, quiver, sampling, triangular

    c = rec.counts
    semi_gp_id = rec.name_id("homology.is_semi_gp")

    def method(cls, attr, name, pre=None, post=None):
        setattr(cls, attr, _wrap(rec, getattr(cls, attr), name, pre, post))

    def function(mod, attr, name, pre=None, post=None):
        original = getattr(mod, attr)
        _replace_everywhere(original, _wrap(rec, original, name, pre, post))

    # linalg ---------------------------------------------------------------
    def mul_post(args, _result, _state):
        a, b = args
        c["mul.nnz"] += rec.nnz(a) + rec.nnz(b)
        c["mul.entries"] += a.nrows * a.ncols + b.nrows * b.ncols

    def apply_post(args, _result, _state):
        m, vec = args
        z = m.field.zero
        c["apply.nnz"] += rec.nnz(m) + len(vec) - list(vec).count(z)
        c["apply.entries"] += m.nrows * m.ncols + len(vec)

    def span_post(_args, grew, _state):
        if grew:
            c["span.grew"] += 1

    method(linalg.Matrix, "__mul__", "linalg.mul", post=mul_post)
    method(linalg.Matrix, "apply", "linalg.apply", post=apply_post)
    method(linalg.Eliminator, "solve", "linalg.solve")
    method(linalg.Eliminator, "__init__", "linalg.eliminator")
    for attr in ("rref", "pivot_columns", "rank", "kernel_matrix", "inverse"):
        method(linalg.Matrix, attr, "linalg.rref")
    method(linalg.SpanAccumulator, "add", "linalg.span", post=span_post)

    check_cap = linalg._check_cap

    def sized_check_cap(rows, cols):
        if rec.active:
            side = rows if rows > cols else cols
            if side > c["linalg.max_side"]:
                c["linalg.max_side"] = side
        return check_cap(rows, cols)

    linalg._check_cap = sized_check_cap

    # algebra ----------------------------------------------------------------
    function(algebra, "validate_algebra", "algebra.validate")
    method(algebra.Algebra, "generators", "algebra.generators")
    method(algebra.Algebra, "radical_basis", "algebra.radical")
    function(algebra, "radical_and_socle", "algebra.radical")

    # modules ----------------------------------------------------------------
    def iso_post(_args, verdict, _state):
        if verdict.status == "unknown":
            c["modules.is_isomorphic.unknown"] += 1
        elif verdict.status == "fails" and isinstance(verdict.witness, dict) \
                and verdict.witness.get("reason") in _CHEAP_REASONS:
            c["modules.is_isomorphic.cheap_refuted"] += 1
        if any(rec.span_name[i] == semi_gp_id for i, _child in rec._stack):
            c["homology.is_semi_gp.iso_pairs"] += 1

    function(modules, "hom_space", "modules.hom_space")
    presentation = homology.hom_space_via_presentation

    def counted_presentation(*args, **kwargs):
        # counted, not a span: its time stays inside hom_space's self time
        if rec.active:
            c["modules.hom_space.presentation_calls"] += 1
        return presentation(*args, **kwargs)

    _replace_everywhere(presentation, counted_presentation)
    function(modules, "is_isomorphic", "modules.is_isomorphic", post=iso_post)
    method(modules.Module, "action_of_vector", "modules.action_of_vector")
    for attr in ("submodule_generated", "module_on_invariant_columns", "quotient_module"):
        function(modules, attr, "modules.subquotient")
    function(modules, "validate_module", "modules.validate_module")
    function(modules, "tensor_over", "modules.tensor_over")

    # homology ---------------------------------------------------------------
    def extend_pre(args):
        return len(args[0].steps)

    def extend_post(args, _result, before):
        steps = args[0].steps
        c["homology.resolution.steps"] += len(steps) - before
        for step in steps[before:]:
            d = step.proj.dim
            c["homology.resolution.proj_dim_sum"] += d
            if d > c["homology.resolution.max_proj_dim"]:
                c["homology.resolution.max_proj_dim"] = d

    function(homology, "is_semi_gp", "homology.is_semi_gp")
    method(homology.Resolution, "extend_to", "homology.resolution", extend_pre, extend_post)
    method(homology.HomComplex, "ensure", "homology.hom_complex")
    function(homology, "ext_dims", "homology.ext_dims")
    function(homology, "tor_dims", "homology.tor_dims")

    # duality ------------------------------------------------------------------
    function(duality, "a_dual", "duality.a_dual")
    function(duality, "canonical_map", "duality.canonical_map")
    function(duality, "classify", "duality.classify")

    # triangular -----------------------------------------------------------------
    function(triangular, "t2_dual_bundle", "triangular.t2_dual_bundle")
    function(triangular, "classify_triple", "triangular.classify_triple")
    method(triangular.TripleModule, "flatten", "triangular.flatten")
    method(triangular.RightTriple, "flatten", "triangular.flatten")

    # quiver -----------------------------------------------------------------------
    def monic_name(args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "combinatorial")
        return "quiver.monic_check." + mode

    function(quiver, "build_tensor", "quiver.build_tensor")
    function(quiver, "monic_check", monic_name)
    function(quiver, "rep_to_module", "quiver.rep_to_module")
    function(quiver, "mon_membership", "quiver.mon_membership")

    # front ends -------------------------------------------------------------------
    function(gallery, "run_scenario", "gallery.run_scenario")
    function(cli, "main", "cli.main")
    for attr in ("load_algebra", "load_module", "load_quiver", "load_bimodule",
                 "load_triple", "load_rep"):
        function(io, attr, "io.load")
    for attr in ("random_module", "random_map", "random_submodule", "random_t2_triple"):
        function(sampling, attr, "sampling")
