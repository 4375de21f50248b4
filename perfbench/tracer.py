"""Outside-in span tracer for the hermdens package.

The tracer wraps the public functions of each layer from outside the package:
it replaces the function object in every ``hermdens`` module namespace that
holds it.  ``verify``, ``beta`` and ``cdens`` import with ``from .x import f``,
so patching only the defining module would miss their calls.  Spans are kept
in memory as four parallel arrays (name id, start, end, parent span) and are
written out once, at the end of the traced work.

A layer's self time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

MODULES = ("symb", "reps", "locint", "whit", "beta", "cdens", "tree", "verify", "cli")

# group name -> functions "module.name" whose calls make its spans
LAYERS = {
    "symb.rational": ["symb.SignedRational.__init__"],
    "symb.solve": ["symb.sr_solve_linear"],
    "reps.enumerate": ["reps.enumerate_reps"],
    "reps.classify": ["reps.classify"],
    "reps.dual": ["reps.dual_wedge", "reps.dual_vee"],
    "reps.shape": ["reps.is_in_Rh"],
    # called from whit only on a slot-cache miss
    "locint.table": ["locint.norm_integral", "locint.trace_pair_integral",
                     "locint.trace_integral_J1"],
    "locint.oracle": ["locint.charsum_oracle"],
    "whit.gram": ["whit.gram_g", "whit.gram_fingerprint"],
    "whit.profile": ["whit.profile_f", "whit.f_plain", "whit.profile_statement",
                     "whit.profile_f_prime", "whit.dual_slope", "whit.slope_of"],
    "whit.stabilizer": ["whit.alpha_iwahori_n1"],
    "whit.stabilizer_brute": ["whit.alpha_iwahori_brute"],
    "whit.density": ["whit.w_density_n1", "whit.w_density_truncated"],
    "beta.system": ["beta.build_system"],
    "beta.solve": ["beta.solve_constants"],
    # the independent routes to the constants: closed top form and Vandermonde
    "beta.route": ["beta.beta_closed_last", "beta.vandermonde_factor_check",
                   "beta.vandermonde_inverse_route"],
    "beta.identity": ["beta.verify_thm314"],
    # partition-sum coefficients and their evaluation
    "cdens.partition": ["cdens.hironaka_coeffs", "cdens.alpha_value", "cdens.alpha_prime"],
    "cdens.closed": ["cdens.alpha_diag_unimodular", "cdens.prop_a5_value",
                     "cdens.san_alpha2", "cdens.san_alpha2_prime"],
    "cdens.brute": ["cdens.alpha_brute", "cdens.jcount_oracle", "cdens.factorization_check"],
    "cdens.jfun": ["cdens.jfun_n1", "cdens.thm42_display"],
    "cdens.appendix": ["cdens.appendix_compat"],
    "tree.intersect": ["tree.intersect_zy", "tree.vertical_pairing", "tree.fk_buckets",
                       "tree.enumerate_ball_intersection"],
    "tree.census": ["tree.bfs_census"],
    "cli.render": ["cli.to_doc"],
}

# generator functions: their span covers producing every item (each caller in
# the package consumes all of them), so the wrapper returns an iterator over a list
GENERATORS = {"reps.enumerate_reps", "tree.enumerate_ball_intersection"}

# counters taken at a span boundary: group -> (counter name, result predicate)
NONZERO = {"whit.gram": ("whit.gram.nonzero",
                         lambda r: r != (0, 0) if isinstance(r, tuple) else not r.is_zero())}


class Tracer:
    """In-memory span store; one per traced process or traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def wrap(self, span: str, fn, materialize: bool = False, predicate=None, counter=None):
        nid = self._name_id(span)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        counters = self.counters
        if counter is not None:
            counters.setdefault(counter, 0)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                ends[i] = clock()
                stack.pop()
            if predicate is not None and predicate(out):
                counters[counter] += 1
            return iter(out) if materialize else out

        return traced

    def _patch(self, target, attr: str, value) -> None:
        old = getattr(target, attr)
        self._undo.append(lambda: setattr(target, attr, old))
        setattr(target, attr, value)

    def install(self) -> None:
        """Import every layer module and wrap each group's functions everywhere they are bound."""
        mods = {m: importlib.import_module(f"hermdens.{m}") for m in MODULES}
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "hermdens" or name.startswith("hermdens."))]
        for group, funcs in LAYERS.items():
            counter, predicate = NONZERO.get(group, (None, None))
            for qual in funcs:
                mod_name, _, attr = qual.partition(".")
                if "." in attr:
                    cls_name, _, meth = attr.partition(".")
                    cls = getattr(mods[mod_name], cls_name)
                    self._patch(cls, meth, self.wrap(group, getattr(cls, meth)))
                    continue
                orig = getattr(mods[mod_name], attr)
                wrapped = self.wrap(group, orig, materialize=qual in GENERATORS,
                                    predicate=predicate, counter=counter)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, key, wrapped)
        suites = mods["verify"].SUITES
        old_suites = dict(suites)
        self._undo.append(lambda: suites.update(old_suites))
        for suite, fn in old_suites.items():
            suites[suite] = self.wrap(f"verify.{suite}", fn)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "counters": self.counters, "spans": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)


def load(path) -> Tracer:
    tr = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        for arr in (tr.name, tr.start, tr.end, tr.parent):
            arr.fromfile(fh, n)
    tr.names = header["names"]
    tr.counters = header["counters"]
    return tr


def aggregate(tracers) -> tuple[dict[str, list], dict[str, int]]:
    """Per span name [calls, total seconds, self seconds], and summed counters."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for tr in tracers:
        dur = [e - s for s, e in zip(tr.start, tr.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(tr.parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(tr.name):
            row = stats.setdefault(tr.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        for k, v in tr.counters.items():
            counters[k] = counters.get(k, 0) + v
    return stats, counters
