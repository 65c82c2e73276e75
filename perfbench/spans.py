"""Spans around calls into the program's public functions, for the traced run.

The benchmark records spans from its own files: it replaces each traced
function at every place a module binds it (``foxtorsion.abelian.mul_terms``,
``foxtorsion.torsion.fox_derivative``, the ``LaurentPoly.exact_div`` class
attribute, ...) with a wrapper, and puts the originals back afterwards.  A
span is (name, start, end, parent, operation id); spans live in flat arrays
while the run lasts and are written out at the end.  Spans are recorded only
while an operation is open, so oracle checks between operations leave none.
"""

import gzip
import sys
from array import array
from time import perf_counter

BATTERY_REASONS = frozenset(
    (
        "coefficient_multiset",
        "support_size",
        "hull_dimension",
        "edge_length_multiset",
        "normalized_area",
        "hull_lattice_points",
    )
)


def _fox_matrix_counts(tracer, args, matrix):
    tracer.maximum("torsion.matrix_dim_max", len(matrix))
    tracer.maximum(
        "torsion.entry_terms_max",
        max((len(e.terms) for row in matrix for e in row), default=0),
    )


def _fox_counts(tracer, args, result):
    tracer.add("groupring.fox_letters", len(args[0].letters))
    tracer.add("groupring.fox_terms", len(result.terms))


def _compare_counts(tracer, args, verdict):
    if verdict.kind == "NotEquivalent" and verdict.reason in BATTERY_REASONS:
        tracer.add("equivalence.battery_rejects", 1)
    if verdict.kind == "Equivalent":
        tracer.add("equivalence.equivalent", 1)


def _map_counts(tracer, args, result):
    element = args[1]
    words = element.terms if hasattr(element, "terms") else (element,)
    tracer.add("abelian.map_letters", sum(len(w.letters) for w in words))


def _snf_counts(tracer, args, result):
    matrix = args[0]
    tracer.add("abelian.snf_cells", len(matrix) * (len(matrix[0]) if matrix else 0))


# (module, attribute, span name, counter).  The attribute names the function
# where it is defined; every other binding of the same object is found by
# identity.  Call counts come from the spans themselves.
TARGETS = (
    ("foxtorsion.cli", "cmd_torsion", "cli.command", None),
    ("foxtorsion.cli", "cmd_family", "cli.command", None),
    ("foxtorsion.cli", "load_torsion_file", "cli.file_parse", None),
    ("workloads", "_json", "cli.json", lambda t, a, r: t.add("cli.json_bytes", len(r))),
    ("foxtorsion.words", "parse_word", "words.parse",
     lambda t, a, r: t.add("words.letters_parsed", len(r.letters))),
    ("foxtorsion.groupring", "fox_derivative", "groupring.fox", _fox_counts),
    ("foxtorsion.abelian", "AbelianizationMap.__call__", "abelian.map", _map_counts),
    ("foxtorsion.abelian", "abelianize_presentation", "abelian.abelianize", None),
    ("foxtorsion.abelian", "smith_normal_form", "abelian.snf", _snf_counts),
    ("foxtorsion.abelian", "LaurentPoly.exact_div", "abelian.exact_div",
     lambda t, a, r: t.add("abelian.exact_div_quot_terms", len(r.terms))),
    ("foxtorsion._kernels", "mul_terms", "kernels.mul",
     lambda t, a, r: t.add("kernels.mul_term_pairs", len(a[0]) * len(a[1]))),
    ("foxtorsion._kernels", "iadd_scaled", "kernels.iadd",
     lambda t, a, r: t.add("kernels.iadd_terms", len(a[1]))),
    ("foxtorsion._kernels", "add_terms", "kernels.add", None),
    ("foxtorsion.torsion", "fox_matrix", "torsion.fox_matrix", _fox_matrix_counts),
    ("foxtorsion.torsion", "det_cofactor", "torsion.det_cofactor", None),
    ("foxtorsion.torsion", "det_bareiss", "torsion.det_bareiss", None),
    ("foxtorsion.torsion", "torsion_normal_form", "torsion.normal_form", None),
    ("foxtorsion.polytope", "newton_polytope", "polytope.hull",
     lambda t, a, r: t.add("polytope.hull_points", len(a[0].points))),
    ("foxtorsion.polytope", "affine_dimension", "polytope.affine_dim", None),
    ("foxtorsion.polytope", "iter_affine_maps", "equivalence.maps",
     lambda t, a, r: t.add("equivalence.maps_enumerated", len(r))),
    ("foxtorsion.equivalence", "compare_torsion", "equivalence.compare", _compare_counts),
    ("foxtorsion.lyon", "lyon_input", "lyon.input", None),
    ("foxtorsion.lyon", "expected_torsion", "lyon.oracle", None),
)

OP_SPAN = "op"


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._open_by_name = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when a span of the same name is open above
        self.counts = {}
        self._stack = [-1]
        self.op = -1
        self._patches = []
        self._id(OP_SPAN)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_by_name.append(0)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.nested.append(1 if self._open_by_name[nid] else 0)
        self._open_by_name[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open_by_name[self.name_id[idx]] -= 1

    def begin_op(self, op_index):
        self.op = op_index
        return self._open(self._ids[OP_SPAN])

    def end_op(self, idx):
        self._close(idx)
        self.op = -1

    def wrap(self, name, fn, count=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self, targets=TARGETS):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "foxtorsion" or n.startswith("foxtorsion.") or n == "workloads")
        ]
        for module_name, attr, span_name, count in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(span_name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped tab-separated lines: index, op, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\top\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op_id[i]}\t{names[self.name_id[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (the program is single
    threaded), so the time they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def group_time(tracer, names):
    """Wall time inside spans named in ``names``, not counting nested ones twice."""
    ids = {tracer._ids[n] for n in names if n in tracer._ids}
    total = 0.0
    for i in range(len(tracer.start)):
        if tracer.name_id[i] not in ids:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.name_id[p] not in ids:
            p = tracer.parent[p]
        if p < 0:
            total += tracer.end[i] - tracer.start[i]
    return total


# (metric, span name) pairs whose value is the time in outermost spans of that name
TIME_METRICS = (
    ("polytope.hull_s", "polytope.hull"),
    ("polytope.affine_dim_s", "polytope.affine_dim"),
    ("abelian.snf_s", "abelian.snf"),
    ("abelian.exact_div_s", "abelian.exact_div"),
    ("kernels.mul_s", "kernels.mul"),
    ("kernels.iadd_s", "kernels.iadd"),
    ("kernels.add_s", "kernels.add"),
    ("torsion.fox_matrix_s", "torsion.fox_matrix"),
    ("torsion.det_cofactor_s", "torsion.det_cofactor"),
    ("torsion.det_bareiss_s", "torsion.det_bareiss"),
    ("torsion.normal_form_s", "torsion.normal_form"),
    ("words.parse_s", "words.parse"),
    ("groupring.fox_s", "groupring.fox"),
    ("abelian.map_s", "abelian.map"),
    ("abelian.abelianize_s", "abelian.abelianize"),
    ("equivalence.compare_s", "equivalence.compare"),
    ("lyon.input_s", "lyon.input"),
    ("lyon.oracle_s", "lyon.oracle"),
    ("cli.file_parse_s", "cli.file_parse"),
    ("cli.json_s", "cli.json"),
)

CALL_METRICS = (
    ("polytope.hull_calls", "polytope.hull"),
    ("abelian.snf_calls", "abelian.snf"),
    ("abelian.exact_div_calls", "abelian.exact_div"),
    ("kernels.mul_calls", "kernels.mul"),
    ("kernels.iadd_calls", "kernels.iadd"),
    ("kernels.add_calls", "kernels.add"),
    ("words.parse_calls", "words.parse"),
    ("groupring.fox_calls", "groupring.fox"),
    ("abelian.map_calls", "abelian.map"),
    ("equivalence.compare_calls", "equivalence.compare"),
    ("lyon.oracle_calls", "lyon.oracle"),
)

COUNTER_METRICS = (
    "polytope.hull_points",
    "abelian.snf_cells",
    "abelian.exact_div_quot_terms",
    "kernels.mul_term_pairs",
    "kernels.iadd_terms",
    "torsion.matrix_dim_max",
    "torsion.entry_terms_max",
    "words.letters_parsed",
    "groupring.fox_letters",
    "groupring.fox_terms",
    "abelian.map_letters",
    "equivalence.battery_rejects",
    "equivalence.maps_enumerated",
    "cli.json_bytes",
)

# Layer groups whose share of operation time the prediction table states.
SHARES = (
    ("share.polytope_snf", ("polytope.hull", "polytope.affine_dim", "abelian.snf")),
    ("share.det_bareiss", ("torsion.det_bareiss",)),
    ("share.words_maps", ("words.parse", "abelian.map")),
)


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share.") or metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(tracer):
    """Per-layer totals over every traced operation, keyed by metric name."""
    n_names = len(tracer.names)
    outer = [0.0] * n_names
    calls = [0] * n_names
    own = self_times(tracer.parent, tracer.start, tracer.end)
    own_by_name = [0.0] * n_names
    for i in range(len(tracer.start)):
        nid = tracer.name_id[i]
        calls[nid] += 1
        own_by_name[nid] += own[i]
        if not tracer.nested[i]:
            outer[nid] += tracer.end[i] - tracer.start[i]

    def by_name(values, name):
        nid = tracer._ids.get(name)
        return values[nid] if nid is not None else 0

    metrics = {}
    for metric, name in TIME_METRICS:
        metrics[metric] = float(by_name(outer, name))
    metrics["cli.report_s"] = float(by_name(own_by_name, "cli.command"))
    for metric, name in CALL_METRICS:
        metrics[metric] = by_name(calls, name)
    for metric in COUNTER_METRICS:
        metrics[metric] = tracer.counts.get(metric, 0)
    maps = metrics["equivalence.maps_enumerated"]
    equivalent = tracer.counts.get("equivalence.equivalent", 0)
    metrics["equivalence.map_hit_ratio"] = equivalent / maps if maps else 0.0
    op_time = by_name(outer, OP_SPAN)
    for metric, names in SHARES:
        metrics[metric] = group_time(tracer, names) / op_time if op_time else 0.0
    return metrics
