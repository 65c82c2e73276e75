"""Span arithmetic, wrapper installation and result comparison.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import os

import pytest

import compare
import run
import spans
import workloads
from foxtorsion import abelian, cli, torsion


def _tracer_from(tree):
    """A Tracer holding the given (name, start, end, parent) spans."""
    t = spans.Tracer()
    for name, start, end, parent in tree:
        nid = t._id(name)
        t.name_id.append(nid)
        t.parent.append(parent)
        t.op_id.append(0)
        t.start.append(start)
        t.end.append(end)
        # nested when an ancestor has the same name
        p, nested = parent, 0
        while p >= 0:
            if t.name_id[p] == nid:
                nested = 1
            p = t.parent[p]
        t.nested.append(nested)
    return t


# op [0, 10] > cli.command [1, 9] > polytope.hull [2, 6] > abelian.snf [3, 5]
#                                 > abelian.snf [6.5, 7]
#              cli.json [9, 9.5]
TREE = [
    ("op", 0.0, 10.0, -1),
    ("cli.command", 1.0, 9.0, 0),
    ("polytope.hull", 2.0, 6.0, 1),
    ("abelian.snf", 3.0, 5.0, 2),
    ("abelian.snf", 6.5, 7.0, 1),
    ("cli.json", 9.0, 9.5, 0),
]


def test_self_time_subtracts_direct_children_only():
    parent = [p for _, _, _, p in TREE]
    start = [s for _, s, _, _ in TREE]
    end = [e for _, _, e, _ in TREE]
    own = spans.self_times(parent, start, end)
    assert own == pytest.approx([10 - 8 - 0.5, 8 - 4 - 0.5, 4 - 2, 2, 0.5, 0.5])
    assert sum(own) == pytest.approx(10.0)


def test_layer_metrics_on_a_synthetic_tree():
    m = spans.layer_metrics(_tracer_from(TREE))
    assert m["cli.report_s"] == pytest.approx(3.5)
    assert m["polytope.hull_s"] == pytest.approx(4.0)
    assert m["abelian.snf_s"] == pytest.approx(2.5)
    assert m["abelian.snf_calls"] == 2
    assert m["cli.json_s"] == pytest.approx(0.5)
    # hull [2, 6] already covers the first SNF call; the second adds 0.5
    assert m["share.polytope_snf"] == pytest.approx(4.5 / 10)
    assert m["equivalence.map_hit_ratio"] == 0.0


def test_nested_spans_of_one_name_count_once():
    tree = [("op", 0.0, 4.0, -1), ("abelian.snf", 0.0, 3.0, 0), ("abelian.snf", 1.0, 2.0, 1)]
    m = spans.layer_metrics(_tracer_from(tree))
    assert m["abelian.snf_s"] == pytest.approx(3.0)
    assert m["abelian.snf_calls"] == 2


def test_install_wraps_every_binding_and_uninstall_restores_them():
    originals = (abelian.mul_terms, torsion.fox_derivative, abelian.LaurentPoly.exact_div)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert abelian.mul_terms.__wrapped__ is originals[0]
        assert torsion.fox_derivative.__wrapped__ is originals[1]
        assert abelian.LaurentPoly.__dict__["exact_div"].__wrapped__ is originals[2]
        cli.cmd_family(0, "S")  # outside an operation: no spans
        assert len(tracer.start) == 0
        span = tracer.begin_op(0)
        report, _ = cli.cmd_family(1, "S")
        workloads._json(report)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert (abelian.mul_terms, torsion.fox_derivative, abelian.LaurentPoly.exact_div) == originals
    m = spans.layer_metrics(tracer)
    assert m["lyon.oracle_calls"] == 1
    assert m["groupring.fox_calls"] == 9
    assert m["torsion.matrix_dim_max"] == 3
    assert m["cli.json_bytes"] > 0
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    value, percentile, beyond = run.tail([1.0, 2.0, 3.0])
    assert (value, beyond) == (3.0, 0)


def _record(backend, throughput):
    return {
        "workload": "family",
        "trace": 0,
        "seconds": 15,
        "environment": {"backend": backend, "python": "3.11", "nproc": 2},
        "metrics": {"throughput_ops_s": throughput},
    }


def test_call_times_scale_by_the_references_around_them():
    nominal = run.REFERENCE_NOMINAL_S
    # a call between a nominal reference and one twice as slow ran at 2/3 speed
    scaled = run.at_nominal_speed([3.0, 1.0], [nominal, 2 * nominal, 2 * nominal])
    assert scaled == pytest.approx([2.0, 0.5])


def test_compare_refuses_different_backends():
    rows = compare.compare(_record("python", 2.0), _record("python", 3.0))
    assert rows == [("throughput_ops_s", 2.0, 3.0, 1.5)]
    with pytest.raises(compare.Incomparable):
        compare.compare(_record("python", 2.0), _record("compiled", 6.0))


def test_benchmark_json_names_the_metrics_the_runs_print():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="ascii") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    traced = dict(spans.layer_metrics(spans.Tracer()), **{"trace.overhead_s": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: spans.unit_of(name) for name in traced
    }
