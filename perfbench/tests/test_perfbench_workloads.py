"""The benchmark's input generators and oracle checks.

Run with:  python3 -m pytest perfbench/tests
"""

import pytest

import workloads
from foxtorsion import LaurentPoly, TorsionClass, compare_torsion, lyon
from workloads import WORKLOADS, Compare, LongWords, Tietze, rng_for


def _inputs(op):
    """What the program receives, in a comparable form (file text for paths)."""
    if isinstance(op.inputs[0], str):
        with open(op.inputs[0], encoding="ascii") as fh:
            return fh.read()
    if isinstance(op.inputs[0], TorsionClass):
        return tuple(sorted(t.representative.terms.items()) for t in op.inputs)
    return op.inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    workload = WORKLOADS[name]

    def draw(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        ops = workloads.make_rounds(workload, seed, 2, str(d))[1]
        return [(_inputs(op), op.props) for op in ops]

    first = draw(7, "a")
    assert first == draw(7, "b")
    assert first != draw(8, "c")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_design_size_does_not_depend_on_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    sizes = {len(workload.design(seed, str(tmp_path))) for seed in (1, 2, 3)}
    assert len(sizes) == 1
    # odd, so that the median lands on the middle sample of one design point
    assert sizes.pop() % 2 == 1


def test_rounds_serve_the_same_operations_in_new_orders(tmp_path):
    rounds = workloads.make_rounds(WORKLOADS["tietze"], 5, 3, str(tmp_path))
    assert len({tuple(sorted(id(op) for op in ops)) for ops in rounds}) == 1
    assert len({tuple(id(op) for op in ops) for ops in rounds}) == 3


def test_rounds_fill_the_requested_time():
    family = WORKLOADS["family"]
    assert workloads.rounds_for(family, family.nominal_round_s * 3) == 3
    assert workloads.rounds_for(family, family.nominal_round_s * 5) == 3
    assert workloads.rounds_for(family, family.nominal_round_s * 7) == 7
    assert workloads.rounds_for(family, family.nominal_round_s * 9, calls=3) == 3
    assert workloads.rounds_for(family, 0.1) == 1


@pytest.mark.parametrize("rounds", [r for r in workloads.ROUND_COUNTS if r > 1])
def test_median_and_tail_land_on_middle_samples(rounds):
    """With an odd design sorted by cost, the median and the tail are each the
    middle sample of one design point's cluster of ``rounds`` samples."""
    import run

    design = 13
    latencies = [float(i) + j / 100 for i in range(design) for j in range(rounds)]
    middle = (rounds - 1) / 100 / 2
    value, _, beyond = run.tail(latencies)
    assert beyond == run.TAIL_BEYOND
    assert value - int(value) == pytest.approx(middle)
    median = sorted(latencies)[len(latencies) // 2]
    assert median - int(median) == pytest.approx(middle)


@pytest.mark.parametrize("surface", lyon.SURFACES)
@pytest.mark.parametrize("n,k", [(0, 2), (1, 3), (2, 2), (0, 4)])
def test_tietze_enlargement_keeps_the_torsion(surface, n, k, tmp_path):
    case = lyon.LyonCase(n, surface)
    for seed in range(3):
        text, props = Tietze.enlarge(rng_for("test", seed, n), case, k)
        assert props["matrix_dim"] == 3 + k
        path = tmp_path / f"t{seed}.txt"
        path.write_text(text, encoding="ascii")
        op = Tietze.op(str(path), case, props)
        assert op.check(*op.run()) is None


@pytest.mark.parametrize("surface", lyon.SURFACES)
@pytest.mark.parametrize("n", [0, 3])
def test_conjugate_padding_keeps_the_torsion(surface, n, tmp_path):
    case = lyon.LyonCase(n, surface)
    for seed in range(3):
        text, props = LongWords.pad(rng_for("test", seed, n), case, 120)
        assert props["word_letters"] >= 240
        path = tmp_path / f"w{seed}.txt"
        path.write_text(text, encoding="ascii")
        op = LongWords.op(str(path), case, props)
        assert op.check(*op.run()) is None


def test_checks_reject_a_wrong_answer(tmp_path):
    """The oracle checks are not vacuous: the torsion of n=1 is not that of n=2."""
    text, props = LongWords.pad(rng_for("test", 0, 0), lyon.LyonCase(1, "S"), 60)
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="ascii")
    wrong = LongWords.op(str(path), lyon.LyonCase(2, "S"), props)
    assert wrong.check(*wrong.run()) is not None

    text, props = Tietze.enlarge(rng_for("test", 0, 0), lyon.LyonCase(1, "S"), 2)
    path.write_text(text, encoding="ascii")
    wrong = Tietze.op(str(path), lyon.LyonCase(2, "S"), props)
    assert wrong.check(*wrong.run()) is not None


@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("surface", lyon.SURFACES)
def test_moved_point_pairs_are_provably_inequivalent(n, surface):
    terms = lyon.expected_torsion(n, surface).representative.terms
    hull = workloads.convex_hull(terms)
    centre2 = tuple(min(k[i] for k in terms) + max(k[i] for k in terms) for i in range(2))
    assert workloads.centrally_symmetric(terms)
    for seed in range(5):
        moved, p, q = workloads.move_interior_point(rng_for("test", seed, n), terms)
        assert p in terms and p not in hull and p not in moved
        assert q not in terms and workloads.inside_hull(hull, q)
        assert (2 * q[0], 2 * q[1]) != centre2 and (2 * p[0], 2 * p[1]) != centre2
        assert workloads.convex_hull(moved) == hull
        # An affine equivalence maps a centrally symmetric class to a
        # centrally symmetric one, so breaking the symmetry proves the pair
        # inequivalent; the program must agree.
        assert not workloads.centrally_symmetric(moved)
        t2 = TorsionClass(LaurentPoly(2, moved))
        assert not t2.is_centrally_symmetric()
        verdict = compare_torsion(lyon.expected_torsion(n, surface), t2)
        assert (verdict.kind, verdict.reason) == ("NotEquivalent", workloads.NO_MAP_REASON)


def test_no_moved_point_when_the_hull_has_no_free_lattice_point():
    terms = lyon.expected_torsion(0, "Sprime").representative.terms
    with pytest.raises(ValueError):
        workloads.move_interior_point(rng_for("test", 0, 0), terms, attempts=200)


@pytest.mark.parametrize("kind", Compare.kinds)
def test_compare_pairs_meet_their_expected_verdicts(kind):
    for seed in range(3):
        for surface in lyon.SURFACES:
            op = Compare().pair(rng_for("test", seed, 0), seed, kind, surface)
            assert op.props["kind"] == kind
            assert op.check(*op.run()) is None


def test_family_checks_the_oracle_flag():
    op = WORKLOADS["family"].op(2, "Sprime")
    report, text = op.run()
    assert op.check(report, text) is None
    assert op.check(dict(report, oracle_match=False), text) is not None
