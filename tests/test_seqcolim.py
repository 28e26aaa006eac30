import random

import pytest

from spanpaths import checks
from spanpaths.seqcolim import (
    FinSeqDiagram,
    QuotientSet,
    SeqMorphism,
    SeqZigzag,
    compose_morphisms,
    direct_limit,
    half_shift,
    identity_morphism,
    map_of_limits,
    shift_diagram,
    truncate_diagram,
    zigzag_equivalence,
    zigzag_to_morphism,
)
from spanpaths.span import Vertex
from spanpaths.stages import build_stages, construction_zigzag, stage_diagram, stage_word_bijection
from spanpaths.words import FWD, Step, enumerate_words


def constant_diagram(elements, levels):
    sets = tuple(tuple(elements) for _ in range(levels))
    maps = tuple({x: x for x in elements} for _ in range(levels - 1))
    return FinSeqDiagram(sets, maps)


def identity_zigzag(elements, levels):
    d = constant_diagram(elements, levels)
    ident = {x: x for x in elements}
    return SeqZigzag(d, d, tuple(ident for _ in range(levels)), tuple(ident for _ in range(levels - 1)))


def test_quotient_representative_is_order_minimal():
    q = QuotientSet("abcd")
    q.union("d", "b")
    q.union("c", "d")
    assert q.find("d") == "b"
    assert q.representatives() == ["a", "b"]
    assert q.classes() == [("a",), ("b", "c", "d")]


def test_quotient_rejects_duplicates_and_sealed_unions():
    with pytest.raises(ValueError, match="duplicate"):
        QuotientSet("aa")
    q = QuotientSet("ab").seal()
    with pytest.raises(ValueError, match="sealed"):
        q.union("a", "b")


def test_quotient_union_order_irrelevant():
    rng = random.Random(3)
    pairs = [(0, 5), (5, 2), (7, 3), (1, 4), (4, 0)]
    reference = None
    for _ in range(10):
        q = QuotientSet(range(8))
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        for x, y in shuffled:
            q.union(x, y)
        if reference is None:
            reference = q.classes()
        assert q.classes() == reference


def test_direct_limit_constant():
    assert direct_limit(constant_diagram((0, 1), 4)).class_count == 2


def test_direct_limit_inclusions():
    d = FinSeqDiagram(
        ((0,), (0, 1), (0, 1, 2)),
        ({0: 0}, {0: 0, 1: 1}),
    )
    limit = direct_limit(d)
    assert limit.class_count == 3
    assert limit.find((0, 0)) == (0, 0)
    assert limit.find((2, 0)) == (0, 0)


def test_direct_limit_circle_stage_diagram(circle):
    stages = build_stages(circle, 2)
    limit = direct_limit(stage_diagram(stages, Vertex("A", 0)))
    assert limit.class_count == len(enumerate_words(circle, Vertex("A", 0), 4))


def test_diagram_validation():
    with pytest.raises(ValueError, match="not total"):
        FinSeqDiagram(((0, 1), (0,)), ({0: 0},))
    with pytest.raises(ValueError, match="outside"):
        FinSeqDiagram(((0,), (1,)), ({0: 0},))


def test_morphism_square_condition_rejected():
    source = FinSeqDiagram(((0, 1), (0, 1)), ({0: 1, 1: 0},))
    target = constant_diagram((0, 1), 2)
    with pytest.raises(ValueError, match="square condition"):
        SeqMorphism(source, target, ({0: 0, 1: 1}, {0: 0, 1: 1}))


def test_map_of_limits_identity():
    d = constant_diagram((0, 1, 2), 3)
    mapping = map_of_limits(identity_morphism(d))
    assert all(rep == image for rep, image in mapping.items())


def test_map_of_limits_into_singleton():
    d = FinSeqDiagram(
        ((0,), (0, 1), (0, 1, 2)),
        ({0: 0}, {0: 0, 1: 1}),
    )
    point = constant_diagram(("x",), 3)
    morphism = SeqMorphism(
        d, point, tuple({x: "x" for x in level} for level in d.sets)
    )
    mapping = map_of_limits(morphism)
    assert set(mapping.values()) == {(0, "x")}


def test_map_of_limits_respects_composition():
    d = FinSeqDiagram(((0, 1), (0, 1)), ({0: 0, 1: 1},))
    swap = SeqMorphism(d, d, ({0: 1, 1: 0}, {0: 1, 1: 0}))
    twice = compose_morphisms(swap, swap)
    composed = map_of_limits(twice)
    first = map_of_limits(swap)
    assert composed == {rep: first[first[rep]] for rep in first}


def test_bridge_morphism_on_circle(circle):
    # forward bridges send the class of refl to the class of the one-crossing word
    stages = build_stages(circle, 3)
    z = construction_zigzag(stages, 0)
    morphism = zigzag_to_morphism(z)
    report = stage_word_bijection(stages, 3)
    mapping = map_of_limits(morphism)
    lim_left = direct_limit(z.left)
    refl_class = lim_left.find((0, 0))  # refl is class 0 of stage 0
    stage, cell = mapping[refl_class]
    node = report.word_maps[(stage + 1, Vertex("B", 0))][cell]  # right side is shifted by one
    assert report.tree.word(node) == (Step(FWD, 0),)


def test_half_shift_identity_zigzag():
    z = identity_zigzag((0, 1), 4)
    shifted = half_shift(z)
    assert shifted.left.truncation == z.left.truncation - 1
    assert shifted.fwd == z.bwd


def test_zigzag_to_morphism_keeps_forward_family():
    z = identity_zigzag((0, 1), 4)
    morphism = zigzag_to_morphism(z)
    assert morphism.levels == z.fwd
    assert morphism.source == z.left and morphism.target == z.right


def test_half_shift_twice_is_shift():
    # two half-shifts advance every map by one level (each also trims one level)
    z = identity_zigzag((0, 1), 5)
    double = half_shift(half_shift(z))
    surviving = double.left.truncation + 1
    assert double.fwd == z.fwd[1 : 1 + surviving]
    assert double.bwd == z.bwd[1 : surviving]
    assert double.left.sets == z.left.sets[1 : 1 + surviving]
    assert double.right.sets == z.right.sets[1 : 1 + surviving]


def test_half_shift_circle_construction(circle):
    # swapping roles yields the zigzag from the B family to the shifted A family
    stages = build_stages(circle, 4)
    z = construction_zigzag(stages, 0)
    shifted = half_shift(z)  # constructor re-checks the triangle conditions
    assert shifted.left.sets == z.right.sets[: shifted.left.truncation + 1]
    assert shifted.right.sets == z.left.sets[1:]


def test_zigzag_validation_rejects_broken_triangles():
    d = constant_diagram((0, 1), 2)
    with pytest.raises(ValueError, match="triangle"):
        SeqZigzag(d, d, ({0: 0, 1: 1}, {0: 0, 1: 1}), ({0: 1, 1: 0},))


def test_zigzag_equivalence_identity():
    report = zigzag_equivalence(identity_zigzag((0, 1, 2), 5))
    assert report.ok
    assert report.checked > 0
    assert all(rep == image for rep, image in report.forward.items())


def test_zigzag_equivalence_circle_refl_roundtrip(circle):
    stages = build_stages(circle, 5)
    report = zigzag_equivalence(construction_zigzag(stages, 0))
    assert report.ok
    lim_left = report.left_limit
    refl_class = lim_left.find((0, 0))  # refl is class 0 of stage 0
    assert report.backward[report.forward[refl_class]] == refl_class


def test_zigzag_equivalence_interval(interval):
    stages = build_stages(interval, 5)
    report = zigzag_equivalence(construction_zigzag(stages, 0))
    assert report.ok
    assert report.left_limit.class_count == 1
    assert report.right_limit.class_count == 1


def test_zigzag_equivalence_needs_two_levels():
    with pytest.raises(ValueError, match="truncation too small"):
        zigzag_equivalence(identity_zigzag((0,), 2))


def test_shift_invariance(circle):
    stages = build_stages(circle, 3)
    d = stage_diagram(stages, Vertex("B", 0))
    lim = direct_limit(d)
    lim_shift = direct_limit(shift_diagram(d))
    image = {
        lim.find((n + 1, x))
        for n, level in enumerate(shift_diagram(d).sets)
        for x in level
    }
    assert lim_shift.class_count == lim.class_count == len(image)


def test_truncate_diagram_bounds():
    d = constant_diagram((0,), 3)
    assert truncate_diagram(d, 1).sets == d.sets[:2]
    with pytest.raises(ValueError):
        truncate_diagram(d, 5)


def test_seqcolim_suite_builds_each_diagram_and_limit_once(theta, monkeypatch):
    calls = {"stage_diagram": 0, "direct_limit": 0}

    def counting(name):
        original = getattr(checks, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(checks, name, counting(name))
    results = checks.seqcolim_suite(theta, depth=3)
    assert all(result.ok for result in results)
    # one limit per vertex, plus one for each vertex's shifted diagram
    assert calls == {"stage_diagram": len(theta.vertices()), "direct_limit": 2 * len(theta.vertices())}
