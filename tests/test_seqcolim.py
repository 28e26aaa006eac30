import random

import pytest

from spanpaths import checks, seqcolim
from spanpaths.seqcolim import (
    FinSeqDiagram,
    SeqMorphism,
    SeqZigzag,
    class_labels,
    compose_morphisms,
    direct_limit,
    half_shift,
    map_of_limits,
    partition,
    shift_diagram,
    truncate_diagram,
    zigzag_equivalence,
    zigzag_to_morphism,
)
from spanpaths.span import Vertex, parse_span
from spanpaths.stages import build_stages, construction_zigzag, stage_diagram, stage_word_bijection
from spanpaths.words import enumerate_words

from conftest import CORPUS_TEXT


def constant_diagram(size, levels):
    identity = tuple(range(size))
    return FinSeqDiagram((size,) * levels, (identity,) * (levels - 1))


def identity_morphism(d):
    return SeqMorphism(d, d, tuple(tuple(range(size)) for size in d.sizes))


def identity_zigzag(size, levels):
    d = constant_diagram(size, levels)
    identity = tuple(range(size))
    return SeqZigzag(d, d, (identity,) * levels, (identity,) * (levels - 1))


# level sizes 1, 2, 3, each level included in the next
INCLUSIONS = FinSeqDiagram((1, 2, 3), ((0,), (0, 1)))


def test_partition_numbers_classes_by_least_cell():
    # cells 1, 2, 3 glued in an order that never makes 1 the first root
    assert partition(4, [(3, 0, (1,)), (2, 0, (3,))]) == ((0, 1, 1, 1), 2)
    # a star: inl cells 0..1, a block at offset 2 glued to both
    assert partition(5, [(0, 2, (1, 1)), (0, 4, (0, 0))]) == ((0, 0, 1, 0, 0), 2)


def test_class_labels_reads_least_cells_and_names_disagreeing_classes():
    # cells 0..4 in classes 0, 1, 0, 2, 1; the labels cover a prefix of the cells
    class_of = (0, 1, 0, 2, 1)
    assert class_labels(class_of, 3, "xyxz") == (["x", "y", "z"], set())
    assert class_labels(class_of, 3, ["x", "y", "w"]) == (["x", "y", None], {0})


def test_partition_union_order_irrelevant():
    rng = random.Random(3)
    glue = [(0, 0, (5,)), (5, 0, (2,)), (7, 0, (3,)), (1, 0, (4,)), (4, 0, (0,))]
    reference = partition(8, glue)
    for _ in range(10):
        rng.shuffle(glue)
        assert partition(8, glue) == reference


def test_partition_matches_bfs_on_random_star_gluings(bfs_classes):
    # pushout-shaped: an inl block glued into blocks at fixed offsets
    rng = random.Random(17)
    for _ in range(200):
        left = rng.randint(0, 6)
        blocks = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        glue, pairs, total = [], [], left
        for size in blocks:
            bridge = tuple(rng.randrange(size) for _ in range(left))
            glue.append((0, total, bridge))
            pairs += [(p, total + q) for p, q in enumerate(bridge)]
            total += size
        class_of, count = partition(total, glue)
        assert list(class_of) == bfs_classes(range(total), pairs)
        assert count == len(set(class_of))


def test_direct_limit_matches_bfs_on_random_chains(bfs_classes):
    # limit-shaped: levels of arbitrary (not necessarily injective) maps
    rng = random.Random(23)
    for _ in range(200):
        sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        maps = tuple(
            tuple(rng.randrange(sizes[n + 1]) for _ in range(sizes[n])) for n in range(len(sizes) - 1)
        )
        limit = direct_limit(FinSeqDiagram(sizes, maps))
        cells = [(n, x) for n, size in enumerate(sizes) for x in range(size)]
        pairs = [((n, x), (n + 1, y)) for n, step in enumerate(maps) for x, y in enumerate(step)]
        expected = bfs_classes(cells, pairs)
        assert [limit.class_of[limit.offsets[n] + x] for n, x in cells] == expected
        assert limit.class_count == len(set(expected))
        firsts = {}
        for cell, cls in zip(cells, expected):
            firsts.setdefault(cls, cell)
        assert limit.representatives() == [firsts[c] for c in range(limit.class_count)]


def test_direct_limit_constant():
    assert direct_limit(constant_diagram(2, 4)).class_count == 2


def test_direct_limit_inclusions():
    limit = direct_limit(INCLUSIONS)
    assert limit.class_count == 3
    assert limit.class_of[limit.offsets[0]] == 0
    assert limit.class_of[limit.offsets[2]] == 0
    assert limit.representatives() == [(0, 0), (1, 1), (2, 2)]


def test_direct_limit_circle_stage_diagram(circle):
    stages = build_stages(circle, 2)
    limit = direct_limit(stage_diagram(stages, Vertex("A", 0)))
    assert limit.class_count == len(enumerate_words(circle, Vertex("A", 0), 4))


def test_diagram_validation():
    with pytest.raises(ValueError, match="not total"):
        FinSeqDiagram((2, 1), ((0,),))
    with pytest.raises(ValueError, match="outside"):
        FinSeqDiagram((1, 1), ((1,),))
    # a dict's keys would pass the range checks while its values were ignored
    with pytest.raises(ValueError, match="not a tuple"):
        FinSeqDiagram((2, 2), ({0: 1, 1: 0},))


# one element on 2 and on 3 levels; a zigzag's two sides; a limit gluing both elements of level 0
ONE_TWO, ONE_THREE = constant_diagram(1, 2), constant_diagram(1, 3)
LEFT, RIGHT = FinSeqDiagram((1, 1), ((0,),)), FinSeqDiagram((1, 2), ((1,),))
GLUED_PAIR = direct_limit(FinSeqDiagram((2, 1), ((0, 0),)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SeqMorphism(ONE_TWO, ONE_THREE, ()), "source and target truncations differ"),
        (lambda: SeqMorphism(ONE_TWO, ONE_TWO, ((0,),)), "need one level map per level"),
        (
            lambda: compose_morphisms(identity_morphism(ONE_TWO), identity_morphism(ONE_THREE)),
            "morphisms do not compose",
        ),
        (lambda: SeqZigzag(ONE_TWO, ONE_THREE, (), ()), "left and right truncations differ"),
        (lambda: SeqZigzag(ONE_TWO, ONE_TWO, ((0,),), ((0,),)), "need 2 forward and 1 backward maps"),
        # the left triangle holds; fwd after bwd sends right element 0 to 0, right's map to 1
        (
            lambda: SeqZigzag(LEFT, RIGHT, ((0,), (0,)), ((0,),)),
            "right triangle fails at level 0, element 0",
        ),
        (lambda: half_shift(identity_zigzag(1, 1)), "cannot half-shift a zigzag with a single level"),
        (
            lambda: construction_zigzag(build_stages(parse_span(CORPUS_TEXT["circle"]), 0), 0),
            "need at least stages 0 and 1",
        ),
        # a source limit coarser than the morphism's source
        (
            lambda: map_of_limits(identity_morphism(constant_diagram(2, 1)), GLUED_PAIR),
            "induced map is not constant",
        ),
    ],
)
def test_diagram_constructions_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_morphism_square_condition_rejected():
    source = FinSeqDiagram((2, 2), ((1, 0),))
    target = constant_diagram(2, 2)
    with pytest.raises(ValueError, match="square condition"):
        SeqMorphism(source, target, ((0, 1), (0, 1)))


def test_map_of_limits_identity():
    d = constant_diagram(3, 3)
    assert map_of_limits(identity_morphism(d)) == (0, 1, 2)


def test_map_of_limits_into_singleton():
    point = constant_diagram(1, 3)
    morphism = SeqMorphism(INCLUSIONS, point, tuple((0,) * size for size in INCLUSIONS.sizes))
    assert map_of_limits(morphism) == (0, 0, 0)


def test_map_of_limits_respects_composition():
    d = constant_diagram(2, 2)
    swap = SeqMorphism(d, d, ((1, 0), (1, 0)))
    composed = map_of_limits(compose_morphisms(swap, swap))
    first = map_of_limits(swap)
    assert first == (1, 0)
    assert composed == tuple(first[first[c]] for c in range(len(first)))


def test_bridge_morphism_on_circle(circle):
    # forward bridges send the class of refl to the class of the one-crossing word
    stages = build_stages(circle, 3)
    z = construction_zigzag(stages, 0)
    morphism = zigzag_to_morphism(z)
    report = stage_word_bijection(stages)
    mapping = map_of_limits(morphism)
    left = direct_limit(z.left)
    refl_class = left.class_of[left.offsets[0]]  # refl is class 0 of stage 0
    stage, cell = direct_limit(z.right).representatives()[mapping[refl_class]]
    node = report.word_maps[(stage + 1, Vertex("B", 0))][cell]  # right side is shifted by one
    assert report.tree.text(node) == ">s"


def test_half_shift_identity_zigzag():
    z = identity_zigzag(2, 4)
    shifted = half_shift(z)
    assert shifted.left.truncation == z.left.truncation - 1
    assert shifted.fwd == z.bwd


def test_zigzag_to_morphism_keeps_forward_family():
    z = identity_zigzag(2, 4)
    morphism = zigzag_to_morphism(z)
    assert morphism.levels == z.fwd
    assert morphism.source == z.left and morphism.target == z.right


def test_half_shift_twice_is_shift():
    # two half-shifts advance every map by one level (each also trims one level)
    z = identity_zigzag(2, 5)
    double = half_shift(half_shift(z))
    surviving = double.left.truncation + 1
    assert double.fwd == z.fwd[1 : 1 + surviving]
    assert double.bwd == z.bwd[1 : surviving]
    assert double.left.sizes == z.left.sizes[1 : 1 + surviving]
    assert double.right.sizes == z.right.sizes[1 : 1 + surviving]


def test_half_shift_circle_construction(circle):
    # swapping roles yields the zigzag from the B family to the shifted A family
    stages = build_stages(circle, 4)
    z = construction_zigzag(stages, 0)
    shifted = half_shift(z)  # constructor re-checks the triangle conditions
    assert shifted.left.sizes == z.right.sizes[: shifted.left.truncation + 1]
    assert shifted.right.sizes == z.left.sizes[1:]


def test_zigzag_validation_rejects_broken_triangles():
    d = constant_diagram(2, 2)
    with pytest.raises(ValueError, match="triangle"):
        SeqZigzag(d, d, ((0, 1), (0, 1)), ((1, 0),))


def test_zigzag_equivalence_identity():
    report = zigzag_equivalence(identity_zigzag(3, 5))
    assert report.ok
    assert report.checked > 0
    assert report.forward == report.backward == (0, 1, 2)


def test_zigzag_equivalence_circle_refl_roundtrip(circle):
    stages = build_stages(circle, 5)
    report = zigzag_equivalence(construction_zigzag(stages, 0))
    assert report.ok
    refl_class = report.left_limit.class_of[report.left_limit.offsets[0]]  # refl is class 0 of stage 0
    assert report.backward[report.forward[refl_class]] == refl_class


def test_zigzag_equivalence_interval(interval):
    stages = build_stages(interval, 5)
    report = zigzag_equivalence(construction_zigzag(stages, 0))
    assert report.ok
    assert report.left_limit.class_count == 1
    assert report.right_limit.class_count == 1


def test_zigzag_equivalence_needs_two_levels():
    with pytest.raises(ValueError, match="truncation too small"):
        zigzag_equivalence(identity_zigzag(1, 2))


def test_shift_invariance(circle):
    stages = build_stages(circle, 3)
    d = stage_diagram(stages, Vertex("B", 0))
    lim = direct_limit(d)
    lim_shift = direct_limit(shift_diagram(d))
    image = {lim.class_of[lim.offsets[n + 1] + x] for n, size in enumerate(shift_diagram(d).sizes) for x in range(size)}
    assert lim_shift.class_count == lim.class_count == len(image)


def test_truncate_diagram_bounds():
    d = constant_diagram(1, 3)
    assert truncate_diagram(d, 1).sizes == d.sizes[:2]
    with pytest.raises(ValueError):
        truncate_diagram(d, 5)


def test_seqcolim_suite_builds_each_diagram_and_limit_once(theta, monkeypatch):
    calls = {"stage_diagram": 0, "direct_limit": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    # map_of_limits builds the limits it is not given through seqcolim's own binding
    for module, name in ((checks, "stage_diagram"), (checks, "direct_limit"), (seqcolim, "direct_limit")):
        counting(module, name)
    results = checks.seqcolim_suite(build_stages(theta, 3))
    assert all(result.ok for result in results)
    # one limit per vertex and per shifted diagram, and three per edge for map-composition
    vertices, edges = len(theta.vertices()), len(theta.edges)
    assert calls == {"stage_diagram": vertices, "direct_limit": 2 * vertices + 3 * edges}
