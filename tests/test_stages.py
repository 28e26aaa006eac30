import random

import pytest

from spanpaths import checks
from spanpaths import stages as stages_module
from spanpaths.seqcolim import direct_limit, partition
from spanpaths.span import Vertex
from spanpaths.stages import (
    build_stages,
    cogap_set,
    construction_zigzag,
    cycle_diagnostic,
    pushout_pi0,
    stage_diagram,
    stage_word_bijection,
    word_bound,
)
from spanpaths.words import count_words, enumerate_words, format_word

# (left, blocks) gluing spans: x is inl cell 0 and y the one cell of a block
COPRODUCT = (0, ((1, ()), (1, ())))  # x and y both bridged, nothing glued
SINGLE_GLUE = (1, ((1, (0,)),))  # inl x glued to bridged y


def test_pushout_coproduct():
    class_of, count = pushout_pi0(*COPRODUCT)
    assert count == 2
    assert class_of[0] != class_of[1]


def test_pushout_single_glue():
    class_of, count = pushout_pi0(*SINGLE_GLUE)
    assert count == 1
    assert class_of[0] == class_of[1]


def test_pushout_circle_first_a_stage(circle):
    # the stage-1 A gluing span: one old cell, two identifications, four bridged cells
    prev, st = build_stages(circle, 1)
    a0 = Vertex("A", 0)
    left = prev.sizes[a0]
    assert (left, st.glue_count(a0), len(st.class_of[a0]) - left) == (1, 2, 4)
    assert len(st.glue_edges(a0)) == 2
    assert st.sizes[a0] == 3


def _full_glue_pushout(left, blocks):
    """The pushout as one union-find over every cell: each inl cell p glued to each block's bridge[p]."""
    offsets, total = [], left
    for size, _bridge in blocks:
        offsets.append(total)
        total += size
    return partition(total, [(0, offset, bridge) for offset, (_size, bridge) in zip(offsets, blocks)])


def test_pushout_equals_the_full_glue_union_find_on_random_spans():
    # 2 000 arbitrary bridges: targets repeat within a block, and two blocks'
    # repeats chain inl cells that neither block joins alone
    rng = random.Random(30)
    merged = chained = 0
    for _ in range(2000):
        left = rng.randint(0, 6)
        blocks = []
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, 7)
            blocks.append((size, tuple(rng.randrange(size) for _ in range(left))))
        class_of, count = pushout_pi0(left, blocks)
        assert (class_of, count) == _full_glue_pushout(left, blocks)
        inl_classes = len(set(class_of[:left]))
        merged += inl_classes < left
        chained += len(blocks) > 1 and all(
            inl_classes < len(set(_full_glue_pushout(left, [block])[0][:left])) for block in blocks
        )
    assert merged > 900 and chained > 200  # 929 and 233 of the 2 000


@pytest.mark.parametrize("name, depth", [("theta", 5), ("tree4", 5), ("circle", 5)])
def test_pushout_equals_the_full_glue_union_find_on_every_stage_fiber(corpus, name, depth):
    span = corpus[name]
    stages = build_stages(span, depth)
    for n in range(1, depth + 1):
        st, prev = stages[n], stages[n - 1]
        for vertex in span.vertices():
            edges = span.edges_at(vertex)
            if vertex.side == "A":
                sizes = [st.sizes[Vertex("B", span.b_end(s))] for s in edges]
            else:
                sizes = [prev.sizes[Vertex("A", span.a_end(s))] for s in edges]
            blocks = [(size, st.glue(vertex)[s]) for s, size in zip(edges, sizes)]
            left = prev.sizes[vertex]
            expected = _full_glue_pushout(left, blocks)
            assert pushout_pi0(left, blocks) == expected == (st.class_of[vertex], st.sizes[vertex])


def test_pushout_rejects_malformed_bridges():
    with pytest.raises(ValueError, match="not total"):
        pushout_pi0(2, ((1, (0,)),))
    with pytest.raises(ValueError, match="leaves its block"):
        pushout_pi0(1, ((1, (1,)),))
    with pytest.raises(ValueError, match="leaves its block"):
        pushout_pi0(1, ((2, (-1,)),))


def test_cogap_coproduct():
    class_of, _ = pushout_pi0(*COPRODUCT)
    assert sorted(cogap_set(class_of, *COPRODUCT, [0, 1])) == [0, 1]


def test_cogap_constant():
    class_of, _ = pushout_pi0(*SINGLE_GLUE)
    assert cogap_set(class_of, *SINGLE_GLUE, [7, 7]) == (7,)


def test_cogap_rejects_inconsistent_cocone():
    class_of, _ = pushout_pi0(*SINGLE_GLUE)
    with pytest.raises(ValueError, match="inconsistent cocone"):
        cogap_set(class_of, *SINGLE_GLUE, [0, 1])


@pytest.mark.parametrize("container", [list, tuple])
def test_cogap_reports_the_first_bad_cell_of_a_later_block(container):
    # three inl cells, each glued into two blocks; block 1 permutes its cells
    # and disagrees at inl cells 1 and 2, so the first bad pair is (1, block 1)
    left, blocks = 3, ((3, (0, 1, 2)), (3, (2, 0, 1)))
    class_of, _ = pushout_pi0(left, blocks)
    values = container([10, 11, 12, 10, 11, 12, 99, 98, 10])
    with pytest.raises(ValueError) as exc:
        cogap_set(class_of, left, blocks, values)
    assert str(exc.value) == "inconsistent cocone at inl cell 1, block 1: 11 != 99"


def test_cogap_rejects_a_value_count_that_is_not_the_cell_count():
    with pytest.raises(ValueError, match="one value for each of 2 cells"):
        cogap_set((0, 0), *SINGLE_GLUE, [7])


def test_cogap_rejects_quotient_that_is_not_the_pushout():
    # consistent cocone, but the partition merges cells the span never glues
    with pytest.raises(ValueError, match="not constant"):
        cogap_set((0, 0), *COPRODUCT, [0, 1])
    # the right partition, but class ids not numbered by least cell
    with pytest.raises(ValueError) as exc:
        cogap_set((1, 0), *COPRODUCT, [0, 1])
    assert str(exc.value) == "class 1 first appears out of order at cell 0"


def test_cogap_names_the_first_out_of_order_cell_past_cell_zero():
    # four bridged cells, nothing glued; class 0 repeats, so the bad cell (2)
    # is not the count of classes seen before it (1)
    four = (0, ((4, ()),))
    with pytest.raises(ValueError) as exc:
        cogap_set((0, 0, 2, 1), *four, [5, 5, 6, 7])
    assert str(exc.value) == "class 2 first appears out of order at cell 2"


def test_cogap_words_on_circle_stage(circle):
    # labelling the stage-1 A cells with words factors through exactly 3 classes
    stages = build_stages(circle, 1)
    st = stages[1]
    edges = circle.edges_at(Vertex("A", 0))
    report = stage_word_bijection(stages)
    b_words = report.word_maps[(1, Vertex("B", 0))]
    blocks = [(len(b_words), st.glue_a[s]) for s in edges]
    values = [0] + [report.tree.step(x, s) for s in edges for x in b_words]
    mapping = cogap_set(st.class_of[Vertex("A", 0)], 1, blocks, values)
    assert sorted(format_word(circle, report.tree.word(x)) for x in mapping) == [
        ">s <t",
        ">t <s",
        "refl",
    ]


def test_circle_stage_cardinalities(circle):
    stages = build_stages(circle, 5)
    a_sizes = [st.sizes[Vertex("A", 0)] for st in stages]
    b_sizes = [st.sizes[Vertex("B", 0)] for st in stages]
    assert a_sizes == [1, 3, 5, 7, 9, 11]
    assert b_sizes == [0, 2, 4, 6, 8, 10]


def test_interval_stage_fibers_stay_singleton(interval):
    stages = build_stages(interval, 5)
    a0, b0 = Vertex("A", 0), Vertex("B", 0)
    for st in stages:
        assert st.sizes[a0] <= 1
        assert st.sizes[b0] <= 1
    assert stages[5].sizes[a0] == 1
    assert stages[5].sizes[b0] == 1


def test_zero_case_for_every_span(corpus):
    for span in corpus.values():
        stage0 = build_stages(span, 0)[0]
        for a in range(len(span.a_vertices)):
            expected = 1 if a == span.basepoint else 0
            assert stage0.sizes[Vertex("A", a)] == expected
        for b in range(len(span.b_vertices)):
            assert stage0.sizes[Vertex("B", b)] == 0


def _block(stages, n, vertex, s):
    """Class ids over edge s's inr block of one fiber at stage n."""
    cells = _decoded_cells(stages, n, vertex)
    class_of = stages[n].class_of[vertex]
    return [c for c, (tag, q) in zip(class_of, cells) if tag == "inr" and q[0] == s]


def test_glue_edges_have_backtracking_shape(circle):
    # every identification glues an included class to its there-and-back bridge:
    # B glue follows the backward bridge, the previous stage's A block over s;
    # A glue the forward bridge, this stage's B block over s
    stages = build_stages(circle, 3)
    a0, b0 = Vertex("A", 0), Vertex("B", 0)
    for n in (1, 2, 3):
        for vertex, other, k in ((b0, a0, n - 1), (a0, b0, n)):
            for (_tag, p), (_tag2, (s, image)) in stages[n].glue_edges(vertex):
                assert image == _block(stages, k, other, s)[p]


def test_stage_word_bijection_circle(circle):
    stages = build_stages(circle, 2)
    report = stage_word_bijection(stages)
    assert report.ok
    b_words = report.word_maps[(2, Vertex("B", 0))]
    assert sorted(format_word(circle, report.tree.word(x)) for x in b_words) == [
        ">s",
        ">s <t >s",
        ">t",
        ">t <s >t",
    ]


def test_stage_word_bijection_interval(interval):
    report = stage_word_bijection(build_stages(interval, 4))
    assert report.ok
    for (stage, vertex), mapping in report.word_maps.items():
        assert len(mapping) <= 1, (stage, vertex)


def test_stage_word_bijection_theta(theta):
    stages = build_stages(theta, 1)
    report = stage_word_bijection(stages)
    assert report.ok
    assert len(report.word_maps[(1, Vertex("A", 0))]) == 7


def test_stage_word_bijection_rows_match_enumeration(tree4):
    stages = build_stages(tree4, 3)
    report = stage_word_bijection(stages)
    assert report.ok
    for stage, vertex, classes, words, matched in report.rows:
        bound = 2 * stage if vertex.side == "A" else 2 * stage - 1
        assert matched
        assert classes == words == len(enumerate_words(tree4, vertex, bound))


def test_cycle_diagnostic_zero_on_corpus(corpus):
    for span in corpus.values():
        stages = build_stages(span, 4)
        for n in range(5):
            assert all(c == 0 for c in cycle_diagnostic(stages, n).values())


def test_inclusions_injective_on_classes(theta):
    stages = build_stages(theta, 3)
    for vertex in theta.vertices():
        maps = stage_diagram(stages, vertex).maps
        assert len(maps) == 3
        assert all(len(set(images)) == len(images) for images in maps)


def test_word_maps_are_natural_in_every_stage_map(corpus):
    # inclusions keep the word; both bridges step across their edge
    for span in corpus.values():
        stages = build_stages(span, 4)
        report = stage_word_bijection(stages)
        assert report.ok
        words, step = report.word_maps, report.tree.step
        for v in span.vertices():
            for k, images in enumerate(stage_diagram(stages, v).maps):
                assert all(words[(k + 1, v)][images[p]] == x for p, x in enumerate(words[(k, v)]))
        for s in range(len(span.edges)):
            a, b = Vertex("A", span.a_end(s)), Vertex("B", span.b_end(s))
            z = construction_zigzag(stages, s)
            squares = [((k, a), (k + 1, b), images) for k, images in enumerate(z.fwd)]
            squares += [((k + 1, b), (k + 1, a), images) for k, images in enumerate(z.bwd)]
            assert len(squares) == 7  # four forward and three backward bridges
            for src, dst, images in squares:
                assert all(
                    words[dst][images[p]] == step(x, s) for p, x in enumerate(words[src])
                )


def test_colimit_agrees_with_enumeration(circle):
    depth = 3
    stages = build_stages(circle, depth)
    report = stage_word_bijection(stages)
    for vertex, bound in ((Vertex("A", 0), 2 * depth), (Vertex("B", 0), 2 * depth - 1)):
        limit = direct_limit(stage_diagram(stages, vertex))
        labels = {}
        for k in range(depth + 1):
            for x, node in enumerate(report.word_maps[(k, vertex)]):
                # inclusion-compatible labelling: one word per limit class
                assert labels.setdefault(limit.class_of[limit.offsets[k] + x], node) == node
        assert len(labels) == limit.class_count
        words = [report.tree.word(x) for x in labels.values()]
        assert sorted(words) == sorted(enumerate_words(circle, vertex, bound))


def test_construction_zigzag_triangles_hold(corpus):
    # SeqZigzag's constructor re-derives both glue triangle families pointwise
    for span in corpus.values():
        stages = build_stages(span, 4)
        for s in range(len(span.edges)):
            construction_zigzag(stages, s)


def test_stage_word_bijection_reports_structured_counterexample(circle):
    # sabotage a forward glue bridge so the A-side cocone of stage 2 disagrees
    # (test_fold_rejects_inconsistent_cocone covers the B side)
    stages = build_stages(circle, 2)
    broken = list(stages[2].glue_a[0])
    broken[0], broken[1] = broken[1], broken[0]
    stages[2] = stages[2]._replace(glue_a=(tuple(broken),) + stages[2].glue_a[1:])
    report = stage_word_bijection(stages)
    assert not report.ok
    assert report.failures == [
        "stage 2 A fiber a: inconsistent cocone at inl cell 0, block 0: "
        "'refl' != '>t <s'"
    ]


def test_theta_stages_to_six(theta):
    # fibers 2^(2n+1) - 1 / 2^(2n) - 1; every fiber's cells are its inl block
    # plus one block per edge, and it glues each inl cell once per edge
    depth = 6
    stages = build_stages(theta, depth)
    a0, b0 = Vertex("A", 0), Vertex("B", 0)
    edges = theta.edges_at(a0)
    for n in range(1, depth + 1):
        st, prev = stages[n], stages[n - 1]
        assert st.sizes == {a0: 2 ** (2 * n + 1) - 1, b0: 2 ** (2 * n) - 1}
        assert all(c == 0 for c in cycle_diagnostic(stages, n).values())
        for vertex, class_of, left, block in (
            (a0, st.class_of[a0], prev.sizes[a0], st.sizes[b0]),
            (b0, st.class_of[b0], prev.sizes[b0], prev.sizes[a0]),
        ):
            assert len(class_of) == left + len(edges) * block
            assert st.glue_count(vertex) == len(st.glue_edges(vertex)) == left * len(edges)
    assert stage_word_bijection(stages).ok


# name -> (|A|, |B|, edge ends, depth, cells built through that depth): far
# past the depths the stage/word bijection reaches in tier-1
DEEP_STAGES = {
    "theta": (1, 1, [(0, 0)] * 3, 9, 1834930),
    "k33": (3, 3, [(a, b) for a in range(3) for b in range(3)], 8, 458682),
    "bouquet3": (1, 3, [(0, j) for j in range(3) for _ in range(2)], 7, 527282),
}


@pytest.mark.parametrize("name", sorted(DEEP_STAGES))
def test_deep_stage_class_counts_are_word_counts(span_of, name):
    # from the builds alone: stage n's fiber over v has one class per reduced
    # word to v of length <= word_bound(n, v)
    na, nb, ends, depth, cells = DEEP_STAGES[name]
    span = span_of(na, nb, ends)
    counts = count_words(span, 2 * depth)
    built = build_stages(span, depth)
    assert sum(len(class_of) for st in built for class_of in st.class_of.values()) == cells
    for st in built:
        for v, size in st.sizes.items():
            assert size == sum(at.get(v, 0) for at in counts[: word_bound(st.n, v) + 1])


def _decoded_cells(stages, n, vertex):
    """Provenance-tagged cells of one fiber, in integer cell order."""
    st, prev = stages[n], stages[n - 1]
    span = st.span
    edges = span.edges_at(vertex)
    left = prev.sizes[vertex]
    if vertex.side == "A":
        blocks = [st.sizes[Vertex("B", span.b_end(s))] for s in edges]
    else:
        blocks = [prev.sizes[Vertex("A", span.a_end(s))] for s in edges]
    cells = [("inl", p) for p in range(left)]
    cells += [("inr", (s, q)) for s, size in zip(edges, blocks) for q in range(size)]
    return cells


def test_pushouts_match_quotient_set_of_decoded_glue(bfs_classes):
    # differential: each fiber's integer partition, numbering included, is the
    # breadth-first quotient of its decoded cells under its decoded glue edges
    rng = random.Random(11)
    for _ in range(30):
        span = checks.random_span(rng)
        stages = build_stages(span, 3)
        for n in range(1, 4):
            st = stages[n]
            for vertex in span.vertices():
                cells = _decoded_cells(stages, n, vertex)
                expected = bfs_classes(cells, st.glue_edges(vertex))
                assert tuple(expected) == st.class_of[vertex]


def test_fold_rejects_merged_classes(theta):
    # a class_of that merges classes 0 and 1 is not the pushout of the gluing span
    stages = build_stages(theta, 2)
    a0 = Vertex("A", 0)
    merged = tuple(max(c - 1, 0) for c in stages[2].class_of[a0])
    stages[2] = stages[2]._replace(class_of={**stages[2].class_of, a0: merged})
    report = stage_word_bijection(stages)
    assert not report.ok
    assert report.failures == ["stage 2 A fiber a: cocone not constant on class 0"]


def test_fold_rejects_inconsistent_cocone(theta):
    # a glue bridge that no longer backtracks makes the words of a glue pair disagree
    stages = build_stages(theta, 2)
    bridge = list(stages[2].glue_b[0])
    bridge[0], bridge[1] = bridge[1], bridge[0]
    stages[2] = stages[2]._replace(glue_b=(tuple(bridge),) + stages[2].glue_b[1:])
    report = stage_word_bijection(stages)
    assert not report.ok
    assert report.failures == [
        "stage 2 B fiber b: inconsistent cocone at inl cell 0, block 0: "
        "'>s' != '>t'"
    ]


def test_fold_names_missing_words_in_text_syntax(circle, monkeypatch):
    # a fold that drops a fiber's last class leaves that class's word unmatched
    cogap = stages_module.cogap_set
    monkeypatch.setattr(stages_module, "cogap_set", lambda *args: cogap(*args)[:-1])
    report = stage_word_bijection(build_stages(circle, 1))
    assert report.failures[0] == "stage 1 B fiber b: classes and words differ (missing ['>t'], extra [])"

