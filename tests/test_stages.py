import pytest

from spanpaths.seqcolim import QuotientSet, direct_limit
from spanpaths.span import Vertex, parse_span
from spanpaths.stages import (
    SpanInstance,
    build_stages,
    cogap_set,
    construction_zigzag,
    cycle_diagnostic,
    pushout_pi0,
    stage_diagram,
    stage_word_bijection,
)
from spanpaths.words import enumerate_words, format_word


def test_pushout_coproduct():
    sp = SpanInstance(("x",), (), ("y",), {}, {})
    q = pushout_pi0(sp)
    assert q.class_count == 2
    assert q.find(("inl", "x")) != q.find(("inr", "y"))


def test_pushout_single_glue():
    sp = SpanInstance(("x",), ("m",), ("y",), {"m": "x"}, {"m": "y"})
    q = pushout_pi0(sp)
    assert q.class_count == 1
    assert q.find(("inl", "x")) == q.find(("inr", "y"))


def test_pushout_circle_first_a_stage(circle):
    # the stage-1 A gluing span: one old cell, two identifications, four bridged cells
    stages = build_stages(circle, 1)
    sp = stages[1].spans_a[0]
    assert (len(sp.left), len(sp.middle), len(sp.right)) == (1, 2, 4)
    assert stages[1].pa_quot[0].class_count == 3


def test_span_instance_validation():
    with pytest.raises(ValueError, match="left leg"):
        SpanInstance(("x",), ("m",), ("y",), {}, {"m": "y"})
    with pytest.raises(ValueError, match="duplicate"):
        SpanInstance(("x", "x"), (), (), {}, {})


def test_cogap_coproduct():
    sp = SpanInstance(("x",), (), ("y",), {}, {})
    mapping = cogap_set(pushout_pi0(sp), sp, {"x": 0}, {"y": 1})
    assert sorted(mapping.values()) == [0, 1]


def test_cogap_constant():
    sp = SpanInstance(("x",), ("m",), ("y",), {"m": "x"}, {"m": "y"})
    mapping = cogap_set(pushout_pi0(sp), sp, {"x": 7}, {"y": 7})
    assert list(mapping.values()) == [7]


def test_cogap_rejects_inconsistent_cocone():
    sp = SpanInstance(("x",), ("m",), ("y",), {"m": "x"}, {"m": "y"})
    with pytest.raises(ValueError, match="inconsistent cocone"):
        cogap_set(pushout_pi0(sp), sp, {"x": 0}, {"y": 1})


def test_cogap_rejects_quotient_that_is_not_the_pushout():
    # consistent cocone, but the quotient merges cells the span never glues
    sp = SpanInstance(("x",), (), ("y",), {}, {})
    q = QuotientSet([("inl", "x"), ("inr", "y")])
    q.union(("inl", "x"), ("inr", "y"))
    with pytest.raises(ValueError, match="not constant"):
        cogap_set(q.seal(), sp, {"x": 0}, {"y": 1})


def test_cogap_words_on_circle_stage(circle):
    # labelling the stage-1 A cells with words factors through exactly 3 classes
    stages = build_stages(circle, 1)
    sp = stages[1].spans_a[0]
    b_words = stage_word_bijection(stages, 1).word_maps[(1, Vertex("B", 0))]
    from spanpaths.words import concat_bwd

    left_map = {"refl": ()}
    right_map = {(s, q): concat_bwd(circle, b_words[q], s) for s, q in sp.right}
    mapping = cogap_set(pushout_pi0(sp), sp, left_map, right_map)
    assert sorted(format_word(circle, w) for w in mapping.values()) == [
        ">s <t",
        ">t <s",
        "refl",
    ]


def test_circle_stage_cardinalities(circle):
    stages = build_stages(circle, 5)
    a_sizes = [st.pa_quot[0].class_count for st in stages]
    b_sizes = [st.pb_quot[0].class_count for st in stages]
    assert a_sizes == [1, 3, 5, 7, 9, 11]
    assert b_sizes == [0, 2, 4, 6, 8, 10]


def test_interval_stage_fibers_stay_singleton(interval):
    stages = build_stages(interval, 5)
    for st in stages:
        assert st.pa_quot[0].class_count <= 1
        assert st.pb_quot[0].class_count <= 1
    assert stages[5].pa_quot[0].class_count == 1
    assert stages[5].pb_quot[0].class_count == 1


def test_zero_case_for_every_span(corpus):
    for span in corpus.values():
        stage0 = build_stages(span, 0)[0]
        for a in range(len(span.a_vertices)):
            expected = 1 if a == span.basepoint else 0
            assert stage0.pa_quot[a].class_count == expected
        for b in range(len(span.b_vertices)):
            assert stage0.pb_quot[b].class_count == 0


def test_glue_edges_have_backtracking_shape(circle):
    # every identification glues an included class to its there-and-back bridge
    stages = build_stages(circle, 3)
    for n in (1, 2, 3):
        st = stages[n]
        prev = stages[n - 1]
        for inl_cell, inr_cell in st.glue_edges(Vertex("B", 0)):
            _tag, p = inl_cell
            _tag2, (s, image) = inr_cell
            assert image == prev.bwd_maps[s][p]
        for inl_cell, inr_cell in st.glue_edges(Vertex("A", 0)):
            _tag, p = inl_cell
            _tag2, (s, image) = inr_cell
            assert image == prev.fwd_maps[s][p]


def test_stage_word_bijection_circle(circle):
    stages = build_stages(circle, 2)
    report = stage_word_bijection(stages, 2)
    assert report.ok
    b_words = report.word_maps[(2, Vertex("B", 0))]
    assert sorted(format_word(circle, w) for w in b_words.values()) == [
        ">s",
        ">s <t >s",
        ">t",
        ">t <s >t",
    ]


def test_stage_word_bijection_interval(interval):
    report = stage_word_bijection(build_stages(interval, 4), 4)
    assert report.ok
    for (stage, vertex), mapping in report.word_maps.items():
        assert len(mapping) <= 1, (stage, vertex)


def test_stage_word_bijection_theta(theta):
    stages = build_stages(theta, 1)
    report = stage_word_bijection(stages, 1)
    assert report.ok
    assert len(report.word_maps[(1, Vertex("A", 0))]) == 7


def test_stage_word_bijection_rows_match_enumeration(tree4):
    stages = build_stages(tree4, 3)
    report = stage_word_bijection(stages, 3)
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
    for n in (1, 2, 3):
        st = stages[n]
        images = [st.incl_a[0][p] for p in stages[n - 1].pa_classes(0)]
        assert len(set(images)) == len(images)
        images = [st.incl_b[0][p] for p in stages[n - 1].pb_classes(0)]
        assert len(set(images)) == len(images)


def test_colimit_agrees_with_enumeration(circle):
    depth = 3
    stages = build_stages(circle, depth)
    report = stage_word_bijection(stages, depth)
    for vertex, bound in ((Vertex("A", 0), 2 * depth), (Vertex("B", 0), 2 * depth - 1)):
        limit = direct_limit(stage_diagram(stages, vertex))
        words = set()
        for cls in limit.classes():
            labels = {report.word_maps[(k, vertex)][x] for k, x in cls}
            assert len(labels) == 1  # inclusion-compatible labelling
            words |= labels
        assert words == set(enumerate_words(circle, vertex, bound))


def test_construction_zigzag_triangles_hold(corpus):
    # SeqZigzag's constructor re-derives both glue triangle families pointwise
    for span in corpus.values():
        stages = build_stages(span, 4)
        for s in range(len(span.edges)):
            construction_zigzag(stages, s)


def test_stage_word_bijection_reports_structured_counterexample():
    # sabotage a backward bridge so the cocone over the next stage disagrees
    span = parse_span("A a\nB b\nS s a b\nS t a b\nbase a\n")
    stages = build_stages(span, 2)
    broken = dict(stages[1].bwd_maps[0])
    keys = list(broken)
    if len(keys) >= 2:
        broken[keys[0]], broken[keys[1]] = broken[keys[1]], broken[keys[0]]
    stages[1].bwd_maps = (broken,) + stages[1].bwd_maps[1:]
    report = stage_word_bijection(stages, 2)
    assert not report.ok
    assert report.failures
