"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality; randomized parts are seeded and
deterministic. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random

from spanpaths import checks
from spanpaths.idsys import (
    Section,
    build_family,
    check_computation,
    elim_section,
    encode_decode,
    parity_family,
    trivial_family,
    uniqueness_check,
    winding_family,
)
from spanpaths.oracle import compare_words_walks, nbt_walks, pi1_rank
from spanpaths.seqcolim import direct_limit, zigzag_equivalence
from spanpaths.span import Vertex, component_of, realize
from spanpaths.stages import build_stages, construction_zigzag, stage_diagram, stage_word_bijection
from spanpaths.words import (
    WordTree,
    all_reduced_words,
    enumerate_words,
    is_reduced,
    reduce_word,
    reduce_word_rightmost,
    word_endpoint,
)


def report(number, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, detail))
    assert ok, detail


def test_criterion_1_circle_stage_cardinalities(circle):
    stages = build_stages(circle, 5)
    graph = realize(circle)
    ok = True
    for n in range(1, 6):
        by_stages_a = stages[n].sizes[Vertex("A", 0)]
        by_stages_b = stages[n].sizes[Vertex("B", 0)]
        by_words_a = len(enumerate_words(circle, Vertex("A", 0), 2 * n))
        by_words_b = len(enumerate_words(circle, Vertex("B", 0), 2 * n - 1))
        walks = nbt_walks(graph, circle.base_vertex, 2 * n)
        by_walks_a = sum(1 for w in walks if w.vertices[-1] == Vertex("A", 0))
        by_walks_b = sum(1 for w in walks if w.vertices[-1] == Vertex("B", 0))
        ok = ok and by_stages_a == by_words_a == by_walks_a == 2 * n + 1
        ok = ok and by_stages_b == by_words_b == by_walks_b == 2 * n
    report(1, ok, "circle fibers are 2n+1 and 2n for n = 1..5, three ways")


def test_criterion_2_interval_contractibility(interval):
    stages = build_stages(interval, 5)
    ok = all(
        st.sizes[Vertex("A", 0)] <= 1 and st.sizes[Vertex("B", 0)] <= 1 for st in stages
    )
    for vertex in (Vertex("A", 0), Vertex("B", 0)):
        limit = direct_limit(stage_diagram(stages, vertex))
        ok = ok and limit.class_count == 1
    report(2, ok, "interval stage fibers stay within one class; both colimits are singletons")


def test_criterion_3_oracle_equivalence(corpus):
    ok = True
    for name, span in corpus.items():
        if not compare_words_walks(span, 8).ok:
            ok = False
        if not stage_word_bijection(build_stages(span, 4)).ok:
            ok = False
    random_results = checks.random_span_suite(seed=2024)
    ok = ok and all(r.ok for r in random_results)
    report(3, ok, "walk bijection at length 8 and stage bijection to n=4, corpus plus 100 seeded spans")


def test_criterion_4_zigzag_equivalence(corpus):
    ok = True
    for span in corpus.values():
        tree = WordTree(span, 9)
        for x, word in enumerate(all_reduced_words(span, 8)):
            for s in span.edges_at(word_endpoint(span, word)):
                ok = ok and tree.step(tree.step(x, s), s) == x
        stages = build_stages(span, 5)
        for s in range(len(span.edges)):
            result = zigzag_equivalence(construction_zigzag(stages, s))
            ok = ok and result.ok
    report(4, ok, "bridge composites fix every word to length 8; limit round trips are identities at N=4")


def test_criterion_5_identity_system(corpus):
    ok = True
    bound = 6
    for span in corpus.values():
        families = [trivial_family(span, bound)]
        for s in range(len(span.edges)):
            families.append(parity_family(span, bound, s))
            families.append(winding_family(span, bound, s))
        for fam in families:
            section = elim_section(fam, 0)
            ok = ok and check_computation(fam, 0, section).ok
            ok = ok and uniqueness_check(fam, 0, section).ok
        ok = ok and encode_decode(span, bound).ok
        # negative control: a single flipped value must be detected
        fam = build_family(span, bound, lambda v: (0, 1), lambda s: {0: 0, 1: 1})
        section = elim_section(fam, 0)
        target = len(all_reduced_words(span, bound - 1)) - 1  # node ids are canonical ranks
        corrupted = list(section.values)
        corrupted[target] ^= 1
        bad = Section(fam, corrupted)
        ok = ok and not check_computation(fam, 0, bad).ok
        ok = ok and not uniqueness_check(fam, 0, bad).ok
    report(5, ok, "trivial, parity and winding folds check out at L=6; corruptions are detected")


def test_criterion_6_confluence_and_termination(corpus):
    ok = True
    rng = random.Random(99)
    for span in corpus.values():
        for _ in range(1000):
            raw = checks.random_unreduced_word(span, rng)
            left = reduce_word(span, raw)
            right = reduce_word_rightmost(span, raw)
            ok = ok and left == right and is_reduced(left)
            ok = ok and (len(raw) - len(left)) // 2 <= len(raw) // 2
    report(6, ok, "1000 seeded words per span reduce identically under both strategies")


def test_criterion_7_rank_consistency(corpus):
    expected = {"circle": 1, "interval": 0, "theta": 2, "tree4": 0, "coproduct": 0}
    ok = True
    for name, span in corpus.items():
        graph = realize(span)
        rank = pi1_rank(graph, span.base_vertex)
        component = component_of(graph, span.base_vertex)
        edges_inside = sum(1 for u, _v in graph.edge_ends if u in component)
        ok = ok and rank == edges_inside - len(component) + 1 == expected[name]
        if rank == 0:
            for v in span.vertices():
                words = enumerate_words(span, v, 8)
                reachable = v in component
                ok = ok and len(words) == (1 if reachable else 0)
    report(7, ok, "ranks match |S_c| - |V_c| + 1 (1, 0, 2, 0, 0); rank-0 spans have unique words")
