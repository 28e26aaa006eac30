import ast
import inspect
import random
import re

import pytest

from spanpaths import checks, oracle, stages
from spanpaths.oracle import Walk, compare_words_walks, nbt_walks, pi1_rank
from spanpaths.span import Vertex, parse_span, realize


def exact_length_counts(graph, start, max_len):
    counts = [0] * (max_len + 1)
    for walk in nbt_walks(graph, start, max_len):
        counts[len(walk.edges)] += 1
    return counts


def walks_to(span, end, max_len):
    # the walks from the basepoint that end at end, in enumeration order
    walks = nbt_walks(realize(span), span.base_vertex, max_len)
    return [walk for walk in walks if walk.vertices[-1] == end]


def test_walks_circle(circle):
    walks = walks_to(circle, Vertex("A", 0), 4)
    assert len(walks) == 5
    assert walks[0] == Walk((Vertex("A", 0),), ())


def test_walks_interval(interval):
    walks = walks_to(interval, Vertex("A", 0), 10)
    assert len(walks) == 1
    assert walks[0].edges == ()


def test_walks_theta(theta):
    walks = walks_to(theta, Vertex("B", 0), 3)
    assert len(walks) == 15  # 3 single crossings, 3*2*2 triple crossings


def test_walks_are_ordered_and_valid(theta):
    graph = realize(theta)
    walks = walks_to(theta, Vertex("B", 0), 5)
    keys = [(len(w.edges), w.edges) for w in walks]
    assert keys == sorted(keys)
    for walk in walks:
        assert len(walk.vertices) == len(walk.edges) + 1
        for j, e in enumerate(walk.edges):
            ends = set(graph.edge_ends[e])
            assert {walk.vertices[j], walk.vertices[j + 1]} == ends
            if j:
                assert walk.edges[j] != walk.edges[j - 1]


def test_walks_unknown_vertex(circle):
    with pytest.raises(ValueError, match="unknown vertex"):
        nbt_walks(realize(circle), Vertex("A", 9), 2)


@pytest.mark.parametrize(
    "name, rank", [("circle", 1), ("interval", 0), ("theta", 2), ("tree4", 0), ("coproduct", 0)]
)
def test_pi1_ranks(corpus, name, rank):
    span = corpus[name]
    assert pi1_rank(realize(span), span.base_vertex) == rank


def test_regular_degree_recurrence(circle, theta):
    # on d-regular multigraphs each walk extends in exactly d - 1 ways
    for span, degree in ((circle, 2), (theta, 3)):
        counts = exact_length_counts(realize(span), span.base_vertex, 6)
        for k in range(1, 6):
            assert counts[k + 1] == counts[k] * (degree - 1)


def test_compare_words_walks_circle(circle):
    report = compare_words_walks(circle, 6)
    assert report.ok
    assert len(walks_to(circle, Vertex("A", 0), 6)) == 7
    assert report.count == 7 + 6  # refl and 2 per even length to a; 2 per odd length to b


def test_compare_words_walks_disconnected(coproduct):
    report = compare_words_walks(coproduct, 8)
    assert report.ok
    assert len(walks_to(coproduct, Vertex("A", 1), 8)) == 0
    assert report.count == 1  # refl


def test_compare_words_walks_theta(theta):
    report = compare_words_walks(theta, 5)
    assert report.ok
    assert len(walks_to(theta, Vertex("B", 0), 5)) == 63  # 3 + 12 + 48 crossing sequences
    assert report.count == 63 + 31  # and 1 + 6 + 24 back to a


def test_compare_words_walks_full_corpus(corpus):
    for span in corpus.values():
        assert compare_words_walks(span, 8).ok


def test_random_span_failure_carries_the_span_text(monkeypatch):
    monkeypatch.setattr(checks, "SUITE_SPANS", 3)
    (row,) = checks.random_span_suite(seed=5)
    assert row.ok and row.details == "3 spans"

    compare = oracle.compare_words_walks
    calls = []

    def fail_second(span, max_len):
        calls.append(span)
        if len(calls) == 2:
            return oracle.WordWalkReport(0, "forced")
        return compare(span, max_len)

    monkeypatch.setattr(oracle, "compare_words_walks", fail_second)
    (row,) = checks.random_span_suite(seed=5)
    assert not row.ok
    match = re.fullmatch(r"span 1: forced \(span ('.*')\)", row.details)
    assert match, row.details
    rng = random.Random(5)
    drawn = [checks.random_span(rng) for _ in range(3)]
    assert parse_span(ast.literal_eval(match.group(1))) == drawn[1] == calls[1]


def sibling_imports(module):
    """(module, name, bound name) per name a spanpaths module imports from another.

    ``name`` is None when the import binds the sibling module itself.
    """
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            for alias in node.names:
                bound = alias.asname or alias.name
                if package in (".", "spanpaths"):
                    found.add((alias.name, None, bound))
                elif package.startswith((".", "spanpaths.")):
                    found.add((package.split(".")[-1], alias.name, bound))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("spanpaths."):
                    found.add((alias.name.split(".")[-1], None, alias.asname or alias.name))
    return found


def test_the_oracle_and_the_pushouts_stay_independent_of_the_word_model():
    # the walks and the stage pushouts are what the words are checked against:
    # the oracle takes only the words it compares, the pushouts read no word
    from_oracle = sibling_imports(oracle)
    assert {(m, n) for m, n, _ in from_oracle if m == "words"} == {("words", "all_reduced_words")}
    assert not {m for m, _, _ in from_oracle} & {"stages", "idsys", "seqcolim", "checks"}
    from_stages = sibling_imports(stages)
    word_names = {bound for m, _, bound in from_stages if m == "words"}
    functions = {
        node.name: node
        for node in ast.parse(inspect.getsource(stages)).body
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("build_stages", "_glue_side", "pushout_pi0", "_offsets"):
        named = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert not named & word_names, name
    for imports in (from_oracle, from_stages):
        assert "count_words" not in {n for _, n, _ in imports}
