import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spanpaths.span import (
    FiniteSpan,
    SpanError,
    Vertex,
    component_of,
    parse_span,
    realize,
    serialize_span,
)

from spanpaths.idsys import elim_section, trivial_family
from spanpaths.seqcolim import FinSeqDiagram, SeqMorphism, SeqZigzag

from conftest import CORPUS_TEXT

SPAN_DIR = Path(__file__).resolve().parent.parent / "spans"


def test_parse_circle(circle):
    assert circle.a_vertices == ("a",)
    assert circle.b_vertices == ("b",)
    assert circle.edges == (("s", 0, 0), ("t", 0, 0))
    assert circle.basepoint == 0


def test_parse_interval(interval):
    assert len(interval.edges) == 1
    assert interval.a_end(0) == 0 and interval.b_end(0) == 0


def test_parse_preserves_declaration_order():
    span = parse_span("A x y z\nB p q\nS e2 y q\nS e1 x p\nbase y\n")
    assert span.a_vertices == ("x", "y", "z")
    assert [e[0] for e in span.edges] == ["e2", "e1"]
    assert span.basepoint == 1


def test_basepoint_not_in_a():
    with pytest.raises(SpanError, match="basepoint 'q' not in A") as err:
        parse_span("A a\nB b\nS s a b\nbase q\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text, message",
    [
        ("A a a\nB b\nbase a\n", "duplicate A label"),
        ("A a\nB b\nS s a c\nbase a\n", "unknown B endpoint"),
        ("A a\nB b\nS s c b\nbase a\n", "unknown A endpoint"),
        ("A a\nB b\n", "missing basepoint"),
        ("A a\nB b\nbase a\nbase a\n", "duplicate base"),
        ("A a\nB b\nS s a\nbase a\n", "expected 'S"),
        ("A a\nB b\nQ s a b\nbase a\n", "unknown directive"),
        ("A a!\nB b\nbase a\n", "bad label"),
        ("A a\nB b\nS s a b\nS s a b\nbase a\n", "duplicate edge label"),
        ("A\nB b\nbase a\n", "expected at least one label"),
        ("A a\nB b\nbase\n", "expected 'base <A-vertex>'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(SpanError, match=message):
        parse_span(text)


def test_error_carries_line_number():
    with pytest.raises(SpanError) as err:
        parse_span("A a\nB b\n# fine\nS s a nope\nbase a\n")
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_roundtrip_corpus(corpus):
    for span in corpus.values():
        assert parse_span(serialize_span(span)) == span


# the span syntax's alphabet, and lines of it between an A line and a base line,
# which parse often enough that the round trip runs
SYNTAX_ALPHABET = "ABSabest_0# \t\r\n"
SYNTAX_LINES = ["A b", "B b", "B a c", "S s a b", "S t a c", "S s c b", "base a", "# S", "", "S s a"]


def check_parse_span_on_texts(texts, max_examples):
    # every text parses or raises SpanError, and one that parses round-trips;
    # returns how many parsed
    hypothesis = pytest.importorskip("hypothesis")
    parsed = []

    @hypothesis.settings(max_examples=max_examples, deadline=None)
    @hypothesis.given(texts)
    def check(text):
        try:
            span = parse_span(text)
        except SpanError:
            return
        parsed.append(text)
        assert parse_span(serialize_span(span)) == span

    check()
    return len(parsed)


def test_parse_span_on_arbitrary_text_raises_only_span_error():
    st = pytest.importorskip("hypothesis.strategies")
    check_parse_span_on_texts(st.text(max_size=80), max_examples=300)


def test_parse_span_on_syntax_alphabet_text_raises_only_span_error():
    st = pytest.importorskip("hypothesis.strategies")
    lines = st.lists(st.sampled_from(SYNTAX_LINES), max_size=5)
    texts = st.text(SYNTAX_ALPHABET, max_size=60) | lines.map(
        lambda middle: "\n".join(["A a c", *middle, "base c"])  # at most 53 characters
    )
    assert check_parse_span_on_texts(texts, max_examples=300) > 0  # so the round trip ran


def test_shipped_files_match_fixture_corpus(corpus):
    for name, span in corpus.items():
        shipped = parse_span((SPAN_DIR / ("%s.span" % name)).read_text())
        assert shipped == span, name


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nA a\n  # indented comment\nB b\nS s a b\nbase a\n"
    assert parse_span(text) == parse_span(CORPUS_TEXT["interval"])


def test_realize_circle(circle):
    graph = realize(circle)
    assert len(graph.vertices) == 2
    assert len(graph.edge_ends) == 2
    assert graph.edge_ends[0] == (Vertex("A", 0), Vertex("B", 0))


def test_realize_coproduct_is_isolated(coproduct):
    graph = realize(coproduct)
    assert len(graph.vertices) == 3
    assert len(graph.edge_ends) == 0
    assert all(graph.incidence[v] == () for v in graph.vertices)


def test_realize_theta(theta):
    graph = realize(theta)
    assert len(graph.vertices) == 2
    assert len(graph.edge_ends) == 3


def test_realize_preserves_cardinalities(corpus):
    for span in corpus.values():
        graph = realize(span)
        assert len(graph.vertices) == len(span.a_vertices) + len(span.b_vertices)
        assert len(graph.edge_ends) == len(span.edges)


def test_component_circle(circle):
    comp = component_of(realize(circle), Vertex("A", 0))
    assert comp == {Vertex("A", 0), Vertex("B", 0)}


def test_component_isolated(coproduct):
    comp = component_of(realize(coproduct), coproduct.base_vertex)
    assert comp == {Vertex("A", 0)}


def test_component_interval_from_b(interval):
    comp = component_of(realize(interval), Vertex("B", 0))
    assert comp == {Vertex("A", 0), Vertex("B", 0)}


def test_unknown_vertex_rejected(circle):
    with pytest.raises(ValueError, match="unknown vertex"):
        component_of(realize(circle), Vertex("A", 5))


def test_lookup_vertex():
    span = parse_span("A x shared\nB y shared\nS s x y\nbase x\n")
    assert span.lookup_vertex("x") == Vertex("A", 0)
    assert span.lookup_vertex("y") == Vertex("B", 0)
    assert span.lookup_vertex("A:shared") == Vertex("A", 1)
    assert span.lookup_vertex("B:shared") == Vertex("B", 1)
    errors = {
        "shared": "ambiguous vertex 'shared' (use A:shared or B:shared)",
        "nope": "unknown vertex 'nope'",
        "A:y": "unknown A vertex 'y'",
        "B:x": "unknown B vertex 'x'",
    }
    for name, message in errors.items():
        with pytest.raises(SpanError) as caught:
            span.lookup_vertex(name)
        assert str(caught.value) == message


def test_constructor_validates_directly():
    cases = [
        ((("a",), ("b",), (("s", 0, 1),), 0), "out of range"),
        ((("a",), ("b",), (), 3), "basepoint"),
        # labels a span file cannot carry: serialize_span would write text
        # that parse_span rejects
        ((("a b",), ("b",), (), 0), "bad label 'a b'"),
        ((("a",), ("b-1",), (), 0), "bad label 'b-1'"),
        ((("a",), ("b",), (("s t", 0, 0), ("u", 0, 0)), 0), "bad label 's t'"),
        ((("",), ("b",), (), 0), "bad label ''"),
        (((1,), ("b",), (), 0), "bad label 1"),
        # edges are (label, A index, B index) triples, and indices are ints
        ((("a",), ("b",), (("s", 0, 0, 9),), 0), r"edge 0: .* is not a \(label, A index, B index\) triple"),
        ((("a",), ("b",), (("s", 0),), 0), "edge 0: .* triple"),
        ((("a",), ("b",), ("s",), 0), "edge 0: 's' is not a"),
        ((("a",), ("b",), (), "0"), "basepoint index '0' is not an int"),
        ((("a",), ("b",), (), False), "basepoint index False is not an int"),
        ((("a",), ("b",), (("s", 0.0, 0),), 0), "edge 's': A endpoint index 0.0 is not an int"),
        ((("a",), ("b",), (("s", 0, True),), 0), "edge 's': B endpoint index True is not an int"),
        # the constructor's own duplicate checks, for spans built without parse_span
        ((("a", "a"), ("b",), (), 0), "duplicate A label 'a'"),
        ((("a",), ("b",), (("s", 0, 0), ("s", 0, 0)), 0), "duplicate edge label 's'"),
    ]
    for fields, message in cases:
        with pytest.raises(SpanError, match=message):
            FiniteSpan(*fields)


def _validating_records():
    # type name -> (a valid record, a field change its constructor rejects, the message)
    theta = parse_span(CORPUS_TEXT["theta"])
    diagram = FinSeqDiagram((1, 2), ((0,),))
    family = trivial_family(theta, 2)
    return {
        "FiniteSpan": (theta, {"basepoint": 5}, "basepoint index 5 out of range"),
        "FinSeqDiagram": (diagram, {"maps": ()}, "one connecting map"),
        "SeqMorphism": (
            SeqMorphism(diagram, diagram, ((0,), (0, 1))),
            {"levels": ((0,), (1, 0))},
            "square condition",
        ),
        "SeqZigzag": (
            SeqZigzag(diagram, diagram, ((0,), (0, 1)), ((0,),)), {"bwd": ((1,),)}, "left triangle"
        ),
        "DescentFamily": (family, {"fibers": {}}, "fiber table has no fiber over a"),
        "Section": (elim_section(family, 0), {"values": []}, "one value per word"),
    }


@pytest.mark.parametrize(
    "name", ["FiniteSpan", "FinSeqDiagram", "SeqMorphism", "SeqZigzag", "DescentFamily", "Section"]
)
def test_replace_and_make_validate_like_the_constructor(name):
    record, bad, message = _validating_records()[name]
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **bad}.values())
    # a valid change is rebuilt by the constructor, derived attributes
    # (a span's _incidence, a family's tree) included
    for copy in (record._replace(), type(record)._make(record)):
        assert type(copy) is type(record) and copy == record
        assert vars(copy) == vars(record)
    if name == "FiniteSpan":
        moved = record._replace(a_vertices=("z",))
        assert moved.edges_at(Vertex("A", 0)) == (0, 1, 2)
        assert moved.lookup_vertex("z") == Vertex("A", 0)


def test_spans_compare_and_hash_by_value(circle):
    # the tracer keys sets of spans, so equal spans must be one key
    text = serialize_span(circle)
    assert {parse_span(text), parse_span(text)} == {circle}


def test_importing_the_package_leaves_dataclasses_unimported():
    modules = ["span", "words", "stages", "seqcolim", "idsys", "oracle", "checks", "cli"]
    code = "import sys\n%s\nprint('dataclasses' in sys.modules)" % "\n".join(
        "import spanpaths.%s" % name for name in modules
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_library_imports_only_the_stdlib():
    # the library runs on a bare interpreter: every absolute import is a stdlib module
    src = Path(__file__).resolve().parent.parent / "src" / "spanpaths"
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "argparse" in imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
