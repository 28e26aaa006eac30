"""Finite span diagrams: two sorts of vertices bridged by labelled edges.

A span file declares the A-side vertices, the B-side vertices, the bridging
edges, and a basepoint on the A side:

    # a circle: one vertex on each side, two parallel edges
    A a
    B b
    S s a b
    S t a b
    base a

Lines starting with '#' are comments, tokens are whitespace separated, and
labels match [A-Za-z0-9_]+. Declaration order is significant: it is the
canonical order used for all tie-breaking downstream, so parsing followed by
serializing is the identity on valid spans.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple
from typing import NamedTuple

_LABEL = re.compile(r"[A-Za-z0-9_]+\Z")


class SpanError(ValueError):
    """A malformed span file or invalid span datum, with a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Vertex(NamedTuple):
    """A vertex of the realized graph, tagged with its side ("A" or "B")."""

    side: str
    index: int


def record(name, fields):
    """A namedtuple base for a class that validates in its ``__init__``.

    Its ``_make``, and so ``_replace``, goes through the class's constructor,
    so a changed record is validated and gets its derived attributes again.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class FiniteSpan(record("FiniteSpan", "a_vertices b_vertices edges basepoint")):
    """Two finite vertex sorts, a finite edge set bridging them, and a basepoint.

    ``edges[s]`` is ``(label, a_index, b_index)``: edge ``s`` runs from
    ``a_vertices[a_index]`` to ``b_vertices[b_index]``. The basepoint is an
    index into ``a_vertices``. A span is a tuple of these four fields, so it
    compares and hashes by value; the constructor validates them, labels
    included, so every span can be written as a span file and parsed back.
    """

    def __init__(self, a_vertices, b_vertices, edges, basepoint):
        for sort, labels in (("A", a_vertices), ("B", b_vertices)):
            seen = set()
            for lab in labels:
                _check_label(lab)
                if lab in seen:
                    raise SpanError("duplicate %s label %r" % (sort, lab))
                seen.add(lab)
        edge_index = {}
        for s, edge in enumerate(edges):
            if not (isinstance(edge, tuple) and len(edge) == 3):
                raise SpanError("edge %d: %r is not a (label, A index, B index) triple" % (s, edge))
            label, a, b = edge
            _check_label(label)
            if label in edge_index:
                raise SpanError("duplicate edge label %r" % (label,))
            edge_index[label] = s
            _check_index("edge %r: A endpoint" % (label,), a, len(a_vertices))
            _check_index("edge %r: B endpoint" % (label,), b, len(b_vertices))
        _check_index("basepoint", basepoint, len(a_vertices))
        incidence = {v: [] for v in self.vertices()}
        for s, (_label, a, b) in enumerate(edges):
            incidence[Vertex("A", a)].append(s)
            incidence[Vertex("B", b)].append(s)
        self._incidence = {v: tuple(es) for v, es in incidence.items()}
        self._edge_index = edge_index
        # parse_word's step tables: the forward and the backward token of each edge
        self._step_tokens = tuple({c + label: s for label, s in edge_index.items()} for c in "><")

    def a_end(self, s):
        """A-side endpoint index of edge ``s``."""
        return self.edges[s][1]

    def b_end(self, s):
        """B-side endpoint index of edge ``s``."""
        return self.edges[s][2]

    def edge_label(self, s):
        return self.edges[s][0]

    def edge_index(self, label):
        """Index of the edge labelled ``label``, or None when there is none."""
        return self._edge_index.get(label)

    @property
    def base_vertex(self):
        return Vertex("A", self.basepoint)

    def vertex_label(self, v):
        labels = self.a_vertices if v.side == "A" else self.b_vertices
        return labels[v.index]

    def vertices(self):
        """All vertices, A side first, in declaration order."""
        out = [Vertex("A", i) for i in range(len(self.a_vertices))]
        out += [Vertex("B", j) for j in range(len(self.b_vertices))]
        return out

    def edges_at(self, v):
        """Indices of edges incident to ``v``, in declaration order."""
        return self._incidence.get(v, ())

    def lookup_vertex(self, name):
        """Resolve a vertex label to a Vertex.

        An ``A:`` or ``B:`` prefix forces the side; otherwise the label must
        occur in exactly one sort.
        """
        prefix, sides = "", "AB"
        if name[:2] in ("A:", "B:"):
            prefix, sides, name = name[0] + " ", name[0], name[2:]
        hits = [v for v in self.vertices() if v.side in sides and self.vertex_label(v) == name]
        if len(hits) == 1:
            return hits[0]
        if hits:
            raise SpanError("ambiguous vertex %r (use A:%s or B:%s)" % (name, name, name))
        raise SpanError("unknown %svertex %r" % (prefix, name))


def _check_label(tok, lineno=None):
    if not (isinstance(tok, str) and _LABEL.match(tok)):
        raise SpanError("bad label %r" % (tok,), lineno)


def _check_index(what, i, size):
    if not isinstance(i, int) or isinstance(i, bool):
        raise SpanError("%s index %r is not an int" % (what, i))
    if not 0 <= i < size:
        raise SpanError("%s index %d out of range" % (what, i))


def parse_span(text):
    """Parse span-file text into a FiniteSpan.

    Raises SpanError, with the offending line number, for syntax errors,
    duplicate labels, unknown edge endpoints, a duplicated or missing ``base``
    line, or a basepoint that is not an A vertex.
    """
    a_index, b_index = {}, {}  # label -> index, in declaration order
    raw_edges = []
    edge_labels = set()
    base = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        head, rest = tokens[0], tokens[1:]
        if head in ("A", "B"):
            if not rest:
                raise SpanError("expected at least one label after %r" % (head,), lineno)
            index = a_index if head == "A" else b_index
            for tok in rest:
                _check_label(tok, lineno)
                if tok in index:
                    raise SpanError("duplicate %s label %r" % (head, tok), lineno)
                index[tok] = len(index)
        elif head == "S":
            if len(rest) != 3:
                raise SpanError("expected 'S <edge> <A-vertex> <B-vertex>'", lineno)
            for tok in rest:
                _check_label(tok, lineno)
            if rest[0] in edge_labels:
                raise SpanError("duplicate edge label %r" % (rest[0],), lineno)
            edge_labels.add(rest[0])
            raw_edges.append((lineno, rest[0], rest[1], rest[2]))
        elif head == "base":
            if len(rest) != 1:
                raise SpanError("expected 'base <A-vertex>'", lineno)
            _check_label(rest[0], lineno)
            if base is not None:
                raise SpanError("duplicate base line", lineno)
            base = (rest[0], lineno)
        else:
            raise SpanError("unknown directive %r" % (head,), lineno)
    edges = []
    for lineno, label, a_lab, b_lab in raw_edges:
        if a_lab not in a_index:
            raise SpanError("unknown A endpoint %r" % (a_lab,), lineno)
        if b_lab not in b_index:
            raise SpanError("unknown B endpoint %r" % (b_lab,), lineno)
        edges.append((label, a_index[a_lab], b_index[b_lab]))
    if base is None:
        raise SpanError("missing basepoint ('base <A-vertex>' line)")
    base_label, base_line = base
    if base_label not in a_index:
        raise SpanError("basepoint %r not in A" % (base_label,), base_line)
    return FiniteSpan(tuple(a_index), tuple(b_index), tuple(edges), a_index[base_label])


def serialize_span(span):
    """Render a FiniteSpan back into span-file text; inverse of parse_span."""
    lines = ["A " + " ".join(span.a_vertices)]
    if span.b_vertices:
        lines.append("B " + " ".join(span.b_vertices))
    for label, a, b in span.edges:
        lines.append("S %s %s %s" % (label, span.a_vertices[a], span.b_vertices[b]))
    lines.append("base " + span.a_vertices[span.basepoint])
    return "\n".join(lines) + "\n"


class RealizedGraph(NamedTuple):
    """The span's geometric realization: vertices A + B, one edge per span edge.

    Bipartite between the two sides. ``incidence[v]`` lists ``(edge, other
    endpoint)`` pairs in edge declaration order.
    """

    vertices: tuple
    edge_ends: tuple
    incidence: dict


def realize(span):
    """Build the RealizedGraph of a span: |V| = |A| + |B|, |E| = |S|."""
    vertices = tuple(span.vertices())
    na = len(span.a_vertices)
    # the ends are the vertices' own objects, so a lookup by an end finds its key by identity
    edge_ends = tuple((vertices[a], vertices[na + b]) for _label, a, b in span.edges)
    incidence = {
        v: tuple((s, edge_ends[s][v.side == "A"]) for s in span.edges_at(v)) for v in vertices
    }
    return RealizedGraph(vertices, edge_ends, incidence)


def component_of(graph, v):
    """The set of vertices in ``v``'s connected component, found breadth first."""
    if v not in graph.incidence:
        raise ValueError("unknown vertex %r" % (v,))
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for _e, w in graph.incidence[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen
