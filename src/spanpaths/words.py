"""Alternating crossing words based at the span's basepoint.

A word records a walk in the realized graph starting at the basepoint: a
forward step crosses an edge from its A end to its B end, a backward step
crosses it the other way. Words are plain tuples of Step; the empty tuple is
the constant word at the basepoint, written ``refl``. Directions necessarily
alternate (the graph is bipartite) and a word's endpoint side is determined
by its length parity: even lands on the A side, odd on the B side.

A word is *reduced* when no step immediately undoes the previous one, i.e.
adjacent steps never cross the same edge. Reduced words are the normal forms
for based paths in the realized graph, and they are what the staged pushout
construction's colimit classes are matched against.

Text syntax: ``refl``, or a whitespace separated list like ``>s <t >s``
(``>`` forward, ``<`` backward, followed by the edge label).
"""

from __future__ import annotations

from typing import NamedTuple

from .span import Vertex

FWD = 0
BWD = 1


class Step(NamedTuple):
    direction: int  # FWD or BWD
    edge: int


class WordError(ValueError):
    """A structurally invalid word, or a concatenation endpoint mismatch."""


def validate_word(span, word):
    """Check alternation, basepoint anchoring and endpoint matching.

    Reducedness is not required; this is the precondition shared by reduce
    and the parser. Raises WordError pointing at the first bad step.
    """
    at = span.base_vertex
    for i, step in enumerate(word):
        expected = FWD if i % 2 == 0 else BWD
        if step.direction != expected:
            raise WordError("step %d: directions must alternate starting forward" % (i,))
        if not 0 <= step.edge < len(span.edges):
            raise WordError("step %d: edge index %d out of range" % (i, step.edge))
        label = span.edge_label(step.edge)
        if step.direction == FWD:
            if at != Vertex("A", span.a_end(step.edge)):
                raise WordError(
                    "step %d: edge %r does not start at %s"
                    % (i, label, span.vertex_label(at))
                )
            at = Vertex("B", span.b_end(step.edge))
        else:
            if at != Vertex("B", span.b_end(step.edge)):
                raise WordError(
                    "step %d: edge %r does not end at %s"
                    % (i, label, span.vertex_label(at))
                )
            at = Vertex("A", span.a_end(step.edge))


def is_reduced(word):
    """True when no two adjacent steps cross the same edge."""
    return all(word[i].edge != word[i + 1].edge for i in range(len(word) - 1))


def word_endpoint(span, word):
    """Far endpoint of the word: the basepoint for refl, else the last step's target."""
    if not word:
        return span.base_vertex
    last = word[-1]
    if last.direction == FWD:
        return Vertex("B", span.b_end(last.edge))
    return Vertex("A", span.a_end(last.edge))


def reduce_word(span, word):
    """Normal form of a possibly backtracking word.

    Deletes adjacent inverse pairs until none remain; the result is the
    unique reduced word with the same endpoint. Raises WordError on words
    violating alternation or endpoint matching.
    """
    validate_word(span, word)
    out = []
    for step in word:
        if out and out[-1].edge == step.edge and out[-1].direction != step.direction:
            out.pop()
        else:
            out.append(step)
    return tuple(out)


def reduce_word_rightmost(span, word):
    """Normal form computed by repeatedly deleting the rightmost inverse pair.

    A deliberately different strategy from reduce_word, kept for the
    confluence check; both must agree on every input.
    """
    validate_word(span, word)
    steps = list(word)
    while True:
        for i in range(len(steps) - 2, -1, -1):
            if steps[i].edge == steps[i + 1].edge and steps[i].direction != steps[i + 1].direction:
                del steps[i : i + 2]
                break
        else:
            break
    return tuple(steps)


def concat_fwd(span, word, s):
    """Append a forward crossing of edge ``s`` to a reduced word and renormalize.

    The word must end at the edge's A end. Appending either cancels a final
    backward crossing of the same edge or extends the word by one step, so
    the length changes by exactly one.
    """
    if word_endpoint(span, word) != Vertex("A", span.a_end(s)):
        raise WordError(
            "word ends at %s, not at the A end of edge %r"
            % (span.vertex_label(word_endpoint(span, word)), span.edge_label(s))
        )
    if word and word[-1] == Step(BWD, s):
        return word[:-1]
    return word + (Step(FWD, s),)


def concat_bwd(span, word, s):
    """Append a backward crossing of edge ``s``; dual to concat_fwd."""
    if word_endpoint(span, word) != Vertex("B", span.b_end(s)):
        raise WordError(
            "word ends at %s, not at the B end of edge %r"
            % (span.vertex_label(word_endpoint(span, word)), span.edge_label(s))
        )
    if word and word[-1] == Step(FWD, s):
        return word[:-1]
    return word + (Step(BWD, s),)


def _extensions(span, word):
    # reduced one-step extensions in canonical order (edge declaration order)
    at = word_endpoint(span, word)
    last = word[-1].edge if word else None
    direction = FWD if at.side == "A" else BWD
    return [Step(direction, s) for s in span.edges_at(at) if s != last]


def all_reduced_words(span, max_len):
    """All reduced words of length <= max_len, any endpoint, canonical order.

    Canonical order is (length, lexicographic step sequence under edge
    declaration order). A negative bound yields the empty list.
    """
    if max_len < 0:
        return []
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for step in _extensions(span, word):
                nxt.append(word + (step,))
        frontier = nxt
        words.extend(frontier)
        if not frontier:
            break
    return words


def enumerate_words(span, endpoint, max_len):
    """Reduced words from the basepoint to ``endpoint`` of length <= max_len.

    Ordered canonically, without duplicates. Raises WordError for an unknown
    endpoint.
    """
    labels = span.a_vertices if endpoint.side == "A" else span.b_vertices
    if endpoint.side not in ("A", "B") or not 0 <= endpoint.index < len(labels):
        raise WordError("unknown endpoint %r" % (endpoint,))
    return [w for w in all_reduced_words(span, max_len) if word_endpoint(span, w) == endpoint]


def parse_word(span, text):
    """Parse word syntax (``refl`` or e.g. ``>s <t >s``) into a step tuple.

    Accepts unreduced words; alternation and endpoint matching are enforced.
    """
    tokens = text.split()
    if not tokens:
        raise WordError("empty word text (use 'refl')")
    if tokens == ["refl"]:
        return ()
    edge_index = {label: s for s, (label, _, _) in enumerate(span.edges)}
    steps = []
    for tok in tokens:
        if len(tok) < 2 or tok[0] not in "><":
            raise WordError("bad step token %r (expected >edge or <edge)" % (tok,))
        label = tok[1:]
        if label not in edge_index:
            raise WordError("unknown edge label %r" % (label,))
        steps.append(Step(FWD if tok[0] == ">" else BWD, edge_index[label]))
    word = tuple(steps)
    validate_word(span, word)
    return word


def format_word(span, word):
    """Render a word in the text syntax; inverse of parse_word."""
    if not word:
        return "refl"
    return " ".join(
        (">" if step.direction == FWD else "<") + span.edge_label(step.edge) for step in word
    )
