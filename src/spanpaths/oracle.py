"""Independent ground truth: plain graph traversal on the realized graph.

The walk enumerator and the rank computation work on the realized graph
alone and deliberately share no logic with the word or stage modules; they
are what the rest of the engine is cross-checked against. A walk is
non-backtracking when no edge is immediately retraversed, which for a
bipartite multigraph is exactly the reduced-word condition. The walks from
the basepoint are enumerated once, every endpoint together, and matched item
for item against the reduced words.
"""

from __future__ import annotations

from typing import NamedTuple

from .span import component_of, realize
from .words import all_reduced_words


class Walk(NamedTuple):
    """A walk in the realized graph: one more vertex than edges, incidences matching."""

    vertices: tuple
    edges: tuple


def nbt_walks(graph, start, max_len):
    """Every non-backtracking walk from start of length <= max_len.

    Ordered by (length, lexicographic edge index sequence), so the first is
    the empty walk at start; each walk's endpoint is its last vertex.
    """
    if start not in graph.incidence:
        raise ValueError("unknown vertex %r" % (start,))
    out = frontier = [Walk((start,), ())]
    for _ in range(max_len):
        frontier = [
            Walk(walk.vertices + (other,), walk.edges + (e,))
            for walk in frontier
            for e, other in graph.incidence[walk.vertices[-1]]
            if not walk.edges or e != walk.edges[-1]
        ]
        if not frontier:
            break
        out += frontier
    return out


def pi1_rank(graph, base):
    """Rank of the free fundamental group of base's component: edges - vertices + 1."""
    component = component_of(graph, base)
    edges_inside = sum(1 for u, _v in graph.edge_ends if u in component)
    return edges_inside - len(component) + 1


class WordWalkReport(NamedTuple):
    count: int
    mismatch: str | None

    @property
    def ok(self):
        return self.mismatch is None


def compare_words_walks(span, max_len):
    """Check the step-for-step match between reduced words and walks.

    The i-th of all reduced words and the i-th of all walks from the
    basepoint, each enumerated once in canonical order, must cross the same
    edges in the same order, with the even (forward) steps traversing A to B
    and the odd (backward) steps B to A. Reports the first mismatch instead
    of raising.
    """
    words = all_reduced_words(span, max_len)
    walks = nbt_walks(realize(span), span.base_vertex, max_len)
    if len(words) != len(walks):
        return WordWalkReport(
            len(words), "%d words but %d walks" % (len(words), len(walks))
        )
    for i, (word, walk) in enumerate(zip(words, walks)):
        if len(word) != len(walk.edges):
            return WordWalkReport(len(words), "item %d: lengths differ" % (i,))
        for j, s in enumerate(word):
            if s != walk.edges[j]:
                return WordWalkReport(
                    len(words), "item %d step %d: edges differ" % (i, j)
                )
            src, dst = walk.vertices[j], walk.vertices[j + 1]
            fits = src.side + dst.side == ("AB" if j % 2 == 0 else "BA")
            if not fits or src.index != (span.a_end(s) if src.side == "A" else span.b_end(s)):
                return WordWalkReport(
                    len(words), "item %d step %d: orientation differs" % (i, j)
                )
    return WordWalkReport(len(words), None)
