"""Alternating crossing words based at the span's basepoint.

A word records a walk in the realized graph starting at the basepoint, as
the plain tuple of the edge indices it crosses; the empty tuple is the
constant word at the basepoint, written ``refl``. The graph is bipartite, so
a step's position fixes which way it crosses: step i crosses its edge from
the A end to the B end (forward) when i is even, and back when i is odd. A
word's endpoint side is its length parity: even lands on the A side, odd on
the B side.

A word is *reduced* when no step immediately undoes the previous one, i.e.
adjacent steps never cross the same edge. Reduced words are the normal forms
for based paths in the realized graph, and they are what the staged pushout
construction's colimit classes are matched against. Consumers that walk many
words use a WordTree, which stores the reduced words within a bound as
integer nodes in canonical order; edge tuples are what parse, reduce and
format use. ``count_words`` counts them per last edge, building none: the
words whose next step crosses edge s are those at s's near end less those
whose last step was s. The random-span screen and words.window-monotone read it.

Text syntax: ``refl``, or a whitespace separated list like ``>s <t >s``
(``>`` forward, ``<`` backward, followed by the edge label).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import add, ne

from .span import Vertex


class WordError(ValueError):
    """A structurally invalid word, or an unknown endpoint."""


def validate_word(span, word):
    """Check edge ranges, basepoint anchoring and endpoint matching.

    Reducedness is not required; this is the precondition shared by reduce
    and the parser. Raises WordError pointing at the first bad step.
    """
    at = span.basepoint  # index of the current vertex; its side alternates from A
    for i, s in enumerate(word):
        forward = i % 2 == 0
        if not 0 <= s < len(span.edges):
            raise WordError("step %d: edge index %d out of range" % (i, s))
        label, a, b = span.edges[s]
        if (a if forward else b) != at:
            raise WordError(
                "step %d: edge %r does not %s at %s"
                % (i, label, "start" if forward else "end",
                   span.vertex_label(Vertex("A" if forward else "B", at)))
            )
        at = b if forward else a


def is_reduced(word):
    """True when no two adjacent steps cross the same edge."""
    return all(map(ne, word, word[1:]))


def word_endpoint(span, word):
    """Far endpoint of the word: the basepoint for refl, else the last step's target."""
    if not word:
        return span.base_vertex
    if len(word) % 2:  # the last step was forward
        return Vertex("B", span.b_end(word[-1]))
    return Vertex("A", span.a_end(word[-1]))


def _cancel_pairs(word):
    # delete adjacent inverse pairs (one edge crossed twice) left to right with a stack
    out = []
    for s in word:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _cancel_rightmost(word):
    # delete the rightmost adjacent inverse pair until none remains, in one
    # right-to-left pass: the stack holds the reduced rest of the word, so the
    # step read next meets the rightmost pair's left end, and the pairs go in
    # the order a rescan for the rightmost pair would delete them
    out = []
    for s in reversed(word):
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(reversed(out))


def reduce_word(span, word):
    """Normal form of a possibly backtracking word.

    Deletes adjacent inverse pairs until none remain; the result is the
    unique reduced word with the same endpoint. Raises WordError on words
    with an edge out of range or a step off the previous step's endpoint.
    """
    validate_word(span, word)
    return _cancel_pairs(word)


def reduce_word_rightmost(span, word):
    """Normal form computed by repeatedly deleting the rightmost inverse pair.

    A deliberately different strategy from reduce_word, kept for the
    confluence check; both must agree on every input.
    """
    validate_word(span, word)
    return _cancel_rightmost(word)


class WordTree:
    """The reduced words of length <= ``bound`` as integer nodes.

    These words are the radius-``bound`` ball of the universal cover of the
    realized graph around the basepoint (Serre, *Trees*, I.2). Nodes are
    built breadth first with children in edge order, so a node's id is its
    word's canonical rank, and the nodes of depth <= L are exactly the ids
    ``0..size(L) - 1`` for every L <= bound. Node 0 is refl. ``parent``,
    ``last_edge`` (the edge of the last step, -1 at refl), ``end`` (the
    endpoint Vertex) and ``depth`` (the length) are lists indexed by id;
    ``at[v]`` lists the ids of the words ending at v in canonical order.
    ``across[s][x]``, edge s's neighbour column, is ``step(x, s)``; the
    columns are built on first use, at the tree's full size.
    """

    def __init__(self, span, bound):
        ne = len(span.edges)
        to_b = [Vertex("B", span.b_end(s)) for s in range(ne)]
        to_a = [Vertex("A", span.a_end(s)) for s in range(ne)]
        # onward[d % 2][e]: the last edges of the depth-d children of a node whose last edge is e,
        # the edges at e's far end other than e; refl's, the base vertex's edges, is onward[1][-1]
        onward = [[[t for t in span.edges_at(v) if t != s] for s, v in enumerate(ends)]
                  for ends in (to_b, to_a)]
        onward[1].append(span.edges_at(span.base_vertex))
        self.span, self.bound = span, bound
        self.parent = parent = [-1]
        self.last_edge = last = [-1]
        self.end = end = [span.base_vertex]
        self.depth = depth = [0]
        start = 0
        for d in range(1, bound + 1):
            stop = len(parent)
            parents, edges, row = [], [], onward[d % 2]
            for x, e in zip(range(start, stop), last[start:stop]):
                for s in row[e]:
                    parents.append(x)
                    edges.append(s)
            if not parents:  # the ball stopped growing: the component is a tree
                break
            far = to_b if d % 2 else to_a  # odd depths end on the B side
            parent += parents
            last += edges
            end += map(far.__getitem__, edges)
            depth += [d] * len(parents)
            start = stop
        self.at = at = {v: [] for v in span.vertices()}
        for x, v in enumerate(end):
            at[v].append(x)

    @cached_property
    def across(self):
        """The neighbour columns, built on first use: ``across[s][x]`` is ``step(x, s)``.

        Each node x >= 1 and its parent are each other's neighbour across
        x's last edge; every other entry is None.
        """
        n = len(self.parent)
        across = [[None] * n for _ in self.span.edges]
        for x, p, s in zip(range(1, n), self.parent[1:], self.last_edge[1:]):
            column = across[s]
            column[x] = p
            column[p] = x
        return across

    @cached_property
    def links(self):
        """The link columns, built on first use: ``(a_ends, b_ends)``, node x's link at x - 1.

        The link is ``(parent[x], x)`` at odd depth (x ends on the B side), else ``(x, parent[x])``.
        """
        a_ends, b_ends, hi = [], [], 1
        for d in range(1, self.depth[-1] + 1):
            lo, hi = hi, self.size(d)
            ends = self.parent[lo:hi], range(lo, hi)
            a_ends += ends[d % 2 == 0]
            b_ends += ends[d % 2]
        return a_ends, b_ends

    def reached(self, size):
        """The vertices the nodes below ``size`` end at, in declaration order."""
        return [v for v, ids in self.at.items() if ids and ids[0] < size]

    def size(self, bound):
        """Number of nodes of depth <= ``bound``, for any bound up to the tree's own."""
        return bisect_right(self.depth, bound)

    def step(self, node, s):
        """The node reached by crossing edge ``s`` from ``node``'s endpoint.

        The parent when the node's last step crossed s (cancellation), else
        the child across s; None when that child lies beyond the bound or s
        is not at the endpoint.
        """
        return self.across[s][node]

    def nodes_at(self, vertex, bound):
        """Ids of the words to ``vertex`` of length <= ``bound``, in canonical order."""
        ids = self.at[vertex]
        return ids[: bisect_left(ids, self.size(bound))]

    def word(self, node):
        """Decode a node id to its tuple word: the last edges up the parent chain."""
        parent, last = self.parent, self.last_edge
        out = []
        while node > 0:
            out.append(last[node])
            node = parent[node]
        return tuple(reversed(out))

    def text(self, node):
        """Render a node in the text syntax."""
        return format_word(self.span, self.word(node))

    def _decode(self, refl, tokens, bound):
        """Every node of depth <= ``bound`` decoded, as a list indexed by node id.

        A node decodes to its parent's decoding plus ``tokens(d)[s]``, s its
        last edge and d its depth, and refl to ``refl``: one ``map(add, ...)``
        per level over its slices of ``parent`` and ``last_edge``.
        """
        parent, last = self.parent, self.last_edge
        out = [refl][: self.size(bound)]
        for d in range(1, min(bound, self.depth[-1]) + 1):
            level = slice(self.size(d - 1), self.size(d))
            out += map(add, map(out.__getitem__, parent[level]), map(tokens(d).__getitem__, last[level]))
        return out

    def texts(self):
        """Every node's text, as a list indexed by node id: ``texts()[x] == text(x)``.

        Decoded level by level, this beats ``text`` once a caller renders
        more than a small share of the tree.
        """
        plain = [[c + label for label, _a, _b in self.span.edges] for c in "<>"]  # by depth parity
        spaced = [[" " + token for token in row] for row in plain]
        out = self._decode("", lambda d: (plain if d == 1 else spaced)[d % 2], self.depth[-1])
        out[0] = format_word(self.span, ())  # refl's text is "refl" only on its own; as a prefix it is empty
        return out


_last_tree = None  # a weak reference to the last tree built


def word_tree(span, bound):
    """A WordTree of ``span`` whose bound is at least ``bound``.

    The last tree built is found again (for its span object and any bound up
    to its own) while a caller holds it, so callees share their caller's tree
    (run_all holds one for all its suites) and no tree outlives its users.
    """
    global _last_tree
    tree = _last_tree() if _last_tree else None
    if tree is None or tree.span is not span or tree.bound < bound:
        tree = WordTree(span, max(bound, 0))
        _last_tree = weakref.ref(tree)
    return tree


def all_reduced_words(span, max_len):
    """All reduced words of length <= max_len, any endpoint, canonical order.

    Canonical order is (length, lexicographic step sequence under edge
    declaration order). A negative bound yields the empty list.
    """
    steps = [(s,) for s in range(len(span.edges))]
    return word_tree(span, max_len)._decode((), lambda d: steps, max_len)


def enumerate_words(span, endpoint, max_len):
    """Reduced words from the basepoint to ``endpoint`` of length <= max_len.

    Ordered canonically, without duplicates. Raises WordError for an unknown
    endpoint.
    """
    if endpoint not in span.vertices():
        raise WordError("unknown endpoint %r" % (endpoint,))
    tree = word_tree(span, max_len)
    return [tree.word(x) for x in tree.nodes_at(endpoint, max_len)]


def count_words(span, max_len):
    """``counts[L][v]``: the reduced words of length L ending at v, for L <= max_len.

    Counted per last edge on the non-backtracking edge matrix (Hashimoto, 1989);
    unreached vertices are left out, and a negative bound yields [].
    """
    ends = ([a for _, a, _ in span.edges], [b for _, _, b in span.edges])
    words = [int(a == span.basepoint) for a in range(len(span.a_vertices))]
    last = [0] * len(span.edges)
    counts = [{span.base_vertex: 1}] if max_len >= 0 else []
    for length in range(1, max_len + 1):
        side = length % 2  # odd lengths step from A to B
        last = [words[v] - c for v, c in zip(ends[1 - side], last)]
        words = [0] * len(span.b_vertices if side else span.a_vertices)
        for v, c in zip(ends[side], last):
            words[v] += c
        counts.append({Vertex("AB"[side], v): c for v, c in enumerate(words) if c})
    return counts


def parse_word(span, text):
    """Parse word syntax (``refl`` or e.g. ``>s <t >s``) into an edge tuple.

    Accepts unreduced words; alternation (stated only in the text, so checked
    here) and endpoint matching are enforced. Even tokens are looked up among
    the forward steps and odd ones among the backward steps, so a token in
    the wrong direction misses like an unknown one.
    """
    tokens = text.split()
    if not tokens:
        raise WordError("empty word text (use 'refl')")
    if tokens == ["refl"]:
        return ()
    forward, backward = span._step_tokens
    steps = tokens[:]
    try:
        steps[::2] = map(forward.__getitem__, tokens[::2])
        steps[1::2] = map(backward.__getitem__, tokens[1::2])
    except KeyError:
        steps = None  # the fault is raised outside this handler, so no KeyError chains to it
    if steps is None:
        _raise_token_error(span, tokens)
    word = tuple(steps)
    validate_word(span, word)
    return word


def _raise_token_error(span, tokens):
    # the first fault of tokens that do not all read as alternating steps:
    # every token's shape and label first, then an earlier bad step, then the
    # first step in the wrong direction
    steps = []
    for tok in tokens:
        if len(tok) < 2 or tok[0] not in "><":
            raise WordError("bad step token %r (expected >edge or <edge)" % (tok,))
        label = tok[1:]
        s = span.edge_index(label)
        if s is None:
            raise WordError("unknown edge label %r" % (label,))
        steps.append(s)
    wrong = next(i for i, tok in enumerate(tokens) if (tok[0] == ">") != (i % 2 == 0))
    validate_word(span, tuple(steps[:wrong]))
    raise WordError("step %d: directions must alternate starting forward" % (wrong,))


def format_word(span, word):
    """Render a word in the text syntax; inverse of parse_word."""
    if not word:
        return "refl"
    return " ".join(["><"[i % 2] + span.edges[s][0] for i, s in enumerate(word)])
