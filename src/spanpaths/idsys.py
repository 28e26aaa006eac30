"""Finite-set families over the word model and their elimination fold.

A DescentFamily is descent data: a finite fiber over every vertex a reduced
word within a length bound ends at, and for every edge crossing a
transition bijection between the fiber before and the fiber after the
crossing. Folding a family from a single value at ``refl`` forces a
section: the value at any reduced word is reached through its unique
reduced predecessor (drop the last step), applying the transition forward
for a forward step and its inverse for a backward step.

The module checks everything the fold promises, window-safely: the
computation rules (including the cancellation cases, where a transition is
followed by its own inverse), uniqueness of coherent sections agreeing at
``refl``, and the self-application encode_decode, which instantiates the
family with the words themselves and confirms the fold is the identity.

Transitions are stored as forward/inverse dict pairs and may be partial at
the window boundary (a crossing can push a value outside a bounded fiber);
they are still required to be exact mutual inverses where defined.

Words are the integer nodes of a words.WordTree, shared by every family over
one span through words.word_tree. A crossing within the bound is one link of
the tree, between a node x and its parent, read from the tree's link columns
(``tree.links``), so transitions are a list by node id: ``transitions[x]``
is the pair of x's link, its forward dict running from the link's A-end node
to its B-end node; fibers are a dict by vertex. build_family takes the
descent data for pushouts (Kraus and von Raumer, LICS 2019): a fiber per
vertex and ``crossing(s)``, called once per edge, whose forward dict every
link across s shares as the edge's one ``(fwd, inv)`` pair (trivial, parity,
winding, the word family). random_family, the one family defined per link,
builds its own transition list, drawing each link's permutation through
``rng.choices``. Validation reads the tree's flat columns: containment once
per distinct (pair, edge), bijectivity once per distinct pair.
"""

from __future__ import annotations

from itertools import permutations
from operator import is_
from types import SimpleNamespace
from typing import NamedTuple

from .span import record
from .words import word_tree


class DescentFamily(record("DescentFamily", "span bound fibers transitions")):
    """A fiber over each vertex reached within ``bound``, plus crossing bijections.

    Words are the node ids of ``tree``, the family's word tree, which the
    constructor sets beside the four tuple fields. ``fibers[v]`` is the
    ordered tuple over every word ending at vertex v; ``transitions[x]`` is
    the ``(fwd, inv)`` dict pair of the link between node x and its parent
    for every node x >= 1, and ``transitions[0]`` is None (refl has no
    parent). Validation enforces the transition table's length, a fiber over
    every vertex a word reaches, and exact two-sided inverses. An edge fixes
    both fibers, so containment is checked once per distinct (pair, edge),
    and bijectivity, which depends on the pair alone, once per distinct
    pair. One identity pass over the links finds a family with one pair per
    edge; only otherwise are the distinct (pair, edge) keys collected by id
    from the flat columns. Only a failure walks the links, in node order, to
    name the first failing one.
    """

    def __init__(self, span, bound, fibers, transitions):
        self.tree = tree = word_tree(span, bound)
        size = tree.size(bound)
        if len(transitions) != size:
            raise ValueError(
                "transition table incomplete or overfull (missing %d, extra %d)"
                % (max(size - len(transitions), 0), max(len(transitions) - size, 0))
            )
        reached = tree.reached(size)
        for v in reached:
            if v not in fibers:
                raise ValueError("fiber table has no fiber over %s" % span.vertex_label(v))
        links, last = transitions[1:], tree.last_edge[1:size]
        per_edge = dict(zip(last, links))
        if all(map(is_, links, map(per_edge.__getitem__, last))):
            keys = {(id(pair), s): pair for s, pair in per_edge.items()}  # as build_family makes it
        else:  # identity keys are stable: this family holds every keyed pair
            keys = dict(zip(zip(map(id, links), last), links))
        # each reached vertex ends a link unless refl is the only node, so each set is read
        sets, bijective, bad = {v: set(fibers[v]) for v in reached}, {}, {}
        for (key, s), (fwd, inv) in keys.items():
            _label, a, b = span.edges[s]
            fa, fb = sets["A", a], sets["B", b]  # a Vertex equals its plain (side, index) tuple
            if not (fa.issuperset(fwd) and fb.issuperset(fwd.values())):
                bad[key, s] = "leaves the fibers"
                continue
            if key not in bijective:
                bijective[key] = len(inv) == len(fwd) and inv == dict(zip(fwd.values(), fwd))
            if not bijective[key]:
                bad[key, s] = "is not bijective"
        if bad:
            for x, s, a in zip(range(1, size), last, tree.links[0]):
                problem = bad.get((id(transitions[x]), s))
                if problem:
                    raise ValueError("transition (%s, %s) %s" % (span.edge_label(s), tree.text(a), problem))


def build_family(span, bound, fiber_for, crossing):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber over a vertex; it is called
    once per vertex some word reaches, in declaration order. ``crossing(s)``
    gives the forward dict across edge s, from fiber values over its A end
    to fiber values over its B end; it is called once per edge some link
    crosses, in edge order. It may omit values whose image falls outside the
    window (the transition is then partial there) and is not trimmed to the
    fibers, so validation rejects stray keys or images. Each edge gets one
    ``(fwd, inv)`` pair, shared by every link across it.
    """
    tree = word_tree(span, bound)
    size = tree.size(bound)
    fibers = {v: tuple(fiber_for(v)) for v in tree.reached(size)}
    pairs, last = [None] * len(span.edges), tree.last_edge[1:size]
    for s in sorted(set(last)):
        fwd = crossing(s)
        pairs[s] = fwd, dict(zip(fwd.values(), fwd))
    transitions = [None, *map(pairs.__getitem__, last)]
    return DescentFamily(span, bound, fibers, transitions)


def trivial_family(span, bound):
    """Every fiber a singleton; the fold has exactly one section."""
    same = {0: 0}
    return build_family(span, bound, lambda v: (0,), lambda s: same)


def parity_family(span, bound, edge):
    """Fibers {0, 1}; crossing the counted edge swaps, everything else fixes."""
    same, swap = {0: 0, 1: 1}, {0: 1, 1: 0}
    return build_family(span, bound, lambda v: (0, 1), lambda s: swap if s == edge else same)


def winding_family(span, bound, edge):
    """Fibers are the integer window [-bound, bound]; the counted edge shifts by one.

    The shift is partial at the window's top end, which the fold never
    reaches: a word of length L crosses the counted edge at most L times.
    """
    window = range(-bound, bound + 1)
    same = {x: x for x in window}
    shift = {x: x + 1 for x in window if x + 1 <= bound}
    return build_family(
        span, bound, lambda v: tuple(window), lambda s: shift if s == edge else same
    )


def random_family(span, bound, rng):
    """A uniform-size family with an independent random bijection per link.

    The one family defined per link rather than per edge, so it builds its
    transition list itself instead of through build_family. The fiber size
    n is ``rng.choices(range(1, 5))[0]``; then one ``rng.choices`` call over
    the n! ``(fwd, inv)`` pairs, in ``itertools.permutations`` order, draws
    every link's permutation in node order, and links drawing one
    permutation share its pair.
    """
    n = rng.choices(range(1, 5))[0]
    tree = word_tree(span, bound)
    size = tree.size(bound)
    pairs = [(dict(enumerate(p)), dict(zip(p, range(n)))) for p in permutations(range(n))]
    transitions = [None, *rng.choices(pairs, k=size - 1)]
    fibers = dict.fromkeys(tree.reached(size), tuple(range(n)))
    return DescentFamily(span, bound, fibers, transitions)


class Section(record("Section", "family values")):
    """Values of a section, one per node id of the family's tree."""

    def __init__(self, family, values):
        if len(values) != len(family.transitions):
            raise ValueError("a section needs one value per word, got %d" % len(values))


def elim_section(fam, q0):
    """Fold the family from ``q0`` at refl into the unique forced section.

    Nodes are visited in id (canonical) order, each exactly once, so every
    value is computed from its already-known parent, the word's reduced
    predecessor. Raises ValueError when a needed transition value is missing
    (the family's window is too small for the fold to pass through).
    """
    span, tree, transitions = fam.span, fam.tree, fam.transitions
    if q0 not in fam.fibers[span.base_vertex]:
        raise ValueError("base value %r is not in the fiber at refl" % (q0,))
    parent, depth, values = tree.parent, tree.depth, [q0]
    append, hi = values.append, 1
    while hi < len(transitions):  # one depth d at a time, its nodes lo..hi - 1
        lo, d = hi, depth[hi]
        hi, k = tree.size(d), 1 - d % 2
        # a forward (odd depth) last step runs x's link from its parent, a backward one back from x
        for x in range(lo, hi):
            p = parent[x]
            try:
                append(transitions[x][k][values[p]])
            except KeyError:
                raise ValueError(
                    "family window too small: transition at (%s, %s) is undefined on %r"
                    % (span.edge_label(tree.last_edge[x]), tree.text(x if k else p), values[p])
                ) from None
    return Section(fam, values)


class ComputationReport(NamedTuple):
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def check_computation(fam, q0, sec):
    """Verify the fold's computation rules on a section.

    Checks the base value at refl, then for every link whose A-end word a
    has len(a) + 1 within bound, that the transition maps the section value
    at a to the value at the link's B end. Cancellation cases (a ends with a
    backward crossing of the same edge, so the link is a's own) are links
    like any other. Violations are reported, never raised.
    """
    span, tree, transitions = fam.span, fam.tree, fam.transitions
    values = sec.values
    violations = []
    if values[0] != q0:
        violations.append("value at refl is %r, expected %r" % (values[0], q0))
    # a link's A end is window-safe (below size(bound - 1)) unless the link is at an even top depth
    stop = len(transitions) if fam.bound % 2 else tree.size(fam.bound - 1)
    for x, s, a, b in zip(range(1, stop), tree.last_edge[1:stop], *tree.links):
        try:
            image = transitions[x][0][values[a]]
        except KeyError:
            violations.append("transition (%s, %s) undefined on the section value %r"
                              % (span.edge_label(s), tree.text(a), values[a]))
            continue
        if image != values[b]:
            violations.append(
                "computation rule fails at %s across %s: %r != %r"
                % (tree.text(a), span.edge_label(s), image, values[b])
            )
    return ComputationReport(max(stop, 1), violations)  # refl's base value, then one rule per link


class UniquenessReport(NamedTuple):
    checked: int
    first_disagreement: str | None

    @property
    def ok(self):
        return self.first_disagreement is None


def uniqueness_check(fam, q0, sec):
    """Confirm a coherent section equals the fold's output fiberwise.

    Word-length induction makes the fold's section the only one passing
    check_computation with the given base value, so any disagreement is
    reported at the first word in canonical order.
    """
    reference = elim_section(fam, q0).values
    for x, (got, want) in enumerate(zip(sec.values, reference)):
        if got != want:
            word = fam.tree.text(x)
            return UniquenessReport(x + 1, "%s: %r != %r" % (word, got, want))
    return UniquenessReport(len(reference), None)


class EncodeDecodeReport(SimpleNamespace):
    """Counts and mismatches of encode_decode's identity and naturality checks.

    A plain object, not a tuple: perfbench/run.py reads any tuple a call
    returns as CLI ``(code, stdout)`` output.
    """

    @property
    def ok(self):
        return not self.identity_mismatches and not self.naturality_mismatches


def word_family(span, bound):
    """The word model instantiated as a family over itself.

    The fiber over any word ending at v is the set of node ids of the reduced
    words to v within the bound, and the transition across an edge is the
    crossing of that edge, restricted to where both sides stay within the
    window (crossing back is its exact inverse there). The edges' tables are
    filled in one pass over the tree's last edges and link columns.
    """
    tree = word_tree(span, bound)
    crossings = [{} for _ in span.edges]
    for s, a, b in zip(tree.last_edge[1 : tree.size(bound)], *tree.links):
        crossings[s][a] = b
    return build_family(span, bound, lambda v: tree.nodes_at(v, bound), crossings.__getitem__)


def encode_decode(span, bound):
    """Fold the word family from refl and confirm it is the identity.

    The fold's value at every window-safe word (length <= bound - 1) must be
    the word itself, and crossing an edge must commute with the fold on the
    window-safe range. Both claims are the set-level content of the pointed,
    natural equivalence between the family and the word model.
    """
    fam = word_family(span, bound)
    tree, transitions = fam.tree, fam.transitions
    values = elim_section(fam, 0).values
    safe = tree.size(bound - 1)
    identity_mismatches = [
        "%s folds to %s" % (tree.text(x), tree.text(y))
        for x, y in enumerate(values[:safe])
        if y != x
    ]
    nat_checked = 0
    nat_mismatches = []
    # a child below safe has its parent there too
    for x, s, a, b in zip(range(1, safe), tree.last_edge[1:safe], *tree.links):
        nat_checked += 1
        if transitions[x][0].get(values[a]) != values[b]:
            nat_mismatches.append(
                "fold does not commute with crossing %s at %s"
                % (span.edge_label(s), tree.text(a))
            )
    return EncodeDecodeReport(identity_checked=safe, identity_mismatches=identity_mismatches,
                              naturality_checked=nat_checked, naturality_mismatches=nat_mismatches)
