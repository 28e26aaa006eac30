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
to its B-end node; fibers are a dict by vertex. Families are generated from
``crossing(s, x)``, which returns the forward dict of one whole transition
from A-end node x. A family whose crossing does not depend on the node
(trivial, parity, winding and the word family itself) returns the same dict
for every link across an edge, so one ``(fwd, inv)`` pair object is shared
by all of them; validation checks each (pair, edge) once.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

from .span import record
from .words import word_tree


def _reached(tree, size):
    # the vertices some node below size ends at, in declaration order
    return [v for v, ids in tree.at.items() if ids and ids[0] < size]


class DescentFamily(record("DescentFamily", "span bound fibers transitions")):
    """A fiber over each vertex reached within ``bound``, plus crossing bijections.

    Words are the node ids of ``tree``, the family's word tree, which the
    constructor sets beside the four tuple fields. ``fibers[v]`` is the
    ordered tuple over every word ending at vertex v; ``transitions[x]`` is
    the ``(fwd, inv)`` dict pair of the link between node x and its parent
    for every node x >= 1, and ``transitions[0]`` is None (refl has no
    parent). Validation enforces the transition table's length, a fiber over
    every vertex a word reaches, and exact two-sided inverses. Pairs may be
    shared objects; an edge fixes both fibers, so containment and
    bijectivity are checked once per distinct (pair, edge), and a failure
    names its first link in node order.
    """

    def __init__(self, span, bound, fibers, transitions):
        self.tree = tree = word_tree(span, bound)
        size = tree.size(bound)
        if len(transitions) != size:
            raise ValueError(
                "transition table incomplete or overfull (missing %d, extra %d)"
                % (max(size - len(transitions), 0), max(len(transitions) - size, 0))
            )
        for v in _reached(tree, size):
            if v not in fibers:
                raise ValueError("fiber table has no fiber over %s" % span.vertex_label(v))
        sets = {v: set(fiber) for v, fiber in fibers.items()}
        a_ends, b_ends = tree.links
        ends, edges = tree.end, tree.last_edge[1:size]
        # identity keys are stable: this family holds every keyed pair. Walked
        # backwards, each (pair, edge) keeps its first link; then in node order
        first = dict(zip(zip(map(id, transitions[:0:-1]), edges[::-1]), range(size - 1, 0, -1)))
        for x in sorted(first.values()):
            fwd, inv = transitions[x]
            a, b = a_ends[x - 1], b_ends[x - 1]
            problem = None
            if not (sets[ends[a]].issuperset(fwd) and sets[ends[b]].issuperset(fwd.values())):
                problem = "leaves the fibers"
            elif len(set(fwd.values())) != len(fwd) or inv != dict(zip(fwd.values(), fwd)):
                problem = "is not bijective"
            if problem:
                raise ValueError(
                    "transition (%s, %s) %s"
                    % (span.edge_label(edges[x - 1]), tree.text(a), problem)
                )


def build_family(span, bound, fiber_for, crossing):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber over a vertex; it is called
    once per vertex some word reaches, in declaration order. ``crossing(s, x)``
    gives the forward dict across edge s from node x at the edge's A end,
    from fiber values to fiber values; it is called once per link, in node
    order. It may omit values whose image falls outside the window (the
    transition is then partial there) and is not trimmed to the fibers, so
    validation rejects stray keys or images. Returning the same dict for
    several links shares one (fwd, inv) pair between their transitions; the
    inverse is computed once per distinct dict.
    """
    tree = word_tree(span, bound)
    size = tree.size(bound)
    fibers = {v: tuple(fiber_for(v)) for v in _reached(tree, size)}
    fwds = list(map(crossing, tree.last_edge[1:size], tree.links[0]))
    # one pair per distinct dict; every fwd stays referenced by fwds
    distinct = dict(zip(map(id, fwds), fwds))
    pairs = {key: (fwd, dict(zip(fwd.values(), fwd))) for key, fwd in distinct.items()}
    transitions = [None, *map(pairs.__getitem__, map(id, fwds))]
    return DescentFamily(span, bound, fibers, transitions)


def trivial_family(span, bound):
    """Every fiber a singleton; the fold has exactly one section."""
    same = {0: 0}
    return build_family(span, bound, lambda v: (0,), lambda s, x: same)


def parity_family(span, bound, edge):
    """Fibers {0, 1}; crossing the counted edge swaps, everything else fixes."""
    same, swap = {0: 0, 1: 1}, {0: 1, 1: 0}
    return build_family(span, bound, lambda v: (0, 1), lambda s, x: swap if s == edge else same)


def winding_family(span, bound, edge):
    """Fibers are the integer window [-bound, bound]; the counted edge shifts by one.

    The shift is partial at the window's top end, which the fold never
    reaches: a word of length L crosses the counted edge at most L times.
    """
    window = range(-bound, bound + 1)
    same = {x: x for x in window}
    shift = {x: x + 1 for x in window if x + 1 <= bound}
    return build_family(
        span, bound, lambda v: tuple(window), lambda s, x: shift if s == edge else same
    )


def random_family(span, bound, rng):
    """A uniform-size family with an independent random bijection per transition.

    Links that draw the same permutation share its dict.
    """
    size = rng.randint(1, 4)
    bits, widths, perms = rng.getrandbits, [(m, m.bit_length()) for m in range(size, 0, -1)], {}

    def crossing(s, x):
        # the draws of rng.sample(range(size), size) on CPython 3.10-3.13: _randbelow(m) for
        # m = size..1 (getrandbits(m.bit_length()) until below m), each pick swapped to the
        # pool's end; test_random_family_draws_are_the_reference_draws draws through sample
        pool = list(range(size))
        for m, k in widths:
            j = bits(k)
            while j >= m:
                j = bits(k)
            pool[j], pool[m - 1] = pool[m - 1], pool[j]
        perm = tuple(reversed(pool))  # sample's picks, in order
        if perm not in perms:
            perms[perm] = dict(enumerate(perm))
        return perms[perm]

    return build_family(span, bound, lambda v: tuple(range(size)), crossing)


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
    parent, depth = tree.parent, tree.depth
    values = [q0]
    for x in range(1, len(transitions)):
        p, forward = parent[x], depth[x] % 2
        # a forward last step runs x's link from p, a backward one back from x
        table = transitions[x][0 if forward else 1]
        prev = values[p]
        if prev not in table:
            a = p if forward else x
            raise ValueError(
                "family window too small: transition at (%s, %s) is undefined on %r"
                % (span.edge_label(tree.last_edge[x]), tree.text(a), prev)
            )
        values.append(table[prev])
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
    checked = 1
    if values[0] != q0:
        violations.append("value at refl is %r, expected %r" % (values[0], q0))
    safe = tree.size(fam.bound - 1)
    size = len(transitions)
    for x, s, a, b in zip(range(1, size), tree.last_edge[1:size], *tree.links):
        if a >= safe:
            continue
        checked += 1
        fwd = transitions[x][0]
        if values[a] not in fwd:
            violations.append(
                "transition (%s, %s) undefined on the section value %r"
                % (span.edge_label(s), tree.text(a), values[a])
            )
        elif fwd[values[a]] != values[b]:
            violations.append(
                "computation rule fails at %s across %s: %r != %r"
                % (tree.text(a), span.edge_label(s), fwd[values[a]], values[b])
            )
    return ComputationReport(checked, violations)


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
    window (crossing back is its exact inverse there). The crossing ignores
    the node it starts from, so each edge's table is built once, from the
    tree's links.
    """
    tree = word_tree(span, bound)
    crossings = [{} for _ in span.edges]
    for s, a, b in zip(tree.last_edge[1 : tree.size(bound)], *tree.links):
        crossings[s][a] = b
    return build_family(
        span, bound, lambda v: tree.nodes_at(v, bound), lambda s, x: crossings[s]
    )


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
