"""Finite-set families over the word model and their elimination fold.

A DescentFamily assigns a finite fiber to every reduced word within a length
bound, and to every edge crossing a transition bijection between the fiber
before and the fiber after the crossing. Folding a family from a single
value at ``refl`` forces a section: the value at any reduced word is reached
through its unique reduced predecessor (drop the last step), applying the
transition forward for a forward step and its inverse for a backward step.

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
the tree, between a node x and its parent, so fibers and transitions are both
lists by node id: ``transitions[x]`` is the pair of x's link, its forward
dict running from the link's A-end node to its B-end node. Families are
generated from ``crossing(s, x)``, which returns the forward dict of one
whole transition from A-end node x. A family whose crossing does not depend
on the node (trivial, parity, winding and the word family itself) returns
the same dict for every link across an edge, so one ``(fwd, inv)`` pair
object is shared by all of them; validation checks each shared pair once.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

from .span import record
from .words import word_tree


def _links(tree, size):
    """``(x, s, a, b)`` for each link of the nodes below ``size``, in node order.

    x is the link's child node, s its edge, and a and b its A-end and B-end
    nodes: ``(parent, x)`` when x ends on the B side (odd depth), else ``(x, parent)``.
    """
    parent, last_edge, depth = tree.parent, tree.last_edge, tree.depth
    for x in range(1, size):
        p = parent[x]
        yield (x, last_edge[x], p, x) if depth[x] % 2 else (x, last_edge[x], x, p)


class DescentFamily(record("DescentFamily", "span bound fibers transitions")):
    """Fibers over all reduced words within ``bound``, plus crossing bijections.

    Words are the node ids of ``tree``, the family's word tree, which the
    constructor sets beside the four tuple fields. ``fibers[x]`` is an ordered
    tuple for every node x; ``transitions[x]`` is the ``(fwd, inv)`` dict
    pair of the link between x and its parent for every node x >= 1, and
    ``transitions[0]`` is None (refl has no parent). Validation enforces the
    length of both lists and exact two-sided inverses. Fibers and pairs may
    be shared objects; containment and bijectivity are checked once per
    distinct combination of (pair, source fiber, target fiber) objects.
    """

    def __init__(self, span, bound, fibers, transitions):
        self.tree = tree = word_tree(span, bound)
        size = tree.size(bound)
        for name, table in (("fiber", fibers), ("transition", transitions)):
            if len(table) != size:
                raise ValueError(
                    "%s table incomplete or overfull (missing %d, extra %d)"
                    % (name, max(size - len(table), 0), max(len(table) - size, 0))
                )
        # identity keys are stable: this family holds every keyed object
        checked = set()
        for x, s, a, b in _links(tree, size):
            pair, src, tgt = transitions[x], fibers[a], fibers[b]
            key = (id(pair), id(src), id(tgt))
            if key in checked:
                continue
            checked.add(key)
            fwd, inv = pair
            src, tgt = set(src), set(tgt)
            problem = None
            if any(u not in src or v not in tgt for u, v in fwd.items()):
                problem = "leaves the fibers"
            elif len(set(fwd.values())) != len(fwd) or inv != {v: u for u, v in fwd.items()}:
                problem = "is not bijective"
            if problem:
                raise ValueError(
                    "transition (%s, %s) %s"
                    % (span.edge_label(s), tree.text(a), problem)
                )


def build_family(span, bound, fiber_for, crossing):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber used at every word ending
    there; it is called once per vertex, in order of first appearance among
    the canonically ordered words, and the resulting tuple is shared by all
    those words. ``crossing(s, x)`` gives the forward dict across edge s from
    node x at the edge's A end, from fiber values to fiber values; it is
    called once per link, in node order. It may omit values whose image
    falls outside the window (the transition is then partial there) and is
    not trimmed to the fibers, so validation rejects stray keys or images.
    Returning the same dict for several links shares one (fwd, inv) pair
    between their transitions; the inverse is computed once per distinct dict.
    """
    tree = word_tree(span, bound)
    size = tree.size(bound)
    ends = tree.end[:size]
    at = {v: tuple(fiber_for(v)) for v in dict.fromkeys(ends)}
    fibers = [at[v] for v in ends]
    pairs = {}  # id(fwd) -> (fwd, inv); every fwd stays referenced by the table
    transitions = [None]
    for _, s, a, _ in _links(tree, size):
        fwd = crossing(s, a)
        if id(fwd) not in pairs:
            pairs[id(fwd)] = (fwd, {y: x for x, y in fwd.items()})
        transitions.append(pairs[id(fwd)])
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
    """A uniform-size family with an independent random bijection per transition."""
    size = rng.randint(1, 4)
    return build_family(
        span,
        bound,
        lambda v: tuple(range(size)),
        lambda s, x: dict(enumerate(rng.sample(range(size), size))),
    )


class Section(record("Section", "family values")):
    """Values of a section, one per node id of the family's tree."""

    def __init__(self, family, values):
        if len(values) != len(family.fibers):
            raise ValueError("a section needs one value per word, got %d" % len(values))


def elim_section(fam, q0):
    """Fold the family from ``q0`` at refl into the unique forced section.

    Nodes are visited in id (canonical) order, each exactly once, so every
    value is computed from its already-known parent, the word's reduced
    predecessor. Raises ValueError when a needed transition value is missing
    (the family's window is too small for the fold to pass through).
    """
    span, tree, transitions = fam.span, fam.tree, fam.transitions
    if q0 not in fam.fibers[0]:
        raise ValueError("base value %r is not in the fiber at refl" % (q0,))
    parent, depth = tree.parent, tree.depth
    values = [q0]
    for x in range(1, len(fam.fibers)):
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
    for x, s, a, b in _links(tree, len(fam.fibers)):
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
    for _, s, a, b in _links(tree, tree.size(bound)):
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
    for x, s, a, b in _links(tree, safe):  # a child below safe has its parent there too
        nat_checked += 1
        if transitions[x][0].get(values[a]) != values[b]:
            nat_mismatches.append(
                "fold does not commute with crossing %s at %s"
                % (span.edge_label(s), tree.text(a))
            )
    return EncodeDecodeReport(identity_checked=safe, identity_mismatches=identity_mismatches,
                              naturality_checked=nat_checked, naturality_mismatches=nat_mismatches)
