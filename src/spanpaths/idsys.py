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

Words are the integer nodes of a words.WordTree, and every family over one
(span, bound) shares one Skeleton: the node range, the endpoints, and the
table of forward crossings that stay within the bound. Families are
generated from ``crossing(s, x)``, which returns the forward dict of one
whole transition. A family whose crossing does not depend on the word
(trivial, parity, winding and the word family itself) returns the same dict
for every node, so one ``(fwd, inv)`` pair object is shared by all the
transitions across an edge; validation checks each shared pair once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .words import format_word, word_tree


class Skeleton:
    """The word side shared by every family over one (span, bound).

    The words are the nodes ``0..size - 1`` of ``tree``, a words.WordTree of
    this or a larger bound. ``required[(s, x)]`` is the node reached by
    crossing edge s forward from each node x at the edge's A end, when that
    stays within the bound; keys run in order of x, then of edge.
    """

    def __init__(self, tree, bound):
        self.tree, self.bound = tree, bound
        self.size = size = tree.size(bound)
        self.required = {}
        for x in range(size):
            end = tree.end[x]
            if end.side == "A":
                for s in tree.span.edges_at(end):
                    y = tree.step(x, s)
                    if y is not None and y < size:
                        self.required[(s, x)] = y


_last_skeleton = None  # a weak reference, as in words.word_tree


def _skeleton(span, bound):
    """The Skeleton of (span, bound), shared by families while any of them lives."""
    global _last_skeleton
    tree = word_tree(span, bound)
    sk = _last_skeleton() if _last_skeleton else None
    if sk is None or sk.tree is not tree or sk.bound != bound:
        sk = Skeleton(tree, bound)
        _last_skeleton = weakref.ref(sk)
    return sk


@dataclass
class DescentFamily:
    """Fibers over all reduced words within ``bound``, plus crossing bijections.

    Words are the node ids of the family's skeleton. ``fibers[x]`` is an
    ordered tuple for every node x; ``transitions[(s, x)]`` is a ``(fwd, inv)``
    dict pair for every key of the skeleton's required table, that is every
    edge s and node x ending at its A end such that the crossed word also
    fits in the bound. Validation enforces completeness of both tables and
    exact two-sided inverses. Fibers and pairs may be shared objects;
    containment and bijectivity are checked once per distinct combination of
    (fwd, inv, source fiber, target fiber) objects.
    """

    span: object
    bound: int
    fibers: list
    transitions: dict
    skeleton: Skeleton = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.skeleton = sk = _skeleton(self.span, self.bound)
        if len(self.fibers) != sk.size:
            raise ValueError(
                "fiber table incomplete or overfull (missing %d, extra %d)"
                % (max(sk.size - len(self.fibers), 0), max(len(self.fibers) - sk.size, 0))
            )
        required = sk.required
        if self.transitions.keys() != required.keys():
            raise ValueError(
                "transition table incomplete or overfull (missing %d, extra %d)"
                % (
                    len(required.keys() - self.transitions.keys()),
                    len(self.transitions.keys() - required.keys()),
                )
            )
        # identity keys are stable: this family holds every keyed object
        checked = set()
        for (s, x), (fwd, inv) in self.transitions.items():
            src, tgt = self.fibers[x], self.fibers[required[(s, x)]]
            key = (id(fwd), id(inv), id(src), id(tgt))
            if key in checked:
                continue
            checked.add(key)
            src, tgt = set(src), set(tgt)
            for a, b in fwd.items():
                if a not in src or b not in tgt:
                    raise ValueError(
                        "transition (%s, %s) leaves the fibers"
                        % (self.span.edge_label(s), format_word(self.span, sk.tree.word(x)))
                    )
            if len(set(fwd.values())) != len(fwd) or inv != {b: a for a, b in fwd.items()}:
                raise ValueError(
                    "transition (%s, %s) is not bijective"
                    % (self.span.edge_label(s), format_word(self.span, sk.tree.word(x)))
                )


def build_family(span, bound, fiber_for, crossing):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber used at every word ending
    there; it is called once per vertex, in order of first appearance among
    the canonically ordered words, and the resulting tuple is shared by all
    those words. ``crossing(s, x)`` gives the forward dict across edge s from
    node x, from fiber values to fiber values; it may omit values whose
    image falls outside the window (the transition is then partial there) and
    is not trimmed to the fibers, so validation rejects stray keys or images.
    Returning the same dict for several nodes shares one (fwd, inv) pair
    between their transitions; the inverse is computed once per distinct dict.
    """
    sk = _skeleton(span, bound)
    ends = sk.tree.end[: sk.size]
    at = {v: tuple(fiber_for(v)) for v in dict.fromkeys(ends)}
    fibers = [at[v] for v in ends]
    pairs = {}  # id(fwd) -> (fwd, inv); every fwd stays referenced by the table
    transitions = {}
    for key in sk.required:
        fwd = crossing(*key)
        if id(fwd) not in pairs:
            pairs[id(fwd)] = (fwd, {y: x for x, y in fwd.items()})
        transitions[key] = pairs[id(fwd)]
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


@dataclass
class Section:
    """Values of a section, one per node id of the family's skeleton."""

    family: DescentFamily
    values: list

    def __post_init__(self):
        if len(self.values) != self.family.skeleton.size:
            raise ValueError("a section needs one value per word, got %d" % len(self.values))


def elim_section(fam, q0):
    """Fold the family from ``q0`` at refl into the unique forced section.

    Nodes are visited in id (canonical) order, each exactly once, so every
    value is computed from its already-known parent, the word's reduced
    predecessor. Raises ValueError when a needed transition value is missing
    (the family's window is too small for the fold to pass through).
    """
    span = fam.span
    tree = fam.skeleton.tree
    if q0 not in fam.fibers[0]:
        raise ValueError("base value %r is not in the fiber at refl" % (q0,))
    parent, last_edge, depth = tree.parent, tree.last_edge, tree.depth
    values = [q0]
    for x in range(1, fam.skeleton.size):
        p, s = parent[x], last_edge[x]
        if depth[x] % 2:  # a forward last step, taken from p
            table, key = fam.transitions[(s, p)][0], p
        else:  # a backward last step, the inverse of crossing forward from x
            table, key = fam.transitions[(s, x)][1], x
        prev = values[p]
        if prev not in table:
            raise ValueError(
                "family window too small: transition at (%s, %s) is undefined on %r"
                % (span.edge_label(s), format_word(span, tree.word(key)), prev)
            )
        values.append(table[prev])
    return Section(fam, values)


@dataclass
class ComputationReport:
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def check_computation(fam, q0, sec):
    """Verify the fold's computation rules on a section.

    Checks the base value at refl, then for every reduced word x ending at
    an edge's A end with len(x) + 1 within bound, that the transition maps
    the section value at x to the value at the crossed word. Cancellation
    cases (x already ends with a backward crossing of the same edge) are
    covered by the same sweep. Violations are reported, never raised.
    """
    span = fam.span
    tree = fam.skeleton.tree
    values = sec.values
    violations = []
    checked = 1
    if values[0] != q0:
        violations.append("value at refl is %r, expected %r" % (values[0], q0))
    # required runs in canonical order, so the window-safe nodes come first
    safe = tree.size(fam.bound - 1)
    for (s, x), y in fam.skeleton.required.items():
        if x >= safe:
            break
        checked += 1
        fwd, _ = fam.transitions[(s, x)]
        if values[x] not in fwd:
            violations.append(
                "transition (%s, %s) undefined on the section value %r"
                % (span.edge_label(s), format_word(span, tree.word(x)), values[x])
            )
        elif fwd[values[x]] != values[y]:
            violations.append(
                "computation rule fails at %s across %s: %r != %r"
                % (format_word(span, tree.word(x)), span.edge_label(s), fwd[values[x]], values[y])
            )
    return ComputationReport(checked, violations)


@dataclass
class UniquenessReport:
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
            word = format_word(fam.span, fam.skeleton.tree.word(x))
            return UniquenessReport(x + 1, "%s: %r != %r" % (word, got, want))
    return UniquenessReport(len(reference), None)


@dataclass
class EncodeDecodeReport:
    identity_checked: int
    identity_mismatches: list
    naturality_checked: int
    naturality_mismatches: list

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
    skeleton's required table.
    """
    sk = _skeleton(span, bound)
    crossings = [{} for _ in span.edges]
    for (s, x), y in sk.required.items():
        crossings[s][x] = y
    return build_family(
        span, bound, lambda v: sk.tree.nodes_at(v, bound), lambda s, x: crossings[s]
    )


def encode_decode(span, bound):
    """Fold the word family from refl and confirm it is the identity.

    The fold's value at every window-safe word (length <= bound - 1) must be
    the word itself, and crossing an edge must commute with the fold on the
    window-safe range. Both claims are the set-level content of the pointed,
    natural equivalence between the family and the word model.
    """
    fam = word_family(span, bound)
    tree = fam.skeleton.tree
    values = elim_section(fam, 0).values
    safe = tree.size(bound - 1)
    identity_mismatches = [
        "%s folds to %s" % (format_word(span, tree.word(x)), format_word(span, tree.word(y)))
        for x, y in enumerate(values[:safe])
        if y != x
    ]
    nat_checked = 0
    nat_mismatches = []
    for (s, x), y in fam.skeleton.required.items():
        if x >= safe:
            break
        if y >= safe:
            continue
        nat_checked += 1
        fwd, _ = fam.transitions[(s, x)]
        if fwd.get(values[x]) != values[y]:
            nat_mismatches.append(
                "fold does not commute with crossing %s at %s"
                % (span.edge_label(s), format_word(span, tree.word(x)))
            )
    return EncodeDecodeReport(safe, identity_mismatches, nat_checked, nat_mismatches)
