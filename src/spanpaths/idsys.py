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

Families are generated from ``crossing(s, w)``, which returns the forward
dict of one whole transition. A family whose crossing does not depend on the
word (trivial, parity, winding and the word family itself) returns the same
dict for every word, so one ``(fwd, inv)`` pair object is shared by all the
transitions across an edge; validation checks each shared pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

from .span import Vertex
from .words import FWD, all_reduced_words, concat_fwd, format_word, word_endpoint


@dataclass
class DescentFamily:
    """Fibers over all reduced words within ``bound``, plus crossing bijections.

    ``fibers[word]`` is an ordered tuple; ``transitions[(s, w)]`` is a
    ``(fwd, inv)`` dict pair for every edge s and reduced word w ending at
    its A end such that the crossed word also fits in the bound. Validation
    enforces completeness of both tables and exact two-sided inverses.
    Fibers and pairs may be shared objects; containment and bijectivity are
    checked once per distinct combination of (fwd, inv, source fiber, target
    fiber) objects.
    ``words`` is the canonical enumeration of the fiber table's keys.
    """

    span: object
    bound: int
    fibers: dict
    transitions: dict
    words: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.words = words = all_reduced_words(self.span, self.bound)
        word_set = set(words)
        if set(self.fibers) != word_set:
            missing = [w for w in words if w not in self.fibers]
            raise ValueError(
                "fiber table incomplete or overfull (missing %d, extra %d)"
                % (len(missing), len(set(self.fibers) - word_set))
            )
        required = {}
        for w in words:
            end = word_endpoint(self.span, w)
            if end.side != "A":
                continue
            for s in self.span.edges_at(end):
                target = concat_fwd(self.span, w, s)
                if len(target) <= self.bound:
                    required[(s, w)] = target
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
        for (s, w), (fwd, inv) in self.transitions.items():
            src, tgt = self.fibers[w], self.fibers[required[(s, w)]]
            key = (id(fwd), id(inv), id(src), id(tgt))
            if key in checked:
                continue
            checked.add(key)
            src, tgt = set(src), set(tgt)
            for x, y in fwd.items():
                if x not in src or y not in tgt:
                    raise ValueError(
                        "transition (%s, %s) leaves the fibers"
                        % (self.span.edge_label(s), format_word(self.span, w))
                    )
            if len(set(fwd.values())) != len(fwd) or inv != {y: x for x, y in fwd.items()}:
                raise ValueError(
                    "transition (%s, %s) is not bijective"
                    % (self.span.edge_label(s), format_word(self.span, w))
                )


def build_family(span, bound, fiber_for, crossing):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber used at every word ending
    there; it is called once per vertex, in order of first appearance among
    the canonically ordered words, and the resulting tuple is shared by all
    those words. ``crossing(s, word)`` gives the forward dict across edge s
    from ``word``, from fiber values to fiber values; it may omit values whose
    image falls outside the window (the transition is then partial there) and
    is not trimmed to the fibers, so validation rejects stray keys or images.
    Returning the same dict for several words shares one (fwd, inv) pair
    between their transitions; the inverse is computed once per distinct dict.
    """
    words = all_reduced_words(span, bound)
    ends = [word_endpoint(span, w) for w in words]
    at = {v: tuple(fiber_for(v)) for v in dict.fromkeys(ends)}
    fibers = {w: at[v] for w, v in zip(words, ends)}
    pairs = {}  # id(fwd) -> (fwd, inv); every fwd stays referenced by the table
    transitions = {}
    for w, end in zip(words, ends):
        if end.side != "A":
            continue
        for s in span.edges_at(end):
            if len(concat_fwd(span, w, s)) > bound:
                continue
            fwd = crossing(s, w)
            if id(fwd) not in pairs:
                pairs[id(fwd)] = (fwd, {y: x for x, y in fwd.items()})
            transitions[(s, w)] = pairs[id(fwd)]
    return DescentFamily(span, bound, fibers, transitions)


def trivial_family(span, bound):
    """Every fiber a singleton; the fold has exactly one section."""
    same = {0: 0}
    return build_family(span, bound, lambda v: (0,), lambda s, w: same)


def parity_family(span, bound, edge):
    """Fibers {0, 1}; crossing the counted edge swaps, everything else fixes."""
    same, swap = {0: 0, 1: 1}, {0: 1, 1: 0}
    return build_family(span, bound, lambda v: (0, 1), lambda s, w: swap if s == edge else same)


def winding_family(span, bound, edge):
    """Fibers are the integer window [-bound, bound]; the counted edge shifts by one.

    The shift is partial at the window's top end, which the fold never
    reaches: a word of length L crosses the counted edge at most L times.
    """
    window = range(-bound, bound + 1)
    same = {x: x for x in window}
    shift = {x: x + 1 for x in window if x + 1 <= bound}
    return build_family(
        span, bound, lambda v: tuple(window), lambda s, w: shift if s == edge else same
    )


def random_family(span, bound, rng):
    """A uniform-size family with an independent random bijection per transition."""
    size = rng.randint(1, 4)
    return build_family(
        span,
        bound,
        lambda v: tuple(range(size)),
        lambda s, w: dict(enumerate(rng.sample(range(size), size))),
    )


@dataclass
class Section:
    """Values of a section, keyed by reduced word."""

    family: DescentFamily
    values: dict


def elim_section(fam, q0):
    """Fold the family from ``q0`` at refl into the unique forced section.

    Words are visited in canonical order, each exactly once, so every value
    is computed from its already-known reduced predecessor. Raises
    ValueError when a needed transition value is missing (the family's
    window is too small for the fold to pass through).
    """
    span = fam.span
    if q0 not in fam.fibers[()]:
        raise ValueError("base value %r is not in the fiber at refl" % (q0,))
    values = {}
    for word in fam.words:
        if not word:
            values[word] = q0
            continue
        prefix = word[:-1]
        step = word[-1]
        if step.direction == FWD:
            fwd, _ = fam.transitions[(step.edge, prefix)]
            table, key = fwd, prefix
        else:
            _, inv = fam.transitions[(step.edge, word)]
            table, key = inv, word
        prev = values[prefix]
        if prev not in table:
            raise ValueError(
                "family window too small: transition at (%s, %s) is undefined on %r"
                % (span.edge_label(step.edge), format_word(span, key), prev)
            )
        values[word] = table[prev]
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

    Checks the base value at refl, then for every reduced word w ending at
    an edge's A end with len(w) + 1 within bound, that the transition maps
    the section value at w to the value at the crossed word. Cancellation
    cases (w already ends with a backward crossing of the same edge) are
    covered by the same sweep. Violations are reported, never raised.
    """
    span = fam.span
    violations = []
    checked = 1
    if sec.values.get(()) != q0:
        violations.append("value at refl is %r, expected %r" % (sec.values.get(()), q0))
    # canonical order is length-first, so the window-safe words are a prefix
    for w in takewhile(lambda u: len(u) < fam.bound, fam.words):
        end = word_endpoint(span, w)
        if end.side != "A":
            continue
        for s in span.edges_at(end):
            checked += 1
            target = concat_fwd(span, w, s)
            fwd, _ = fam.transitions[(s, w)]
            x = sec.values.get(w)
            if x not in fwd:
                violations.append(
                    "transition (%s, %s) undefined on the section value %r"
                    % (span.edge_label(s), format_word(span, w), x)
                )
            elif fwd[x] != sec.values.get(target):
                violations.append(
                    "computation rule fails at %s across %s: %r != %r"
                    % (
                        format_word(span, w),
                        span.edge_label(s),
                        fwd[x],
                        sec.values.get(target),
                    )
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
    span = fam.span
    reference = elim_section(fam, q0)
    checked = 0
    for word in fam.words:
        checked += 1
        if sec.values.get(word) != reference.values[word]:
            return UniquenessReport(
                checked,
                "%s: %r != %r"
                % (
                    format_word(span, word),
                    sec.values.get(word),
                    reference.values[word],
                ),
            )
    return UniquenessReport(checked, None)


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

    The fiber over any word ending at v is the set of reduced words to v
    within the bound, and the transition across an edge is concatenation of
    the crossing, restricted to where both sides stay within the window
    (the backward concatenation is its exact inverse there). The crossing
    ignores the word it starts from, so each edge's table is built once.
    """
    buckets = {}
    for w in all_reduced_words(span, bound):
        buckets.setdefault(word_endpoint(span, w), []).append(w)
    crossings = []
    for s in range(len(span.edges)):
        images = {x: concat_fwd(span, x, s) for x in buckets.get(Vertex("A", span.a_end(s)), ())}
        crossings.append({x: y for x, y in images.items() if len(y) <= bound})
    return build_family(span, bound, lambda v: buckets.get(v, ()), lambda s, w: crossings[s])


def encode_decode(span, bound):
    """Fold the word family from refl and confirm it is the identity.

    The fold's value at every window-safe word (length <= bound - 1) must be
    the word itself, and crossing an edge must commute with the fold on the
    window-safe range. Both claims are the set-level content of the pointed,
    natural equivalence between the family and the word model.
    """
    fam = word_family(span, bound)
    sec = elim_section(fam, ())
    identity_mismatches = []
    checked = 0
    safe = set(all_reduced_words(span, bound - 1))
    for w in safe:
        checked += 1
        if sec.values[w] != w:
            identity_mismatches.append(
                "%s folds to %s"
                % (format_word(span, w), format_word(span, sec.values[w]))
            )
    nat_checked = 0
    nat_mismatches = []
    for w in sorted(safe, key=lambda u: (len(u), u)):
        end = word_endpoint(span, w)
        if end.side != "A":
            continue
        for s in span.edges_at(end):
            target = concat_fwd(span, w, s)
            if target not in safe:
                continue
            nat_checked += 1
            fwd, _ = fam.transitions[(s, w)]
            if fwd.get(sec.values[w]) != sec.values[target]:
                nat_mismatches.append(
                    "fold does not commute with crossing %s at %s"
                    % (span.edge_label(s), format_word(span, w))
                )
    return EncodeDecodeReport(checked, identity_mismatches, nat_checked, nat_mismatches)
