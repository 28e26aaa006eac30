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
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import FWD, all_reduced_words, concat_fwd, format_word, word_endpoint


@dataclass
class DescentFamily:
    """Fibers over all reduced words within ``bound``, plus crossing bijections.

    ``fibers[word]`` is an ordered tuple; ``transitions[(s, w)]`` is a
    ``(fwd, inv)`` dict pair for every edge s and reduced word w ending at
    its A end such that the crossed word also fits in the bound. Validation
    enforces completeness of both tables and exact two-sided inverses.
    """

    span: object
    bound: int
    fibers: dict
    transitions: dict

    def __post_init__(self):
        words = all_reduced_words(self.span, self.bound)
        word_set = set(words)
        if set(self.fibers) != word_set:
            missing = [w for w in words if w not in self.fibers]
            raise ValueError(
                "fiber table incomplete or overfull (missing %d, extra %d)"
                % (len(missing), len(set(self.fibers) - word_set))
            )
        required = set()
        for w in words:
            end = word_endpoint(self.span, w)
            if end.side != "A":
                continue
            for s in self.span.edges_at(end):
                if len(concat_fwd(self.span, w, s)) <= self.bound:
                    required.add((s, w))
        if set(self.transitions) != required:
            raise ValueError(
                "transition table incomplete or overfull (missing %d, extra %d)"
                % (
                    len(required - set(self.transitions)),
                    len(set(self.transitions) - required),
                )
            )
        for (s, w), (fwd, inv) in self.transitions.items():
            src = set(self.fibers[w])
            tgt = set(self.fibers[concat_fwd(self.span, w, s)])
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


def build_family(span, bound, fiber_for, forward):
    """Assemble a DescentFamily from a generator interface.

    ``fiber_for(vertex)`` gives the ordered fiber used at every word ending
    there; ``forward(s, word, x)`` gives the image across edge s, or None
    when the image falls outside the window (the transition is then partial
    at that value).
    """
    fibers = {
        w: tuple(fiber_for(word_endpoint(span, w))) for w in all_reduced_words(span, bound)
    }
    transitions = {}
    for w in fibers:
        end = word_endpoint(span, w)
        if end.side != "A":
            continue
        for s in span.edges_at(end):
            if len(concat_fwd(span, w, s)) > bound:
                continue
            fwd = {}
            for x in fibers[w]:
                y = forward(s, w, x)
                if y is not None:
                    fwd[x] = y
            transitions[(s, w)] = (fwd, {y: x for x, y in fwd.items()})
    return DescentFamily(span, bound, fibers, transitions)


def trivial_family(span, bound):
    """Every fiber a singleton; the fold has exactly one section."""
    return build_family(span, bound, lambda v: (0,), lambda s, w, x: x)


def parity_family(span, bound, edge):
    """Fibers {0, 1}; crossing the counted edge swaps, everything else fixes."""
    return build_family(
        span, bound, lambda v: (0, 1), lambda s, w, x: x ^ 1 if s == edge else x
    )


def winding_family(span, bound, edge):
    """Fibers are the integer window [-bound, bound]; the counted edge shifts by one.

    The shift is partial at the window's top end, which the fold never
    reaches: a word of length L crosses the counted edge at most L times.
    """

    def forward(s, w, x):
        if s != edge:
            return x
        return x + 1 if x + 1 <= bound else None

    return build_family(span, bound, lambda v: tuple(range(-bound, bound + 1)), forward)


def random_family(span, bound, rng):
    """A uniform-size family with an independent random bijection per transition."""
    size = rng.randint(1, 4)
    perms = {}

    def forward(s, w, x):
        key = (s, w)
        if key not in perms:
            perms[key] = rng.sample(range(size), size)
        return perms[key][x]

    return build_family(span, bound, lambda v: tuple(range(size)), forward)


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
    for word in all_reduced_words(span, fam.bound):
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
    for w in all_reduced_words(span, fam.bound - 1):
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
    for word in all_reduced_words(span, fam.bound):
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
    (the backward concatenation is its exact inverse there).
    """
    buckets = {}
    for w in all_reduced_words(span, bound):
        buckets.setdefault(word_endpoint(span, w), []).append(w)
    # one tuple per vertex, shared by every word ending there
    fibers = {v: tuple(ws) for v, ws in buckets.items()}

    def forward(s, w, x):
        image = concat_fwd(span, x, s)
        return image if len(image) <= bound else None

    return build_family(span, bound, lambda v: fibers.get(v, ()), forward)


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
