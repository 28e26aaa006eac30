"""Invariant suites aggregated by the CLI `check` command and the tests.

Each suite takes a span or its stages and returns CheckResult rows; nothing
here raises on a failed property, so one run reports everything. Randomized
pieces draw from an explicit seed and are byte-deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import NamedTuple

from . import idsys, oracle
from .seqcolim import (
    SeqMorphism,
    class_labels,
    compose_morphisms,
    direct_limit,
    half_shift,
    map_of_limits,
    partition,
    shift_diagram,
    truncate_diagram,
    zigzag_equivalence,
    zigzag_to_morphism,
)
from .span import FiniteSpan, realize, serialize_span
from .stages import (
    build_stages,
    construction_zigzag,
    cycle_diagnostic,
    stage_diagram,
    stage_word_bijection,
    word_bound,
)
from .words import (
    _cancel_pairs,
    _cancel_rightmost,
    all_reduced_words,
    count_words,
    format_word,
    is_reduced,
    parse_word,
    word_endpoint,
    word_tree,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    details: str = ""


def _result(name, failures, detail_ok=""):
    if failures:
        return CheckResult(name, False, "; ".join(failures[:5]))
    return CheckResult(name, True, detail_ok)


# ---------------------------------------------------------------- words

# words.reduce-confluence checks SAMPLES random walks of up to SAMPLE_LEN steps
SAMPLES = 1000
SAMPLE_LEN = 12
_LEN_BITS = (SAMPLE_LEN + 1).bit_length()  # the width of randint(0, SAMPLE_LEN)'s draws


def _moves(graph):
    # per vertex: its (edge, far end) options, their count and the draw's bit width
    return {v: (opts, len(opts), len(opts).bit_length()) for v, opts in graph.incidence.items()}


def _random_walks(moves, start, rng, count):
    # count random walks from start: the distinct ones, each mapped to where
    # it stops, in first-drawn order. A walk's draws are
    # rng.randint(0, SAMPLE_LEN) for its length, then rng.choice(options) per
    # step: on CPython 3.10-3.13 both are _randbelow(n), which draws
    # getrandbits(n.bit_length()) until the value is below n, so a single
    # option still spends its 1-bit draw and a vertex with none stops the walk
    # without drawing. test_sampler_draws_are_the_reference_draws and
    # test_sampler_many_walk_draws_are_the_reference_draws, which draw through
    # randint and choice, fail if a CPython changes _randbelow.
    bits = rng.getrandbits
    walks = {}
    for _ in range(count):
        steps = bits(_LEN_BITS)
        while steps > SAMPLE_LEN:
            steps = bits(_LEN_BITS)
        word = []
        at = start
        for _ in range(steps):
            options, n, k = moves[at]
            if not n:
                break
            i = bits(k)
            while i >= n:
                i = bits(k)
            s, at = options[i]
            word.append(s)
        walks[tuple(word)] = at  # a repeat keeps its first place, and stops where it did
    return walks


def random_unreduced_word(span, rng):
    """A structurally valid, possibly backtracking word from the basepoint."""
    return next(iter(_random_walks(_moves(realize(span)), span.base_vertex, rng, 1)))


def word_suite(span, max_len=8, seed=0):
    results = []
    rng = random.Random(seed)
    tree = word_tree(span, max_len)
    words = all_reduced_words(span, max_len)

    # word_endpoint reads the last edge's end, the tree followed every edge's
    # ends as it grew: the two must agree, on the side the length parity names
    failures = []
    for x, w in enumerate(words):
        end = word_endpoint(span, w)
        if end != tree.end[x] or (end.side == "A") != (len(w) % 2 == 0):
            failures.append("parity broken at %s" % format_word(span, w))
    results.append(_result("words.parity", failures))

    failures = []
    for x, w in enumerate(words):
        for s in span.edges_at(tree.end[x]):
            y = tree.step(x, s)
            if y is not None and tree.step(y, s) != x:
                label = span.edge_label(s)
                failures.append("crossing %s and back moves %s" % (label, format_word(span, w)))
    results.append(_result("words.mutual-inverse", failures))

    # the words by length and endpoint against count_words, which builds no
    # word; endpoints are the tree's, not word_endpoint's, so this check
    # and words.parity fail on different faults
    failures = []
    found = Counter((len(w), tree.end[x]) for x, w in enumerate(words))
    for length, walks in enumerate(count_words(span, max_len)):
        for v in span.vertices():
            got, want = found[length, v], walks.get(v, 0)
            if got != want:
                failures.append(
                    "%d words of length %d end at %s, %d walks do"
                    % (got, length, span.vertex_label(v), want)
                )
    results.append(_result("words.window-monotone", failures))

    # a sample is a walk in the realized graph, so a valid word, and a pure
    # function of its steps, so each distinct one is checked once; a normal
    # form's endpoint is its last edge's end on the side its length parity
    # names, read off the graph, not word_endpoint, so this check and
    # words.parity test different code
    failures = []
    graph = realize(span)
    base = span.base_vertex
    for raw, end in _random_walks(_moves(graph), base, rng, SAMPLES).items():
        left = _cancel_pairs(raw)
        right = _cancel_rightmost(raw)
        if left != right:
            failures.append("strategies disagree on %s" % format_word(span, raw))
        if not is_reduced(left):
            failures.append("normal form of %s is not reduced" % format_word(span, raw))
        if (graph.edge_ends[left[-1]][len(left) % 2] if left else base) != end:
            failures.append("normal form of %s moves the endpoint" % format_word(span, raw))
        if (len(raw) - len(left)) % 2:
            failures.append("normal form of %s drops an odd step count" % format_word(span, raw))
    results.append(_result("words.reduce-confluence", failures, "%d samples" % SAMPLES))

    failures = []
    for w in words:
        if parse_word(span, format_word(span, w)) != w:
            failures.append("roundtrip broke %s" % format_word(span, w))
    results.append(_result("words.roundtrip", failures))
    return results


# ---------------------------------------------------------------- oracle


def oracle_suite(span, max_len):
    results = []
    graph = realize(span)
    tree = word_tree(span, max_len)  # held, so compare_words_walks enumerates from it

    report = oracle.compare_words_walks(span, max_len)
    failures = [] if report.ok else [report.mismatch]
    results.append(_result("oracle.walk-bijection", failures, "%d items" % report.count))

    rank = oracle.pi1_rank(graph, span.base_vertex)
    failures = []
    if rank < 0:
        failures.append("negative rank %d" % rank)
    if rank == 0:
        for v in span.vertices():
            n = len(tree.nodes_at(v, max_len))
            if n > 1:
                failures.append("rank 0 but %d words reach %s" % (n, span.vertex_label(v)))
    else:
        counts = [tree.size(k) for k in range(max_len + 1)]
        if any(a >= b for a, b in zip(counts, counts[1:])):
            failures.append("rank %d but walk counts do not grow strictly" % rank)
    results.append(_result("oracle.rank-consistency", failures, "rank %d" % rank))
    return results


# ---------------------------------------------------------------- stages


def stage_suite(stages):
    """The stage rows; stages.cycle-report fails unless every gluing graph is a forest."""
    results = []
    span, depth = stages[0].span, len(stages) - 1

    failures = [
        "stage 0 %s fiber %s has %d classes" % (v.side, span.vertex_label(v), size)
        for v, size in stages[0].sizes.items()
        if size != (1 if v == span.base_vertex else 0)
    ]
    results.append(_result("stages.zero-case", failures))

    report = stage_word_bijection(stages)
    results.append(_result("stages.word-bijection", report.failures))

    failures = []
    vertices = span.vertices()
    diagrams = [stage_diagram(stages, v) for v in vertices]
    for v, diagram in zip(vertices, diagrams):
        for k, images in enumerate(diagram.maps, 1):
            if len(set(images)) != len(images):
                failures.append(
                    "stage %d %s inclusion at %s not injective" % (k, v.side, span.vertex_label(v))
                )
    results.append(_result("stages.incl-injective", failures))

    failures = [
        "stage %d %s: %d cycles" % (k, span.vertex_label(v), cycles)
        for k in range(depth + 1)
        for v, cycles in cycle_diagnostic(stages, k).items()
        if cycles
    ]
    results.append(_result("stages.cycle-report", failures, "all gluing graphs are forests"))

    failures = []
    if report.ok:
        for v, diagram in zip(vertices, diagrams):
            limit = direct_limit(diagram)
            expected = report.tree.nodes_at(v, word_bound(depth, v))
            nodes = [x for k in range(depth + 1) for x in report.word_maps[(k, v)]]
            labels, mixed = class_labels(limit.class_of, limit.class_count, nodes)
            if mixed:
                failures.append("limit class at %s mixes words" % span.vertex_label(v))
            if len(labels) != len(expected) or set(labels) != set(expected):
                failures.append(
                    "limit of %s has %d classes, %d words"
                    % (span.vertex_label(v), limit.class_count, len(expected))
                )
    else:
        failures.append("skipped: word bijection failed")
    results.append(_result("stages.colimit-agreement", failures))
    return results


def zigzag_suite(stages):
    """Construction zigzags per edge: triangle conditions plus limit round trips."""
    results = []
    span = stages[0].span
    failures = []
    checked = 0
    for s in range(len(span.edges)):
        try:
            equivalence = zigzag_equivalence(construction_zigzag(stages, s))
        except ValueError as exc:
            failures.append("edge %s: %s" % (span.edge_label(s), exc))
            continue
        checked += equivalence.checked
        if not equivalence.ok:
            failures.append(
                "edge %s: %s" % (span.edge_label(s), "; ".join(equivalence.failures[:3]))
            )
    results.append(
        _result("stages.zigzag-equivalence", failures, "%d round trips" % checked)
    )
    return results


# ---------------------------------------------------------------- seq_colim


def seqcolim_suite(stages, seed=0):
    results = []
    rng = random.Random(seed)
    span = stages[0].span
    vertices = span.vertices()
    diagrams = [stage_diagram(stages, v) for v in vertices]
    limits = [direct_limit(diagram) for diagram in diagrams]

    failures = []
    for v, diagram, limit in zip(vertices, diagrams, limits):
        # one glued pair per triple, so shuffling reorders every union
        offsets = limit.offsets
        glue = [
            (offsets[n] + x, offsets[n + 1], (y,))
            for n, step in enumerate(diagram.maps)
            for x, y in enumerate(step)
        ]
        for _ in range(3):
            rng.shuffle(glue)
            if partition(len(limit.class_of), glue) != (limit.class_of, limit.class_count):
                failures.append("union order changed classes at %s" % span.vertex_label(v))
    results.append(_result("seqcolim.union-order-determinism", failures))

    failures = []
    for v, diagram, limit in zip(vertices, diagrams, limits):
        injective = all(len(set(step)) == len(step) for step in diagram.maps)
        if injective and limit.class_count != diagram.sizes[-1]:
            failures.append(
                "injective chain at %s: %d classes, last level %d"
                % (span.vertex_label(v), limit.class_count, diagram.sizes[-1])
            )
    results.append(_result("seqcolim.injective-classes", failures))

    failures = []
    for v, diagram, lim in zip(vertices, diagrams, limits):
        lim_shift = direct_limit(shift_diagram(diagram))
        # level n of the shifted diagram is level n + 1: the canonical inclusion's class map
        image, mixed = class_labels(
            lim_shift.class_of, lim_shift.class_count, lim.class_of[diagram.sizes[0] :]
        )
        if mixed or lim_shift.class_count != lim.class_count or len(set(image)) != lim.class_count:
            failures.append("shift changed the limit at %s" % span.vertex_label(v))
    results.append(_result("seqcolim.shift-invariance", failures))

    failures = []
    for s in range(len(span.edges)):
        try:
            z = construction_zigzag(stages, s)
        except ValueError as exc:
            failures.append("edge %s: %s" % (span.edge_label(s), exc))
            continue
        first = zigzag_to_morphism(z)
        second = zigzag_to_morphism(half_shift(z))
        # composing through the half-shift needs the first morphism cut to size
        cut = len(second.source.sizes)
        first_cut = SeqMorphism(
            truncate_diagram(first.source, cut - 1),
            truncate_diagram(first.target, cut - 1),
            first.levels[:cut],
        )
        composite = compose_morphisms(second, first_cut)
        # first_cut.target is second.source, so three limits serve all three maps
        source, middle, target = map(direct_limit, (first_cut.source, second.source, second.target))
        lhs = map_of_limits(composite, source, target)
        inner = map_of_limits(first_cut, source, middle)
        outer = map_of_limits(second, middle, target)
        if any(outer[inner[c]] != image for c, image in enumerate(lhs)):
            failures.append("composition law fails across edge %s" % span.edge_label(s))
    results.append(_result("seqcolim.map-composition", failures))
    return results


# ---------------------------------------------------------------- idsys


def idsys_suite(span, bound=6, seed=0):
    results = []
    rng = random.Random(seed)
    families = [("trivial", idsys.trivial_family(span, bound))]
    for s in range(len(span.edges)):
        families.append(("parity@%s" % span.edge_label(s), idsys.parity_family(span, bound, s)))
        families.append(("winding@%s" % span.edge_label(s), idsys.winding_family(span, bound, s)))
    for k in range(2):
        families.append(("random%d" % k, idsys.random_family(span, bound, rng)))

    failures = []
    for name, fam in families:
        q0 = 0  # every builder family keeps 0 in each fiber; winding is window-safe only from 0
        section = idsys.elim_section(fam, q0)
        comp = idsys.check_computation(fam, q0, section)
        if not comp.ok:
            failures.append("%s: %s" % (name, comp.violations[0]))
    results.append(_result("idsys.fold-families", failures, "%d families" % len(families)))

    report = idsys.encode_decode(span, bound)
    results.append(
        _result(
            "idsys.encode-decode",
            report.identity_mismatches + report.naturality_mismatches,
            "%d identities, %d squares" % (report.identity_checked, report.naturality_checked),
        )
    )

    failures = []
    same = {0: 0, 1: 1}
    fam = idsys.build_family(span, bound, lambda v: (0, 1), lambda s: same)
    q0 = fam.fibers[span.base_vertex][0]
    section = idsys.elim_section(fam, q0)
    # length <= bound - 1 keeps the flipped value inside check_computation's window
    tree = fam.tree
    target = tree.size(bound - 1) - 1  # the last such word; refl on edgeless spans
    corrupted = list(section.values)
    corrupted[target] = corrupted[target] ^ 1
    bad = idsys.Section(fam, corrupted)
    if idsys.check_computation(fam, q0, bad).ok:
        failures.append("corrupted section passed check_computation")
    if idsys.uniqueness_check(fam, q0, bad).ok:
        failures.append("corrupted section passed uniqueness_check")
    results.append(
        _result(
            "idsys.negative-controls",
            failures,
            "corruption at %s detected" % tree.text(target),
        )
    )
    return results


# ---------------------------------------------------------------- random spans

# random_span's size bounds and walk screen; random_span_suite's size and depth
RANDOM_MAX_SIDE = 5
RANDOM_MAX_EDGES = 8
RANDOM_MAX_LEN = 8
RANDOM_WALK_BUDGET = 4000
SUITE_SPANS = 100
SUITE_DEPTH = 4


def random_span(rng):
    """A seeded random span within the size bounds, screened for desk scale.

    Spans over RANDOM_WALK_BUDGET non-backtracking walks of length at most
    RANDOM_MAX_LEN are redrawn (deterministically, from the same stream);
    accepted spans still satisfy the RANDOM_MAX_* size bounds.
    """
    while True:
        na = rng.randint(1, RANDOM_MAX_SIDE)
        nb = rng.randint(1, RANDOM_MAX_SIDE)
        ns = rng.randint(0, RANDOM_MAX_EDGES)
        span = FiniteSpan(
            tuple("a%d" % i for i in range(na)),
            tuple("b%d" % j for j in range(nb)),
            tuple(("s%d" % k, rng.randrange(na), rng.randrange(nb)) for k in range(ns)),
            rng.randrange(na),
        )
        walks = sum(sum(at.values()) for at in count_words(span, RANDOM_MAX_LEN))
        if walks <= RANDOM_WALK_BUDGET:
            return span


def random_span_suite(seed=0):
    """Walk-oracle and stage-bijection cross-check over seeded random spans.

    A failure names the span by its index and its span-file text (a Python
    string literal, so parse_span reproduces the span from the message).
    """
    rng = random.Random(seed)
    failures = []
    for i in range(SUITE_SPANS):
        span = random_span(rng)
        report = oracle.compare_words_walks(span, RANDOM_MAX_LEN)
        if not report.ok:
            failures.append("span %d: %s (span %r)" % (i, report.mismatch, serialize_span(span)))
        bij = stage_word_bijection(build_stages(span, SUITE_DEPTH))
        if not bij.ok:
            failures.append("span %d: %s (span %r)" % (i, bij.failures[0], serialize_span(span)))
    return [_result("random-spans.cross-check", failures, "%d spans" % SUITE_SPANS)]


# ---------------------------------------------------------------- aggregate


def run_all(span, seed=0, max_len=8, stage_depth=4, with_oracle=False):
    """Every module's invariant suite on one span; the CLI `check` backend.

    Each model is built once: the three stage suites read prefixes of one build.
    """
    tree = word_tree(span, max(max_len, 2 * stage_depth))  # held, so every suite shares it
    stages = build_stages(span, stage_depth + 1)
    results = []
    results += word_suite(span, max_len=max_len, seed=seed)
    results += stage_suite(stages[: stage_depth + 1])
    results += zigzag_suite(stages)
    results += seqcolim_suite(stages[: min(stage_depth, 3) + 1], seed=seed)
    del stages  # idsys_suite, the peak of a run's memory, runs without them
    results += idsys_suite(span, bound=min(max_len, 6), seed=seed)
    if with_oracle:
        results += oracle_suite(span, max_len=max_len)
    return results
