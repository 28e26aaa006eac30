"""Benchmark inputs and the reference counts their outputs are checked against.

Everything here is independent of the ``spanpaths`` package: spans are plain
tuples, span text is written and read by the functions below, and every
expected count comes from a non-backtracking edge transfer-matrix count
(Hashimoto, "Zeta functions of finite graphs and representations of p-adic
groups", 1989) rather than from the program under test.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import NamedTuple


class Span(NamedTuple):
    """A span in the benchmark's own representation."""

    a: tuple  # A-side labels
    b: tuple  # B-side labels
    edges: tuple  # (label, a index, b index)
    base: int  # index into a


def span_text(span):
    """Render span-file text (the format documented in the README)."""
    lines = ["A " + " ".join(span.a)]
    if span.b:
        lines.append("B " + " ".join(span.b))
    lines += ["S %s %s %s" % (e, span.a[i], span.b[j]) for e, i, j in span.edges]
    lines.append("base " + span.a[span.base])
    return "\n".join(lines) + "\n"


def read_span(text):
    """Read span-file text written in the documented format (no error reporting)."""
    a, b, raw, base = [], [], [], None
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "A":
            a += rest
        elif head == "B":
            b += rest
        elif head == "S":
            raw.append(rest)
        elif head == "base":
            base = rest[0]
    edges = tuple((e, a.index(x), b.index(y)) for e, x, y in raw)
    return Span(tuple(a), tuple(b), edges, a.index(base))


def k33():
    """The complete bipartite graph K_{3,3}, based at a0."""
    edges = tuple(("e%d%d" % (i, j), i, j) for i in range(3) for j in range(3))
    return Span(("a0", "a1", "a2"), ("b0", "b1", "b2"), edges, 0)


def bouquet(k):
    """A bouquet of k circles: one A vertex, circle i is two edges to B vertex b_i."""
    edges = []
    for i in range(k):
        edges += [("s%d" % i, 0, i), ("t%d" % i, 0, i)]
    return Span(("a",), tuple("b%d" % i for i in range(k)), tuple(edges), 0)


# ------------------------------------------------------------ reference counts


def walk_counts(span, max_len):
    """``counts[l][(side, index)]``: reduced words of length l from the basepoint.

    A state is the last edge crossed; the next crossing leaves from that
    edge's far end along any other edge, which is the non-backtracking
    condition on the bipartite realization.
    """
    at_a, at_b = {}, {}
    for s, (_, i, j) in enumerate(span.edges):
        at_a.setdefault(i, []).append(s)
        at_b.setdefault(j, []).append(s)
    counts = [{("A", span.base): 1}]
    state = Counter(at_a.get(span.base, ()))
    for length in range(1, max_len + 1):
        on_b = length % 2 == 1
        row = Counter()
        nxt = Counter()
        for s, c in state.items():
            far = span.edges[s][2] if on_b else span.edges[s][1]
            row[("B" if on_b else "A", far)] += c
            for t in (at_b if on_b else at_a)[far]:
                if t != s:
                    nxt[t] += c
        counts.append(dict(row))
        state = nxt
    return counts


def words_upto(counts, bound, vertex=None):
    """Reduced words of length <= bound, to one vertex or to any."""
    total = 0
    for row in counts[: bound + 1]:
        total += row.get(vertex, 0) if vertex is not None else sum(row.values())
    return total


def degree(span, vertex):
    side, index = vertex
    column = 1 if side == "A" else 2
    return sum(1 for e in span.edges if e[column] == index)


def stage_table(span, depth):
    """Per stage and fiber: (classes, cells, glue edges) of the staged construction.

    Stage n holds the words of length <= 2n on the A side and <= 2n - 1 on
    the B side. A stage-n pushout has the previous classes on the left, one
    bridged cell per (incident edge, class at its other end) on the right,
    and one glue edge per (incident edge, previous class).
    """
    counts = walk_counts(span, 2 * depth)
    verts = [("A", i) for i in range(len(span.a))] + [("B", j) for j in range(len(span.b))]

    def classes(n, v):
        bound = 2 * n if v[0] == "A" else 2 * n - 1
        return words_upto(counts, bound, v) if bound >= 0 else 0

    rows = [{v: (classes(0, v), classes(0, v), 0) for v in verts}]
    for n in range(1, depth + 1):
        row = {}
        for v in verts:
            left = classes(n - 1, v)
            if v[0] == "B":
                right = sum(classes(n - 1, ("A", i)) for _, i, j in span.edges if j == v[1])
            else:
                right = sum(classes(n, ("B", j)) for _, i, j in span.edges if i == v[1])
            row[v] = (classes(n, v), left + right, degree(span, v) * left)
        rows.append(row)
    return rows


def stage_cells(span, depth):
    """Total pushout cells built by a stage construction up to ``depth``."""
    return sum(cells for row in stage_table(span, depth) for _, cells, _ in row.values())


def rank_at_base(span):
    """First Betti number of the basepoint's component: edges - vertices + 1."""
    seen = {("A", span.base)}
    queue = deque(seen)
    while queue:
        side, index = queue.popleft()
        for _, i, j in span.edges:
            if side == "A" and i == index:
                other = ("B", j)
            elif side == "B" and j == index:
                other = ("A", i)
            else:
                continue
            if other not in seen:
                seen.add(other)
                queue.append(other)
    inside = sum(1 for _, i, _ in span.edges if ("A", i) in seen)
    return inside - len(seen) + 1


def fold_squares(span, counts, bound):
    """Naturality squares ``encode_decode(span, bound)`` must check.

    One per (word w of length <= bound - 1 ending on the A side, edge s at
    its end) whose crossed word also has length <= bound - 1: every edge when
    len(w) <= bound - 2, and only the cancelling edge when len(w) = bound - 1.
    """
    total = 0
    for length in range(0, bound, 2):
        for vertex, c in counts[length].items():
            if length <= bound - 2:
                total += c * degree(span, vertex)
            elif length > 0:
                total += c
    return total


# ------------------------------------------------------------ random spans


WALK_BUDGET = 4000  # checks.random_span's screen
SCHEDULE_SAMPLE = 5000


def draw_span(rng, max_side=5, max_edges=8):
    """One draw within the size bounds of ``checks.random_span``, in its order."""
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    edges = tuple(
        ("s%d" % k, rng.randrange(na), rng.randrange(nb))
        for k in range(rng.randint(0, max_edges))
    )
    return Span(tuple("a%d" % i for i in range(na)), tuple("b%d" % j for j in range(nb)), edges, rng.randrange(na))


def span_walks(span, max_len=8):
    """Reduced words of length <= max_len from the basepoint: the screen's count."""
    return words_upto(walk_counts(span, max_len), max_len)


def free_draws(rng, count):
    """Spans as ``checks.random_span`` accepts them: redrawn until within the budget."""
    spans = []
    while len(spans) < count:
        span = draw_span(rng)
        if span_walks(span) <= WALK_BUDGET:
            spans.append(span)
    return spans


def walk_schedule(count):
    """Walk-count targets of ``count`` slots: the mid-slot quantiles of free draws.

    ``SCHEDULE_SAMPLE`` free draws from one fixed stream, screened like
    ``checks.random_span``, are sorted by walk count; slot i takes the
    quantile (i + 1/2) / count. The schedule is the same for every seed.
    """
    walks = sorted(span_walks(span) for span in free_draws(make_rng(0, "schedule"), SCHEDULE_SAMPLE))
    return [walks[int((i + 0.5) / count * len(walks))] for i in range(count)]


def random_spans(rng, count):
    """Seeded random spans whose walk counts follow ``walk_schedule(count)``.

    Slot i is accepted only when its walk count lies within 10% of its
    target; the band widens by half after every 400 rejected draws, so every
    slot ends. The schedule holds the size mix of free draws, so the seed
    changes the spans without changing how much work the corpus holds.
    """
    spans = []
    for target in walk_schedule(count):
        tolerance = 0.1
        rejected = 0
        while True:
            span = draw_span(rng)
            if target / (1 + tolerance) <= span_walks(span) <= min(target * (1 + tolerance), WALK_BUDGET):
                spans.append(span)
                break
            rejected += 1
            if rejected % 400 == 0:
                tolerance *= 1.5
    return spans


def make_rng(seed, stream):
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random("%d/%s" % (seed, stream))
