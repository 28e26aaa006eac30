"""Staged pushout approximations of based path spaces over a span.

Stage n of the A-side family over a vertex holds (classes of) cells for
based walks crossing between the two sides at most 2n times; the B side at
most 2n - 1 times. Stage 0 is primitive: the B side is empty and the A side
has the single cell ``refl`` over the basepoint. Every later stage is the
pushout of an explicit span of cells,

    previous classes  <--  (edge, previous class) pairs  -->  bridged cells,

whose middle encodes one-step backtracking identifications: gluing says that
including an old cell equals bridging it across an edge and straight back.
Connected components of that gluing, computed by union-find, are the stage's
classes. The bridge maps themselves are not recursive: the forward bridge
out of stage n is simply the right point constructor of the stage n + 1
B-side pushout, and dually for the backward bridge, so they are read off
after each pushout is formed.

The gluing spans are retained on each stage so the identifications can be
reported symbolically and refolded (cogap_set) against independent data,
most importantly the reduced-word model: stage_word_bijection labels every
cell with a reduced word and checks that classes are exactly the words
within the stage's length bound, naturally in all stage maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .seqcolim import FinSeqDiagram, QuotientSet, SeqZigzag, shift_diagram, truncate_diagram
from .span import Vertex
from .words import concat_bwd, concat_fwd, enumerate_words


@dataclass(frozen=True)
class SpanInstance:
    """A span of finite sets: left <- middle -> right with total maps."""

    left: tuple
    middle: tuple
    right: tuple
    lmap: dict
    rmap: dict

    def __post_init__(self):
        for name, elems in (("left", self.left), ("middle", self.middle), ("right", self.right)):
            if len(set(elems)) != len(elems):
                raise ValueError("duplicate elements in %s set" % (name,))
        lset, rset = set(self.left), set(self.right)
        for m in self.middle:
            if m not in self.lmap or self.lmap[m] not in lset:
                raise ValueError("left leg undefined or out of range at %r" % (m,))
            if m not in self.rmap or self.rmap[m] not in rset:
                raise ValueError("right leg undefined or out of range at %r" % (m,))


def pushout_pi0(sp):
    """Sealed quotient of left + right by inl(lmap m) ~ inr(rmap m) for every middle m."""
    cells = [("inl", x) for x in sp.left] + [("inr", y) for y in sp.right]
    q = QuotientSet(cells)
    for m in sp.middle:
        q.union(("inl", sp.lmap[m]), ("inr", sp.rmap[m]))
    return q.seal()


def _cell_value(cell, left_map, right_map):
    tag, payload = cell
    return left_map[payload] if tag == "inl" else right_map[payload]


def cogap_set(quot, sp, left_map, right_map):
    """Unique factorization of a consistent cocone through the pushout classes.

    ``quot`` is the pushout's quotient (pushout_pi0(sp), or a stage's stored
    one); ``left_map`` and ``right_map`` are dicts into a common codomain.
    Consistency (they agree across the middle) is checked and a ValueError
    raised otherwise. Returns a dict from class representatives to values.
    """
    for m in sp.middle:
        lv = left_map[sp.lmap[m]]
        rv = right_map[sp.rmap[m]]
        if lv != rv:
            raise ValueError(
                "inconsistent cocone at middle element %r: %r != %r" % (m, lv, rv)
            )
    out = {}
    for cls in quot.classes():
        value = _cell_value(cls[0], left_map, right_map)
        for cell in cls[1:]:
            other = _cell_value(cell, left_map, right_map)
            if other != value:
                # only reachable when quot is not the pushout of sp
                raise ValueError("cocone not constant on the class of %r" % (cls[0],))
        out[cls[0]] = value
    return out


@dataclass
class StageFamily:
    """One stage of the construction; built by build_stages, then read-only.

    Quotient elements are tagged cells carrying their full provenance:
    ``("inl", p)`` includes a previous class, ``("inr", (s, q))`` bridges a
    class q across edge s. ``bwd_maps[s]`` sends this stage's B classes over
    the edge's B end to A classes over its A end; ``fwd_maps[s]`` sends this
    stage's A classes into the next stage's B classes and is filled in when
    that stage is built (None on the last stage).
    """

    span: object
    n: int
    pa_quot: tuple
    pb_quot: tuple
    spans_a: tuple | None
    spans_b: tuple | None
    incl_a: tuple | None
    incl_b: tuple | None
    bwd_maps: tuple
    fwd_maps: tuple | None = None

    def pa_classes(self, a):
        return self.pa_quot[a].representatives()

    def pb_classes(self, b):
        return self.pb_quot[b].representatives()

    def glue_edges(self, vertex):
        """Symbolic gluing identifications (inl cell, inr cell) for one fiber."""
        spans = self.spans_a if vertex.side == "A" else self.spans_b
        if spans is None:
            return ()
        sp = spans[vertex.index]
        return tuple((("inl", sp.lmap[m]), ("inr", sp.rmap[m])) for m in sp.middle)


def build_stages(span, n_max):
    """Run the staged construction from stage 0 through stage n_max.

    Within a stage the B side is built first (its gluing middle backtracks
    across the previous stage's backward bridges), the forward bridges out
    of the previous stage are read off as its right point constructors, and
    the A side is built on top of the fresh B classes.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    na, nb = len(span.a_vertices), len(span.b_vertices)
    edges_at_a = [span.edges_at(Vertex("A", a)) for a in range(na)]
    edges_at_b = [span.edges_at(Vertex("B", b)) for b in range(nb)]

    stages = [
        StageFamily(
            span=span,
            n=0,
            pa_quot=tuple(
                QuotientSet(("refl",) if a == span.basepoint else ()).seal() for a in range(na)
            ),
            pb_quot=tuple(QuotientSet(()).seal() for _ in range(nb)),
            spans_a=None,
            spans_b=None,
            incl_a=None,
            incl_b=None,
            bwd_maps=tuple({} for _ in span.edges),
        )
    ]
    for n in range(1, n_max + 1):
        prev = stages[-1]

        spans_b, pb_quot = [], []
        for b in range(nb):
            prev_classes = prev.pb_classes(b)
            left = tuple(prev_classes)
            middle = tuple((s, p) for s in edges_at_b[b] for p in prev_classes)
            right = tuple(
                (s, d) for s in edges_at_b[b] for d in prev.pa_classes(span.a_end(s))
            )
            lmap = {(s, p): p for s, p in middle}
            rmap = {(s, p): (s, prev.bwd_maps[s][p]) for s, p in middle}
            sp = SpanInstance(left, middle, right, lmap, rmap)
            spans_b.append(sp)
            pb_quot.append(pushout_pi0(sp))

        # forward bridge out of stage n - 1: right point constructor of this pushout
        prev_fwd = []
        for s in range(len(span.edges)):
            b = span.b_end(s)
            prev_fwd.append(
                {d: pb_quot[b].find(("inr", (s, d))) for d in prev.pa_classes(span.a_end(s))}
            )
        prev.fwd_maps = tuple(prev_fwd)

        spans_a, pa_quot = [], []
        for a in range(na):
            prev_classes = prev.pa_classes(a)
            left = tuple(prev_classes)
            middle = tuple((s, p) for s in edges_at_a[a] for p in prev_classes)
            right = tuple(
                (s, q)
                for s in edges_at_a[a]
                for q in pb_quot[span.b_end(s)].representatives()
            )
            lmap = {(s, p): p for s, p in middle}
            rmap = {(s, p): (s, prev.fwd_maps[s][p]) for s, p in middle}
            sp = SpanInstance(left, middle, right, lmap, rmap)
            spans_a.append(sp)
            pa_quot.append(pushout_pi0(sp))

        bwd_maps = tuple(
            {
                q: pa_quot[span.a_end(s)].find(("inr", (s, q)))
                for q in pb_quot[span.b_end(s)].representatives()
            }
            for s in range(len(span.edges))
        )
        incl_a = tuple(
            {p: pa_quot[a].find(("inl", p)) for p in prev.pa_classes(a)} for a in range(na)
        )
        incl_b = tuple(
            {p: pb_quot[b].find(("inl", p)) for p in prev.pb_classes(b)} for b in range(nb)
        )
        stages.append(
            StageFamily(
                span=span,
                n=n,
                pa_quot=tuple(pa_quot),
                pb_quot=tuple(pb_quot),
                spans_a=tuple(spans_a),
                spans_b=tuple(spans_b),
                incl_a=incl_a,
                incl_b=incl_b,
                bwd_maps=bwd_maps,
            )
        )
    return stages


def cycle_diagnostic(stages, n):
    """Independent cycles of each fiber's gluing graph at stage n.

    cycles = glue edges - cells + components. Zero means the gluing graph is
    a forest, so the stage pushout has no component-level 2-cells; the word
    model only ever claims agreement with components, so this is reported,
    never assumed.
    """
    st = stages[n]
    span = st.span
    out = {}
    for a in range(len(span.a_vertices)):
        glue = len(st.spans_a[a].middle) if st.spans_a is not None else 0
        out[Vertex("A", a)] = glue - len(st.pa_quot[a]) + st.pa_quot[a].class_count
    for b in range(len(span.b_vertices)):
        glue = len(st.spans_b[b].middle) if st.spans_b is not None else 0
        out[Vertex("B", b)] = glue - len(st.pb_quot[b]) + st.pb_quot[b].class_count
    return out


@dataclass
class BijectionReport:
    """Outcome of matching stage classes against the reduced-word model.

    ``word_maps[(n, vertex)]`` sends class representatives to words; rows
    are (stage, vertex, classes, words, matched) per fiber. failures holds
    structured counterexample descriptions, so ok means a full bijection
    commuting with inclusion and both bridges.
    """

    max_stage: int
    word_maps: dict
    rows: list
    failures: list

    @property
    def ok(self):
        return not self.failures


def stage_word_bijection(stages, n):
    """Match stage classes with reduced words, stage by stage up to n.

    Each cell is labelled with a word by folding the stage's gluing span
    through cogap_set: included cells keep their previous word, bridged
    cells concatenate a crossing. The report records, per fiber, whether the
    class labelling is a bijection onto the words within the stage bound
    (2n on the A side, 2n - 1 on the B side) and whether it commutes with
    inclusion and the bridge maps. Mismatches are reported, not raised.
    """
    span = stages[0].span
    na, nb = len(span.a_vertices), len(span.b_vertices)
    word_maps = {}
    rows = []
    failures = []

    def check_fiber(stage, vertex, word_map, bound):
        words = list(word_map.values())
        expected = enumerate_words(span, vertex, bound)
        label = "stage %d %s fiber %s" % (stage, vertex.side, span.vertex_label(vertex))
        if len(set(words)) != len(words):
            failures.append("%s: class labelling is not injective" % (label,))
        if set(words) != set(expected):
            missing = [w for w in expected if w not in set(words)]
            extra = [w for w in words if w not in set(expected)]
            failures.append(
                "%s: classes and words differ (missing %r, extra %r)"
                % (label, missing, extra)
            )
        rows.append((stage, vertex, len(word_map), len(expected), set(words) == set(expected)))

    for k in range(n + 1):
        st = stages[k]
        if k == 0:
            for a in range(na):
                vtx = Vertex("A", a)
                word_maps[(0, vtx)] = {"refl": ()} if a == span.basepoint else {}
                check_fiber(0, vtx, word_maps[(0, vtx)], 0)
            for b in range(nb):
                vtx = Vertex("B", b)
                word_maps[(0, vtx)] = {}
                check_fiber(0, vtx, word_maps[(0, vtx)], -1)
            continue
        for b in range(nb):
            vtx = Vertex("B", b)
            sp = st.spans_b[b]
            left_map = word_maps[(k - 1, vtx)]
            right_map = {
                (s, d): concat_fwd(span, word_maps[(k - 1, Vertex("A", span.a_end(s)))][d], s)
                for s, d in sp.right
            }
            try:
                word_maps[(k, vtx)] = cogap_set(st.pb_quot[b], sp, left_map, right_map)
            except ValueError as exc:
                failures.append("stage %d B fiber %s: %s" % (k, span.vertex_label(vtx), exc))
                return BijectionReport(n, word_maps, rows, failures)
            check_fiber(k, vtx, word_maps[(k, vtx)], 2 * k - 1)
        for a in range(na):
            vtx = Vertex("A", a)
            sp = st.spans_a[a]
            left_map = word_maps[(k - 1, vtx)]
            right_map = {
                (s, q): concat_bwd(span, word_maps[(k, Vertex("B", span.b_end(s)))][q], s)
                for s, q in sp.right
            }
            try:
                word_maps[(k, vtx)] = cogap_set(st.pa_quot[a], sp, left_map, right_map)
            except ValueError as exc:
                failures.append("stage %d A fiber %s: %s" % (k, span.vertex_label(vtx), exc))
                return BijectionReport(n, word_maps, rows, failures)
            check_fiber(k, vtx, word_maps[(k, vtx)], 2 * k)

        # naturality: inclusion preserves words, bridges concatenate crossings
        for a in range(na):
            vtx = Vertex("A", a)
            for p, w in word_maps[(k - 1, vtx)].items():
                if word_maps[(k, vtx)][st.incl_a[a][p]] != w:
                    failures.append(
                        "stage %d: A inclusion moves the word of %r" % (k, p)
                    )
        for b in range(nb):
            vtx = Vertex("B", b)
            for p, w in word_maps[(k - 1, vtx)].items():
                if word_maps[(k, vtx)][st.incl_b[b][p]] != w:
                    failures.append(
                        "stage %d: B inclusion moves the word of %r" % (k, p)
                    )
        for s in range(len(span.edges)):
            src = Vertex("B", span.b_end(s))
            dst = Vertex("A", span.a_end(s))
            for q, w in word_maps[(k, src)].items():
                if word_maps[(k, dst)][st.bwd_maps[s][q]] != concat_bwd(span, w, s):
                    failures.append(
                        "stage %d: backward bridge over %s breaks naturality at %r"
                        % (k, span.edge_label(s), q)
                    )
    # forward-bridge naturality needs both stages' words, so run it after the loop
    for k in range(n):
        for s in range(len(span.edges)):
            src = Vertex("A", span.a_end(s))
            dst = Vertex("B", span.b_end(s))
            for p, w in word_maps[(k, src)].items():
                image = stages[k].fwd_maps[s][p]
                if word_maps[(k + 1, dst)][image] != concat_fwd(span, w, s):
                    failures.append(
                        "stage %d: forward bridge over %s breaks naturality at %r"
                        % (k, span.edge_label(s), p)
                    )
    return BijectionReport(n, word_maps, rows, failures)


def stage_diagram(stages, vertex):
    """Sequential diagram of one fiber's classes, connected by inclusion."""
    side, idx = vertex
    sets = []
    maps = []
    for k, st in enumerate(stages):
        quot = st.pa_quot[idx] if side == "A" else st.pb_quot[idx]
        sets.append(tuple(quot.representatives()))
        if k > 0:
            incl = st.incl_a[idx] if side == "A" else st.incl_b[idx]
            maps.append(dict(incl))
    return FinSeqDiagram(tuple(sets), tuple(maps))


def construction_zigzag(stages, s):
    """The zigzag an edge induces between its two fiber families.

    Left side: A-side classes over the edge's A end, stages 0..m-1. Right
    side: B-side classes over its B end, stages 1..m. Forward maps are the
    forward bridges, backward maps the backward bridges; constructing the
    SeqZigzag checks both triangle families pointwise, which is exactly the
    statement that gluing identifies inclusion with a there-and-back bridge.
    """
    m = len(stages) - 1
    if m < 1:
        raise ValueError("need at least stages 0 and 1")
    a, b = stages[0].span.a_end(s), stages[0].span.b_end(s)
    left = truncate_diagram(stage_diagram(stages, Vertex("A", a)), m - 1)
    right = shift_diagram(stage_diagram(stages, Vertex("B", b)))
    fwd = tuple(stages[k].fwd_maps[s] for k in range(m))
    bwd = tuple(stages[k + 1].bwd_maps[s] for k in range(m - 1))
    return SeqZigzag(left, right, fwd, bwd)
