"""Staged pushout approximations of based path spaces over a span.

Stage n of the A-side family over a vertex holds (classes of) cells for
based walks crossing between the two sides at most 2n times; the B side at
most 2n - 1 times. Stage 0 is primitive: the B side is empty and the A side
has the single cell ``refl`` over the basepoint (class 0). Every later stage
is the pushout of an explicit span of cells,

    previous classes  <--  (edge, previous class) pairs  -->  bridged cells,

whose middle encodes one-step backtracking identifications: gluing says that
including an old cell equals bridging it across an edge and straight back.

Cells are integers. A fiber's cells are its inl block ``0..L-1``, one cell
per previous class of the same fiber, followed by one inr block per incident
edge, in ``edges_at`` order, each at a fixed offset; the block of edge s
holds one cell per class at the edge's other end. The gluing identifies inl
cell p with cell ``offset_s + bridge_s[p]``. Connected components, computed
by seqcolim.partition (the union-find behind direct limits too), are the
stage's classes, numbered ``0..k-1`` in order of their least cell.

A stage stores only its gluing span and its partition: one fiber table,
``class_of[v]`` and ``sizes[v]`` keyed by Vertex on both sides, and the
bridges its gluing followed, indexed by edge. Every map of the construction
is a block of cells read off a pushout. A fiber's inclusion is its inl
block, ``class_of[v][:L]``; the forward bridge out of stage n over edge s is
the block of s in the stage n + 1 B fiber, the backward bridge the block of
s in the stage n A fiber, each kept once, as the bridge the next stage's
gluing follows. Provenance is decoded only on request (glue_edges, which
the library itself never calls). The stored bridges let the identifications
be refolded (cogap_set) against independent data, most importantly the
reduced-word model: stage_word_bijection labels every cell with a reduced
word, as a node id of one words.WordTree, and checks that classes are
exactly the words within the stage's length bound. The pushouts
(build_stages) read no word.
"""

from __future__ import annotations

from typing import NamedTuple

from .seqcolim import FinSeqDiagram, SeqZigzag, partition, shift_diagram, truncate_diagram
from .span import Vertex, realize
from .words import WordTree, word_tree


def _offsets(left, blocks):
    """Offset of each block after the inl block, and the cell count.

    Rejects a bridge that is not total on the inl block or that sends a cell
    outside its own block.
    """
    offsets = []
    offset = left
    for i, (size, bridge) in enumerate(blocks):
        if len(bridge) != left:
            raise ValueError(
                "bridge %d is not total: %d images for %d inl cells" % (i, len(bridge), left)
            )
        if bridge and not (0 <= min(bridge) and max(bridge) < size):
            raise ValueError("bridge %d leaves its block of %d cells" % (i, size))
        offsets.append(offset)
        offset += size
    return offsets, offset


def pushout_pi0(left, blocks):
    """Classes of the pushout  inl block <- inl block x blocks -> blocks.

    Cells are ``0..left-1`` (the inl block), then each ``(size, bridge)`` of
    ``blocks`` in order at a fixed offset; every inl cell p is glued to cell
    ``bridge[p]`` of every block. Returns seqcolim.partition's
    ``(class_of, count)``: class ids number the classes by least cell.
    """
    offsets, total = _offsets(left, blocks)
    glue = [(0, offset, bridge) for offset, (_size, bridge) in zip(offsets, blocks)]
    return partition(total, glue)


def cogap_set(class_of, left, blocks, values):
    """Unique factorization of a consistent cocone through the pushout classes.

    ``class_of`` partitions the cells of the gluing span ``(left, blocks)``
    (pushout_pi0's result, or a stage's stored one); ``values`` gives every
    cell, inl block first, a value in a common codomain. Consistency (the
    two cells of every glue pair agree) is checked and a ValueError raised
    otherwise; a block is compared whole with the inl block (list or tuple
    values) and searched for its first bad inl cell only on a mismatch.
    Returns a tuple of values indexed by class id.
    """
    offsets, total = _offsets(left, blocks)
    if len(class_of) != total or len(values) != total:
        raise ValueError("need one class id and one value for each of %d cells" % (total,))
    head = list(values[:left])
    for i, (offset, (size, bridge)) in enumerate(zip(offsets, blocks)):
        block = values[offset : offset + size]
        if [block[q] for q in bridge] != head:
            for p, q in enumerate(bridge):
                if head[p] != block[q]:
                    raise ValueError(
                        "inconsistent cocone at inl cell %d, block %d: %r != %r"
                        % (p, i, head[p], block[q])
                    )
    out = []
    for cell, (cls, value) in enumerate(zip(class_of, values)):
        if cls == len(out):
            out.append(value)
        elif cls > len(out):
            raise ValueError("class %d first appears out of order at cell %d" % (cls, cell))
        elif out[cls] != value:
            # only reachable when class_of is not the pushout of (left, blocks)
            raise ValueError("cocone not constant on class %d" % (cls,))
    return tuple(out)


class StageFamily(NamedTuple):
    """One stage of the construction, built once by build_stages.

    ``class_of[v]`` gives every integer cell of the fiber over vertex v its
    class id (inl block of the previous stage's classes, then one block per
    incident edge in ``edges_at`` order); ``sizes[v]`` is its class count.
    Both are keyed by Vertex in build order: the B fibers, then the A
    fibers, each side in declaration order.
    ``glue_a[s]`` and ``glue_b[s]`` are the bridges the gluing over edge s
    followed, tuples indexed by previous class id: the forward bridge out of
    the previous stage (its A classes over the edge's A end into this stage's
    B classes) and its backward bridge (its B classes into its A classes).
    Stage 0 glues nothing, so both are empty there. Inclusions are not
    stored: fiber v's is ``class_of[v][:L]`` for L the previous stage's class
    count at v (stage_diagram).
    """

    span: object
    n: int
    class_of: dict
    sizes: dict
    glue_a: tuple
    glue_b: tuple

    def pa_classes(self, a):
        return range(self.sizes[Vertex("A", a)])

    def pb_classes(self, b):
        return range(self.sizes[Vertex("B", b)])

    def glue(self, vertex):
        """The bridges, indexed by edge, that the gluing of ``vertex``'s fiber followed."""
        return self.glue_a if vertex.side == "A" else self.glue_b

    def glue_count(self, vertex):
        """Number of gluing identifications in one fiber."""
        glue = self.glue(vertex)
        return sum(len(glue[s]) for s in self.span.edges_at(vertex))

    def glue_edges(self, vertex):
        """Decoded gluing identifications ``(("inl", p), ("inr", (s, q)))`` of one fiber.

        p is a previous class of the fiber, q a class at edge s's other end.
        """
        glue = self.glue(vertex)
        return tuple(
            (("inl", p), ("inr", (s, q)))
            for s in self.span.edges_at(vertex)
            for p, q in enumerate(glue[s])
        )


def word_bound(n, vertex):
    """Length bound of the words over ``vertex`` at stage n: 2n on A, 2n - 1 on B."""
    return 2 * n if vertex.side == "A" else 2 * n - 1


def _glue_side(left_sizes, edges_at, block_sizes, bridges):
    """Pushouts of one side's fibers.

    Returns each fiber's class_of and class count, plus, per edge, the
    slice of class ids over that edge's block.
    """
    class_ofs, counts, slices = [], [], [None] * len(bridges)
    for left, edges in zip(left_sizes, edges_at):
        class_of, count = pushout_pi0(left, [(block_sizes[s], bridges[s]) for s in edges])
        offset = left
        for s in edges:
            slices[s] = class_of[offset : offset + block_sizes[s]]
            offset += block_sizes[s]
        class_ofs.append(class_of)
        counts.append(count)
    return tuple(class_ofs), tuple(counts), tuple(slices)


def build_stages(span, n_max):
    """Run the staged construction from stage 0 through stage n_max.

    Within a stage the B side is built first (its gluing backtracks across
    the previous stage's backward bridges), the forward bridges out of the
    previous stage are read off its inr blocks, and the A side is built on
    top of the fresh B classes; its inr blocks are the backward bridges the
    next stage glues along.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    na, nb, ne = len(span.a_vertices), len(span.b_vertices), len(span.edges)
    fibers = span.vertices()[na:] + span.vertices()[:na]  # B before A: every table's key order
    edges_at_b = [span.edges_at(v) for v in fibers[:nb]]
    edges_at_a = [span.edges_at(v) for v in fibers[nb:]]
    a_end = [span.a_end(s) for s in range(ne)]
    b_end = [span.b_end(s) for s in range(ne)]

    class_of_a = tuple((0,) if a == span.basepoint else () for a in range(na))
    sizes_a, sizes_b = tuple(map(len, class_of_a)), (0,) * nb
    empty = ((),) * ne
    stages = [StageFamily(span, 0, dict(zip(fibers, ((),) * nb + class_of_a)),
                          dict(zip(fibers, sizes_b + sizes_a)), empty, empty)]
    bwd = empty  # the backward bridges out of the last stage built
    for n in range(1, n_max + 1):
        class_of_b, sizes_b, fwd = _glue_side(
            sizes_b, edges_at_b, [sizes_a[a_end[s]] for s in range(ne)], bwd
        )
        class_of_a, sizes_a, next_bwd = _glue_side(
            sizes_a, edges_at_a, [sizes_b[b_end[s]] for s in range(ne)], fwd
        )
        stages.append(StageFamily(span, n, dict(zip(fibers, class_of_b + class_of_a)),
                                  dict(zip(fibers, sizes_b + sizes_a)), fwd, bwd))
        bwd = next_bwd
    return stages


def cycle_diagnostic(stages, n):
    """Independent cycles of each fiber's gluing graph at stage n.

    cycles = glue edges - cells + components; zero, a forest, means the
    pushout of sets loses no loop. The graph is bipartite between inl cells
    and block cells, a block cell's degree is its preimage count under its
    bridge, and correct bridges are injective, so every component is a star.
    """
    st = stages[n]
    return {v: st.glue_count(v) - len(st.class_of[v]) + st.sizes[v] for v in st.span.vertices()}


class BijectionReport(NamedTuple):
    """Outcome of matching stage classes against the reduced-word model.

    ``word_maps[(n, vertex)]`` is a tuple of word-tree node ids indexed by
    class id (``tree.word`` decodes one); rows are (stage, vertex, classes,
    words, matched) per fiber folded, matched if its labelling is a
    bijection. failures holds structured counterexample
    descriptions, so ok means a full bijection; it then commutes with
    inclusion and both bridges (see stage_word_bijection).
    """

    tree: WordTree
    word_maps: dict
    rows: list
    failures: list

    @property
    def ok(self):
        return not self.failures


def stage_word_bijection(stages):
    """Match stage classes with reduced words, through the last stage given.

    Each cell is labelled with a word-tree node by folding the stage's gluing
    span through cogap_set: included cells keep their previous node, and the
    block of edge s reads its nodes off the tree's column ``across[s]``. The
    report records, per fiber, whether the class labelling is a bijection
    onto the words within its word_bound. Mismatches are reported, not
    raised; a failed fold ends the report, leaving later fibers no row. One
    tree of bound 2n, n the last stage, serves every stage: canonical order
    is length-first, so each fiber's words are a prefix of its endpoint's id list.

    A successful fold is also natural in every stage map. cogap_set checks
    that the labelling is constant on each class and agrees across every
    glue pair. Constancy on the inl block says inclusions keep the word;
    constancy on the block of edge s says the bridge the block is (the
    forward bridge in a B fiber, the backward one in an A fiber) steps
    across s. So the fold fails before any square could.
    """
    span, n = stages[0].span, len(stages) - 1
    tree = word_tree(span, 2 * n)
    incidence = realize(span).incidence
    word_maps = {}
    rows = []
    failures = []

    def check_fiber(stage, vertex, ids):
        expected = tree.nodes_at(vertex, word_bound(stage, vertex))
        label = "stage %d %s fiber %s" % (stage, vertex.side, span.vertex_label(vertex))
        id_set, expected_set = set(ids), set(expected)
        injective = len(id_set) == len(ids)
        if not injective:
            failures.append("%s: class labelling is not injective" % (label,))
        onto = id_set == expected_set
        if not onto:
            missing = [tree.text(x) for x in expected if x not in id_set]
            extra = [tree.text(x) for x in ids if x not in expected_set]
            failures.append(
                "%s: classes and words differ (missing %r, extra %r)"
                % (label, missing, extra)
            )
        rows.append((stage, vertex, len(ids), len(expected), injective and onto))

    # latest[v]: v's node ids at the last stage folded. Folding in build order
    # (the fiber table's), a B fiber's blocks read the previous stage's A
    # fibers and an A fiber's blocks this stage's B fibers.
    latest = {}
    for v in stages[0].class_of:
        latest[v] = word_maps[(0, v)] = (0,) if v == span.base_vertex else ()
        check_fiber(0, v, latest[v])
    for k in range(1, n + 1):
        st = stages[k]
        for vtx, class_of in st.class_of.items():
            # cells: the fiber's previous classes, then per edge the classes at its other end
            left, glue = latest[vtx], st.glue(vtx)
            values = list(left)
            blocks = []
            for s, other in incidence[vtx]:
                block = latest[other]
                blocks.append((len(block), glue[s]))
                values += map(tree.across[s].__getitem__, block)
            try:
                ids = cogap_set(class_of, len(left), blocks, values)
            except ValueError:
                # rendering is injective: the texts fail the same way, in a message naming them
                try:
                    cogap_set(class_of, len(left), blocks, [tree.text(x) for x in values])
                except ValueError as exc:
                    failures.append(
                        "stage %d %s fiber %s: %s" % (k, vtx.side, span.vertex_label(vtx), exc)
                    )
                return BijectionReport(tree, word_maps, rows, failures)
            latest[vtx] = word_maps[(k, vtx)] = ids
            check_fiber(k, vtx, ids)
    return BijectionReport(tree, word_maps, rows, failures)


def stage_diagram(stages, vertex):
    """One fiber's class ids, connected by inclusion: each stage's inl block."""
    sizes = tuple(st.sizes[vertex] for st in stages)
    return FinSeqDiagram(
        sizes, tuple(st.class_of[vertex][:left] for st, left in zip(stages[1:], sizes))
    )


def construction_zigzag(stages, s):
    """The zigzag an edge induces between its two fiber families.

    Left side: A-side classes over the edge's A end, stages 0..m-1. Right
    side: B-side classes over its B end, stages 1..m. Forward maps are the
    forward bridges (stages 1..m glue along them), backward maps the
    backward bridges (stages 2..m glue along them); constructing the
    SeqZigzag checks both triangle families pointwise, which is exactly the
    statement that gluing identifies inclusion with a there-and-back bridge.
    """
    m = len(stages) - 1
    if m < 1:
        raise ValueError("need at least stages 0 and 1")
    a, b = stages[0].span.a_end(s), stages[0].span.b_end(s)
    left = truncate_diagram(stage_diagram(stages, Vertex("A", a)), m - 1)
    right = shift_diagram(stage_diagram(stages, Vertex("B", b)))
    fwd = tuple(st.glue_a[s] for st in stages[1:])
    bwd = tuple(st.glue_b[s] for st in stages[2:])
    return SeqZigzag(left, right, fwd, bwd)
