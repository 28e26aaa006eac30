"""Truncated sequential diagrams of finite sets and their direct limits.

Every diagram carries an explicit truncation bound N (levels 0..N), and
statements about the untruncated limit are verified only on classes that
stay clear of the boundary. Level n of a diagram is the integer range
``0..sizes[n]-1`` and its connecting map a tuple indexed by element. A
direct limit lays the levels out as offset blocks of one cell range and
partitions it with the union-find the stage pushouts use, so classes are
ids numbered by their least ``(stage, element)`` pair and every output is
deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from .span import record


def partition(total, glue):
    """Classes of the cells ``0..total-1`` under a list of gluings.

    Each ``(x_offset, y_offset, bridge)`` of ``glue`` glues cell
    ``x_offset + p`` to cell ``y_offset + bridge[p]`` for every p. Returns
    ``(class_of, count)``: a tuple giving each cell its class id, ids
    ``0..count-1`` numbering the classes in order of their least cell.
    """
    parent = list(range(total))
    for x_offset, y_offset, bridge in glue:
        for x, q in enumerate(bridge, x_offset):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]  # path halving
            y = y_offset + q
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            # the smaller cell is the root, so the result is independent of the union order
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    # parent[c] <= c throughout, so one forward pass numbers every class
    class_of = [0] * total
    count = 0
    for c, p in enumerate(parent):
        if p == c:
            class_of[c] = count
            count += 1
        else:
            class_of[c] = class_of[p]
    return tuple(class_of), count


def class_labels(class_of, count, labels):
    """Each class's label at its least labelled cell, and the classes whose labels disagree.

    ``labels`` labels the first cells of ``class_of``, a partition into
    ``count`` classes; a class with no labelled cell reads None.
    """
    out = [None] * count
    disagree = set()
    for c, label in zip(class_of, labels):
        if out[c] is None:
            out[c] = label
        elif out[c] != label:
            disagree.add(c)
    return out, disagree


def _check_map(images, size, target, what):
    if not isinstance(images, tuple):
        raise ValueError("%s is not a tuple of element indices" % what)
    if len(images) != size:
        raise ValueError("%s is not total: %d images for %d elements" % (what, len(images), size))
    if images and not (0 <= min(images) and max(images) < target):
        raise ValueError("%s sends an element outside its %d-element target" % (what, target))


class FinSeqDiagram(record("FinSeqDiagram", "sizes maps")):
    """Levels ``0..sizes[n]-1`` with total connecting maps ``maps[n]``."""

    def __init__(self, sizes, maps):
        if len(maps) != max(len(sizes) - 1, 0):
            raise ValueError("need exactly one connecting map per consecutive pair of levels")
        for n, step in enumerate(maps):
            _check_map(step, sizes[n], sizes[n + 1], "map %d" % n)

    @property
    def truncation(self):
        return len(self.sizes) - 1


def shift_diagram(d):
    """Drop level 0; the canonical inclusion identifies the two limits."""
    return FinSeqDiagram(d.sizes[1:], d.maps[1:])


def truncate_diagram(d, n):
    """Restrict to levels 0..n."""
    if not 0 <= n <= d.truncation:
        raise ValueError("truncation %d out of range" % (n,))
    return FinSeqDiagram(d.sizes[: n + 1], d.maps[:n])


class DirectLimit(NamedTuple):
    """Classes of a truncated diagram's stage-tagged elements.

    Element x of level n is cell ``offsets[n] + x``; ``class_of`` gives each
    cell its class id, numbered by least cell, which is the least
    ``(n, x)`` pair of the class.
    """

    offsets: tuple
    class_of: tuple
    class_count: int

    def representatives(self):
        """The least ``(n, x)`` pair of each class, in class id order."""
        # ids number classes by least cell, so a class's least cell is where its id first shows
        out, stops = [], self.offsets[1:] + (len(self.class_of),)
        for n, (start, stop) in enumerate(zip(self.offsets, stops)):
            for x, cls in enumerate(self.class_of[start:stop]):
                if cls == len(out):
                    out.append((n, x))
        return out


def direct_limit(d):
    """Set-level colimit of the truncated diagram.

    Each element (n, x) is glued to its successor image (n + 1, maps[n][x]).
    """
    offsets = []
    total = 0
    for size in d.sizes:
        offsets.append(total)
        total += size
    glue = [(offsets[n], offsets[n + 1], step) for n, step in enumerate(d.maps)]
    return DirectLimit(tuple(offsets), *partition(total, glue))


class SeqMorphism(record("SeqMorphism", "source target levels")):
    """Per-level maps between two diagrams of equal truncation.

    The square condition (connect then map equals map then connect) is
    checked pointwise at construction and rejected with ValueError.
    """

    def __init__(self, source, target, levels):
        if len(source.sizes) != len(target.sizes):
            raise ValueError("source and target truncations differ")
        if len(levels) != len(source.sizes):
            raise ValueError("need one level map per level")
        for n, level in enumerate(levels):
            _check_map(level, source.sizes[n], target.sizes[n], "level %d map" % n)
        for n in range(len(levels) - 1):
            here, there = levels[n], levels[n + 1]
            connect = target.maps[n]
            for x, y in enumerate(source.maps[n]):
                if connect[here[x]] != there[y]:
                    raise ValueError("square condition violated at level %d, element %d" % (n, x))


def compose_morphisms(outer, inner):
    """Levelwise composition outer after inner."""
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose")
    levels = tuple(
        tuple(after[x] for x in before) for after, before in zip(outer.levels, inner.levels)
    )
    return SeqMorphism(inner.source, outer.target, levels)


def _image_classes(lim, levels, shift=0):
    """The class in ``lim`` of each image of ``levels[n]``, a map into level n + shift."""
    class_of = lim.class_of
    return [class_of[offset + y] for offset, level in zip(lim.offsets[shift:], levels) for y in level]


def map_of_limits(m, source_limit=None, target_limit=None):
    """Class map induced on direct limits by a morphism.

    Returns a tuple giving each source class id its target class id.
    Constancy on classes is rechecked even though the square condition
    already forces it.
    """
    lim_src = source_limit if source_limit is not None else direct_limit(m.source)
    lim_tgt = target_limit if target_limit is not None else direct_limit(m.target)
    images = _image_classes(lim_tgt, m.levels)
    out, broken = class_labels(lim_src.class_of, lim_src.class_count, images)
    if broken:
        raise ValueError(
            "induced map is not constant on the class of %r"
            % (lim_src.representatives()[min(broken)],)
        )
    return tuple(out)


class SeqZigzag(record("SeqZigzag", "left right fwd bwd")):
    """Interleaved maps between two diagrams whose triangles commute.

    ``fwd[n]`` maps left level n to right level n, ``bwd[n]`` maps right
    level n to left level n + 1. The triangle conditions (left connecting
    map factors as bwd after fwd; right connecting map as fwd after bwd)
    are checked pointwise at construction.
    """

    def __init__(self, left, right, fwd, bwd):
        n = left.truncation
        if right.truncation != n:
            raise ValueError("left and right truncations differ")
        if len(fwd) != n + 1 or len(bwd) != n:
            raise ValueError("need %d forward and %d backward maps" % (n + 1, n))
        for k, images in enumerate(fwd):
            _check_map(images, left.sizes[k], right.sizes[k], "forward map %d" % k)
        for k, images in enumerate(bwd):
            _check_map(images, right.sizes[k], left.sizes[k + 1], "backward map %d" % k)
        for k in range(n):
            fwd_k, bwd_k, fwd_next = fwd[k], bwd[k], fwd[k + 1]
            for x, y in enumerate(left.maps[k]):
                if y != bwd_k[fwd_k[x]]:
                    raise ValueError("left triangle fails at level %d, element %d" % (k, x))
            for y, z in enumerate(right.maps[k]):
                if z != fwd_next[bwd_k[y]]:
                    raise ValueError("right triangle fails at level %d, element %d" % (k, y))


def half_shift(z):
    """Swap the roles of the two sides, dropping the first triangle.

    The result runs from the right diagram to the shifted left diagram and
    is one level shorter; applying it twice shifts the original zigzag by a
    full level.
    """
    n = z.left.truncation
    if n < 1:
        raise ValueError("cannot half-shift a zigzag with a single level")
    return SeqZigzag(
        left=truncate_diagram(z.right, n - 1),
        right=shift_diagram(z.left),
        fwd=z.bwd,
        bwd=tuple(z.fwd[1:n]),
    )


def zigzag_to_morphism(z):
    """Forward maps of a zigzag form a morphism; the squares follow from the triangles."""
    return SeqMorphism(z.left, z.right, z.fwd)


class ZigzagEquivalence(NamedTuple):
    """Round-trip verification of the limit maps induced by a zigzag.

    ``forward`` gives each left class id its right class id; ``backward``
    gives each right class id its left class id, or None where the class
    has no element below the last level or its images disagree.
    """

    left_limit: DirectLimit
    right_limit: DirectLimit
    forward: tuple
    backward: tuple
    checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def zigzag_equivalence(z):
    """Induced limit maps of a zigzag, with a round-trip report.

    The forward map comes from the forward morphism; the backward map sends
    the class of (n, y) to the class of (n + 1, bwd[n](y)), which lands back
    in the left limit because the shifted diagram has the same classes. Both
    composites are checked to be the identity on every truncation-safe class
    (representative stage below N - 1). Raises ValueError when the
    truncation is too small to verify any class (N < 2).
    """
    n = z.left.truncation
    if n < 2:
        raise ValueError("truncation too small to verify any class (need N >= 2)")
    lim_left = direct_limit(z.left)
    lim_right = direct_limit(z.right)
    forward = map_of_limits(zigzag_to_morphism(z), lim_left, lim_right)
    right_reps = lim_right.representatives()
    images = _image_classes(lim_left, z.bwd, 1)
    backward, broken = class_labels(lim_right.class_of, lim_right.class_count, images)
    failures = [
        "backward map not constant on the class of %r" % (right_reps[c],) for c in sorted(broken)
    ]
    for c in broken:
        backward[c] = None
    checked = 0
    for c, rep in enumerate(lim_left.representatives()):
        if rep[0] >= n - 1:
            continue
        checked += 1
        if backward[forward[c]] != c:
            failures.append("left round trip moved %r" % (rep,))
    for c, rep in enumerate(right_reps):
        if rep[0] >= n - 1:
            continue
        checked += 1
        if backward[c] is None or forward[backward[c]] != c:
            failures.append("right round trip moved %r" % (rep,))
    return ZigzagEquivalence(lim_left, lim_right, forward, tuple(backward), checked, failures)
