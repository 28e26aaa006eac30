"""Truncated sequential diagrams of finite sets and their direct limits.

Every diagram carries an explicit truncation bound N (levels 0..N), and
statements about the untruncated limit are verified only on classes that
stay clear of the boundary. Limits are computed as union-find quotients of
the stage-tagged disjoint union, with order-minimal representatives so all
outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class QuotientSet:
    """A finite ordered set with a union-find partition.

    The representative of a class is its first-inserted element, so
    representatives and class listings are independent of the union order.
    Call seal() after building; unions are then rejected and the quotient
    can be shared freely for reads.
    """

    def __init__(self, elements):
        self._elements = tuple(elements)
        self._index = {}
        for i, e in enumerate(self._elements):
            if e in self._index:
                raise ValueError("duplicate element %r" % (e,))
            self._index[e] = i
        self._parent = list(range(len(self._elements)))
        self._sealed = False

    def __len__(self):
        return len(self._elements)

    def __contains__(self, x):
        return x in self._index

    @property
    def elements(self):
        return self._elements

    def _find(self, i):
        root = i
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[i] != root:  # path compression
            self._parent[i], i = root, self._parent[i]
        return root

    def union(self, x, y):
        if self._sealed:
            raise ValueError("quotient is sealed")
        ri = self._find(self._index[x])
        rj = self._find(self._index[y])
        if ri == rj:
            return
        lo, hi = (ri, rj) if ri < rj else (rj, ri)
        self._parent[hi] = lo

    def seal(self):
        self._sealed = True
        return self

    def find(self, x):
        """Canonical representative (the order-minimal member) of x's class."""
        return self._elements[self._find(self._index[x])]

    def representatives(self):
        """Class representatives in canonical order."""
        return [e for i, e in enumerate(self._elements) if self._find(i) == i]

    def classes(self):
        """All classes, each in insertion order starting with its representative."""
        groups = {}
        for i, e in enumerate(self._elements):
            groups.setdefault(self._find(i), []).append(e)
        return [tuple(groups[r]) for r in sorted(groups)]

    @property
    def class_count(self):
        return sum(1 for i in range(len(self._elements)) if self._find(i) == i)


@dataclass(frozen=True)
class FinSeqDiagram:
    """Finite sets ``sets[0..N]`` with total connecting maps ``maps[n]``."""

    sets: tuple
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != max(len(self.sets) - 1, 0):
            raise ValueError("need exactly one connecting map per consecutive pair of levels")
        for n, level in enumerate(self.sets):
            if len(set(level)) != len(level):
                raise ValueError("level %d has duplicate elements" % (n,))
        for n, step in enumerate(self.maps):
            nxt = set(self.sets[n + 1])
            for x in self.sets[n]:
                if x not in step:
                    raise ValueError("map %d is not total: missing %r" % (n, x))
                if step[x] not in nxt:
                    raise ValueError("map %d sends %r outside level %d" % (n, x, n + 1))

    @property
    def truncation(self):
        return len(self.sets) - 1


def shift_diagram(d):
    """Drop level 0; the canonical inclusion identifies the two limits."""
    return FinSeqDiagram(d.sets[1:], d.maps[1:])


def truncate_diagram(d, n):
    """Restrict to levels 0..n."""
    if not 0 <= n <= d.truncation:
        raise ValueError("truncation %d out of range" % (n,))
    return FinSeqDiagram(d.sets[: n + 1], d.maps[:n])


def direct_limit(d):
    """Set-level colimit of the truncated diagram.

    Elements are stage-tagged pairs (n, x); each is glued to its successor
    image. Returns a sealed QuotientSet; class representatives are the
    least (stage, element) pairs in canonical order.
    """
    q = QuotientSet([(n, x) for n, level in enumerate(d.sets) for x in level])
    for n, step in enumerate(d.maps):
        for x in d.sets[n]:
            q.union((n, x), (n + 1, step[x]))
    return q.seal()


@dataclass(frozen=True)
class SeqMorphism:
    """Per-level maps between two diagrams of equal truncation.

    The square condition (connect then map equals map then connect) is
    checked pointwise at construction and rejected with ValueError.
    """

    source: FinSeqDiagram
    target: FinSeqDiagram
    levels: tuple

    def __post_init__(self):
        if len(self.source.sets) != len(self.target.sets):
            raise ValueError("source and target truncations differ")
        if len(self.levels) != len(self.source.sets):
            raise ValueError("need one level map per level")
        for n, level in enumerate(self.levels):
            tgt = set(self.target.sets[n])
            for x in self.source.sets[n]:
                if x not in level:
                    raise ValueError("level %d map is not total: missing %r" % (n, x))
                if level[x] not in tgt:
                    raise ValueError("level %d map sends %r outside the target" % (n, x))
        for n in range(len(self.levels) - 1):
            for x in self.source.sets[n]:
                lhs = self.target.maps[n][self.levels[n][x]]
                rhs = self.levels[n + 1][self.source.maps[n][x]]
                if lhs != rhs:
                    raise ValueError(
                        "square condition violated at level %d, element %r" % (n, x)
                    )


def identity_morphism(d):
    return SeqMorphism(d, d, tuple({x: x for x in level} for level in d.sets))


def compose_morphisms(outer, inner):
    """Levelwise composition outer after inner."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("morphisms do not compose")
    levels = tuple(
        {x: outer.levels[n][inner.levels[n][x]] for x in inner.source.sets[n]}
        for n in range(len(inner.levels))
    )
    return SeqMorphism(inner.source, outer.target, levels)


def map_of_limits(m, source_limit=None, target_limit=None):
    """Class map induced on direct limits by a morphism.

    Returns a dict keyed by source class representatives. Constancy on
    classes is rechecked even though the square condition already forces it.
    """
    lim_src = source_limit if source_limit is not None else direct_limit(m.source)
    lim_tgt = target_limit if target_limit is not None else direct_limit(m.target)
    out = {}
    for cls in lim_src.classes():
        image = None
        for n, x in cls:
            y = lim_tgt.find((n, m.levels[n][x]))
            if image is None:
                image = y
            elif image != y:
                raise ValueError("induced map is not constant on the class of %r" % (cls[0],))
        out[cls[0]] = image
    return out


@dataclass(frozen=True)
class SeqZigzag:
    """Interleaved maps between two diagrams whose triangles commute.

    ``fwd[n]`` maps left level n to right level n, ``bwd[n]`` maps right
    level n to left level n + 1. The triangle conditions (left connecting
    map factors as bwd after fwd; right connecting map as fwd after bwd)
    are checked pointwise at construction.
    """

    left: FinSeqDiagram
    right: FinSeqDiagram
    fwd: tuple
    bwd: tuple

    def __post_init__(self):
        n = self.left.truncation
        if self.right.truncation != n:
            raise ValueError("left and right truncations differ")
        if len(self.fwd) != n + 1 or len(self.bwd) != n:
            raise ValueError("need %d forward and %d backward maps" % (n + 1, n))
        for k in range(n + 1):
            tgt = set(self.right.sets[k])
            for x in self.left.sets[k]:
                if self.fwd[k].get(x) not in tgt:
                    raise ValueError("forward map %d undefined or out of range at %r" % (k, x))
        for k in range(n):
            tgt = set(self.left.sets[k + 1])
            for y in self.right.sets[k]:
                if self.bwd[k].get(y) not in tgt:
                    raise ValueError("backward map %d undefined or out of range at %r" % (k, y))
        for k in range(n):
            for x in self.left.sets[k]:
                if self.left.maps[k][x] != self.bwd[k][self.fwd[k][x]]:
                    raise ValueError("left triangle fails at level %d, element %r" % (k, x))
            for y in self.right.sets[k]:
                if self.right.maps[k][y] != self.fwd[k + 1][self.bwd[k][y]]:
                    raise ValueError("right triangle fails at level %d, element %r" % (k, y))


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


@dataclass
class ZigzagEquivalence:
    """Round-trip verification of the limit maps induced by a zigzag."""

    left_limit: QuotientSet
    right_limit: QuotientSet
    forward: dict
    backward: dict
    checked: int
    failures: list = field(default_factory=list)

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
    backward = {}
    failures = []
    for cls in lim_right.classes():
        image = None
        for k, y in cls:
            if k > n - 1:
                continue
            img = lim_left.find((k + 1, z.bwd[k][y]))
            if image is None:
                image = img
            elif image != img:
                failures.append("backward map not constant on the class of %r" % (cls[0],))
                image = None
                break
        if image is not None:
            backward[cls[0]] = image
    checked = 0
    for rep in lim_left.representatives():
        if rep[0] >= n - 1:
            continue
        checked += 1
        if backward.get(forward[rep]) != rep:
            failures.append("left round trip moved %r" % (rep,))
    for rep in lim_right.representatives():
        if rep[0] >= n - 1:
            continue
        checked += 1
        if rep not in backward or forward.get(backward[rep]) != rep:
            failures.append("right round trip moved %r" % (rep,))
    return ZigzagEquivalence(lim_left, lim_right, forward, backward, checked, failures)
