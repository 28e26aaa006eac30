import pytest

from spanpaths.span import FiniteSpan, parse_span

CORPUS_TEXT = {
    "circle": "A a\nB b\nS s a b\nS t a b\nbase a\n",
    "interval": "A a\nB b\nS s a b\nbase a\n",
    "theta": "A a\nB b\nS s a b\nS t a b\nS u a b\nbase a\n",
    "tree4": "A a1 a2\nB b1 b2\nS s1 a1 b1\nS s2 a1 b2\nS s3 a2 b1\nbase a1\n",
    "coproduct": "A a0 a1\nB b0\nbase a0\n",
}


@pytest.fixture
def circle():
    return parse_span(CORPUS_TEXT["circle"])


@pytest.fixture
def interval():
    return parse_span(CORPUS_TEXT["interval"])


@pytest.fixture
def theta():
    return parse_span(CORPUS_TEXT["theta"])


@pytest.fixture
def tree4():
    return parse_span(CORPUS_TEXT["tree4"])


@pytest.fixture
def coproduct():
    return parse_span(CORPUS_TEXT["coproduct"])


@pytest.fixture
def corpus():
    return {name: parse_span(text) for name, text in CORPUS_TEXT.items()}


def _bfs_classes(cells, pairs):
    """Class id of each of ``cells`` (in order) under the glued ``pairs``.

    A breadth-first search over an adjacency dict, sharing no code with the
    union-find it is compared against; ids number the classes in order of
    their first cell.
    """
    adjacent = {c: [] for c in cells}
    for x, y in pairs:
        adjacent[x].append(y)
        adjacent[y].append(x)
    class_of = {}
    count = 0
    for c in cells:
        if c in class_of:
            continue
        class_of[c] = count
        queue = [c]
        for x in queue:
            for y in adjacent[x]:
                if y not in class_of:
                    class_of[y] = count
                    queue.append(y)
        count += 1
    return [class_of[c] for c in cells]


@pytest.fixture
def bfs_classes():
    return _bfs_classes


def _span_of(na, nb, ends, base=0):
    """A span on vertices a0.. and b0.. with edges s0, s1, .. at the (a, b) ``ends``."""
    return FiniteSpan(
        tuple("a%d" % i for i in range(na)),
        tuple("b%d" % j for j in range(nb)),
        tuple(("s%d" % k, a, b) for k, (a, b) in enumerate(ends)),
        base,
    )


@pytest.fixture
def span_of():
    return _span_of
