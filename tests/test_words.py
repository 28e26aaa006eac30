import hashlib
import itertools
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from spanpaths import checks, oracle, stages
from spanpaths.oracle import nbt_walks
from spanpaths.span import FiniteSpan, Vertex, parse_span, realize, serialize_span
from spanpaths.words import (
    WordError,
    _cancel_rightmost,
    WordTree,
    all_reduced_words,
    count_words,
    enumerate_words,
    format_word,
    is_reduced,
    parse_word,
    reduce_word,
    reduce_word_rightmost,
    validate_word,
    word_endpoint,
    word_tree,
)
from spanpaths.checks import random_unreduced_word

S, T = 0, 1
SPAN_DIR = Path(__file__).resolve().parent.parent / "spans"


def test_reduce_single_cancellation(circle):
    assert reduce_word(circle, (S, S)) == ()


def test_reduce_nested_cancellation(circle):
    word = (S, T, T, S)
    assert reduce_word(circle, word) == ()


def test_reduce_leaves_reduced_words_alone(circle):
    word = (S, T, S)
    assert reduce_word(circle, word) == word


@pytest.mark.parametrize("edge", ["past the last", "negative"])
def test_reduce_rejects_an_out_of_range_edge(circle, edge):
    index = len(circle.edges) if edge == "past the last" else -1
    with pytest.raises(WordError, match="edge index %d out of range" % index):
        reduce_word(circle, (index,))


def test_reduce_rejects_endpoint_mismatch(tree4):
    # s2 lands on b2 but s3 starts from b1
    with pytest.raises(WordError, match="does not end at"):
        reduce_word(tree4, (1, 2))


def test_endpoint_examples(circle):
    assert word_endpoint(circle, ()) == Vertex("A", 0)
    assert word_endpoint(circle, (S,)) == Vertex("B", 0)
    assert word_endpoint(circle, (S, T)) == Vertex("A", 0)


def crossing(span, word, s):
    # WordTree.step is the one-crossing concatenation; node ids are canonical ranks
    tree = WordTree(span, len(word) + 1)
    return tree.word(tree.step(all_reduced_words(span, len(word)).index(word), s))


def test_concat_fwd_examples(circle):
    assert crossing(circle, (), S) == (S,)
    assert crossing(circle, (S, T), T) == (S,)
    assert crossing(circle, (S, T), S) == (S, T, S)


def test_concat_bwd_examples(circle, interval):
    assert crossing(circle, (S,), S) == ()
    assert crossing(circle, (S,), T) == (S, T)
    assert crossing(interval, (S,), S) == ()


def test_step_off_the_endpoint_has_no_node(tree4):
    tree = WordTree(tree4, 3)
    assert tree.step(0, 2) is None  # s3 does not start at the basepoint a1
    at_b1 = tree.step(0, 0)
    assert tree.word(at_b1) == (0,)
    assert tree.step(at_b1, 1) is None  # s2 does not end at b1


def test_enumerate_circle(circle):
    words = enumerate_words(circle, Vertex("A", 0), 4)
    assert [format_word(circle, word) for word in words] == [
        "refl",
        ">s <t",
        ">t <s",
        ">s <t >s <t",
        ">t <s >t <s",
    ]


def test_enumerate_interval(interval):
    assert enumerate_words(interval, Vertex("A", 0), 10) == [()]
    assert enumerate_words(interval, Vertex("B", 0), 10) == [(S,)]


def test_enumerate_theta(theta):
    words = enumerate_words(theta, Vertex("A", 0), 2)
    assert len(words) == 7  # refl plus 3 * 2 two-crossing words
    assert len(enumerate_words(theta, Vertex("B", 0), 3)) == 15


@pytest.mark.parametrize(
    "endpoint",
    [Vertex("B", 4), Vertex("A", "x"), Vertex("C", 0), Vertex("A", -1)],
    ids=["B4", "A-label", "C0", "A-minus-1"],
)
def test_enumerate_unknown_endpoint(circle, endpoint):
    with pytest.raises(WordError, match="unknown endpoint"):
        enumerate_words(circle, endpoint, 3)


def test_enumerate_canonical_order(theta):
    words = enumerate_words(theta, Vertex("B", 0), 5)
    keys = [(len(word), word) for word in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_enumerate_window_monotone(theta):
    for length in range(5):
        lower = enumerate_words(theta, Vertex("B", 0), length)
        upper = enumerate_words(theta, Vertex("B", 0), length + 1)
        assert set(lower) <= set(upper)
        assert all(len(word) == length + 1 for word in set(upper) - set(lower))


def test_mutual_inverse(corpus):
    for span in corpus.values():
        tree = WordTree(span, 7)
        for x, word in enumerate(all_reduced_words(span, 6)):
            for s in span.edges_at(word_endpoint(span, word)):
                assert tree.step(tree.step(x, s), s) == x


def test_parity(corpus):
    for span in corpus.values():
        for word in all_reduced_words(span, 6):
            side = word_endpoint(span, word).side
            assert side == ("A" if len(word) % 2 == 0 else "B")


def test_parity_check_catches_a_tree_endpoint_on_the_wrong_side(theta):
    # words.parity holds word_endpoint to the tree's endpoints; the count
    # check, which buckets the tree's endpoints, fails on the flip as well
    tree = word_tree(theta, 8)  # held, so word_suite reads this tree
    assert all(r.ok for r in checks.word_suite(theta))
    v = tree.end[5]
    tree.end[5] = Vertex("B" if v.side == "A" else "A", v.index)
    failed = [r.name for r in checks.word_suite(theta) if not r.ok]
    assert failed == ["words.parity", "words.window-monotone"]


def test_confluence_on_random_words(corpus):
    rng = random.Random(11)
    for span in corpus.values():
        for _ in range(300):
            raw = random_unreduced_word(span, rng)
            left = reduce_word(span, raw)
            right = reduce_word_rightmost(span, raw)
            assert left == right
            assert is_reduced(left)
            assert (len(raw) - len(left)) // 2 <= len(raw) // 2
            assert word_endpoint(span, left) == word_endpoint(span, raw)
            assert (len(raw) - len(left)) % 2 == 0
            validate_word(span, left)


def test_reduce_confluence_check_catches_a_collapsing_reducer(circle, monkeypatch):
    # both strategies agree and return a reduced word, yet lose the endpoint
    monkeypatch.setattr(checks, "_cancel_pairs", lambda w: ())
    monkeypatch.setattr(checks, "_cancel_rightmost", lambda w: ())
    rows = {r.name: r for r in checks.word_suite(circle)}
    assert not rows["words.reduce-confluence"].ok


def reference_unreduced_word(span, rng, max_len=12):
    # the sampler without the realized graph: one Vertex per step
    word = []
    at = span.base_vertex
    for _ in range(rng.randint(0, max_len)):
        options = span.edges_at(at)
        if not options:
            break
        s = rng.choice(options)
        word.append(s)
        if at.side == "A":
            at = Vertex("B", span.b_end(s))
        else:
            at = Vertex("A", span.a_end(s))
    return tuple(word)


def sampler_spans(corpus, span_of):
    draw = random.Random(3)
    spans = list(corpus.values()) + [checks.random_span(draw) for _ in range(3)]
    # 17 loops at one vertex of each side: 5-bit draws, 15 of the 32 values rejected
    spans.append(span_of(1, 1, [(0, 0)] * 17))
    return spans


@pytest.mark.parametrize("seed", [0, 7])
def test_sampler_draws_are_the_reference_draws(corpus, span_of, seed):
    for span in sampler_spans(corpus, span_of):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            assert random_unreduced_word(span, ours) == reference_unreduced_word(span, ref)
        assert ours.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 7])
def test_sampler_many_walk_draws_are_the_reference_draws(corpus, span_of, seed):
    # one call draws the suite's 1000 walks: the distinct reference draws in
    # first-drawn order, each mapped to its endpoint, leaving the same state
    for span in sampler_spans(corpus, span_of):
        ours, ref = random.Random(seed), random.Random(seed)
        walks = checks._random_walks(checks._moves(realize(span)), span.base_vertex, ours, 1000)
        drawn = dict.fromkeys(reference_unreduced_word(span, ref) for _ in range(1000))
        assert list(walks) == list(drawn)
        assert list(walks.values()) == [word_endpoint(span, w) for w in drawn]
        assert ours.getstate() == ref.getstate()


def rescanning_rightmost(word):
    # the rightmost strategy as first written: rescan for the rightmost
    # adjacent pair of one edge after every deletion
    steps = list(word)
    while True:
        for i in range(len(steps) - 2, -1, -1):
            if steps[i] == steps[i + 1]:
                del steps[i : i + 2]
                break
        else:
            break
    return tuple(steps)


def test_one_pass_rightmost_reducer_equals_the_rescanning_one():
    words = [w for n in range(9) for w in itertools.product(range(3), repeat=n)]
    assert len(words) == 9841
    for word in words:
        assert _cancel_rightmost(word) == rescanning_rightmost(word)


# sha256 of serialize_span over five draws of checks.random_span(Random(seed))
RANDOM_SPAN_DIGESTS = {
    0: "95ebbe58ca7e7effbe65f9b0ba431ba6d39902c12a86090a56b874ca27256337",
    1: "b583333f46e2554e219c1f83ef10137c37859254ff137b23db7f9818f1e26841",
    2: "f2dde0e3c3f6c9d6e39d021b3b9602e0a3b1e92fb58fc36c8bf50f13a57cb4bd",
    3: "2b4d5377d885d3ee2f1c8826d2443c7f2ff296b9903f36ff3fa8e40eb9c9585b",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_SPAN_DIGESTS))
def test_random_span_draws_are_pinned(seed):
    # the walk-count screen decides which draws are kept, so it shows here too
    rng = random.Random(seed)
    text = "".join(serialize_span(checks.random_span(rng)) for _ in range(5))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_SPAN_DIGESTS[seed]


def test_count_words_equal_the_oracle_walks_by_length_and_endpoint(corpus):
    for span in corpus.values():
        for bound in range(5):
            expected = [Counter() for _ in range(bound + 1)]
            for walk in nbt_walks(realize(span), span.base_vertex, bound):
                expected[len(walk.edges)][walk.vertices[-1]] += 1
            assert count_words(span, bound) == [dict(c) for c in expected]


def test_count_words_at_length_zero_are_refl_alone(circle):
    assert count_words(circle, 0) == [{Vertex("A", 0): 1}]


def test_a_negative_bound_counts_no_word_and_passes_every_word_check(circle):
    assert count_words(circle, -1) == all_reduced_words(circle, -1) == []
    rows = checks.word_suite(circle, max_len=-1)
    assert [r.name for r in rows] == [r.name for r in checks.word_suite(circle)]
    assert all(r.ok for r in rows)


def test_count_words_agrees_with_the_tree_the_walks_and_the_stages(span_of):
    # four models on generated spans: count_words, the word tree, the oracle's
    # walks and the stage class counts; hypothesis shrinks a failing span
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    depth = 3

    @st.composite
    def spans(draw):
        na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ends = draw(st.lists(st.tuples(st.integers(0, na - 1), st.integers(0, nb - 1)), max_size=5))
        return span_of(na, nb, ends, draw(st.integers(0, na - 1)))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(spans())
    def check(span):
        counts = count_words(span, 2 * depth)
        expected = {(length, v): c for length, at in enumerate(counts) for v, c in at.items()}
        tree = WordTree(span, 2 * depth)
        assert Counter(zip(tree.depth, tree.end)) == expected
        walks = nbt_walks(realize(span), span.base_vertex, 2 * depth)
        assert Counter((len(walk.edges), walk.vertices[-1]) for walk in walks) == expected
        for stage in stages.build_stages(span, depth):
            for v, size in stage.sizes.items():
                bound = stages.word_bound(stage.n, v)
                assert size == sum(at.get(v, 0) for at in counts[: bound + 1])

    check()


def test_reduce_confluence_checks_each_distinct_sample_once(theta, monkeypatch):
    checked = []
    cancel = checks._cancel_pairs
    monkeypatch.setattr(checks, "_cancel_pairs", lambda w: checked.append(w) or cancel(w))
    rows = {r.name: r for r in checks.word_suite(theta)}
    rng = random.Random(0)
    distinct = {reference_unreduced_word(theta, rng) for _ in range(1000)}
    assert rows["words.reduce-confluence"].ok
    assert len(checked) == len(set(checked)) == len(distinct) < 1000
    assert set(checked) == distinct


def test_reduce_confluence_checks_the_longest_samples(theta, monkeypatch):
    # the rightmost strategy goes wrong only on raw words of 11 or 12 steps
    rightmost = checks._cancel_rightmost
    monkeypatch.setattr(checks, "_cancel_rightmost", lambda w: rightmost(w[:-1] if len(w) >= 11 else w))
    rows = {r.name: r for r in checks.word_suite(theta)}
    assert not rows["words.reduce-confluence"].ok


def test_parse_format_roundtrip(circle):
    for word in all_reduced_words(circle, 5):
        assert parse_word(circle, format_word(circle, word)) == word
    assert parse_word(circle, "refl") == ()


def test_parse_accepts_unreduced(circle):
    assert parse_word(circle, ">s <s") == (S, S)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty word"),
        (">s >t", "alternate"),
        (">nope", "unknown edge"),
        ("s <t", "bad step token"),
        ("<s", "alternate"),
    ],
)
def test_parse_word_errors(circle, text, message):
    with pytest.raises(WordError, match=message):
        parse_word(circle, text)


# each message as the token-by-token parser gave it, before the step tables
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("circle", ">", "bad step token '>' (expected >edge or <edge)"),
        ("circle", ">s <", "bad step token '<' (expected >edge or <edge)"),
        ("circle", "refl refl", "bad step token 'refl' (expected >edge or <edge)"),
        ("circle", "s <t", "bad step token 's' (expected >edge or <edge)"),
        ("circle", "<>s", "unknown edge label '>s'"),
        ("circle", "<s", "step 0: directions must alternate starting forward"),
        ("circle", ">nope", "unknown edge label 'nope'"),
        ("circle", ">s <nope", "unknown edge label 'nope'"),
        ("circle", ">s <refl", "unknown edge label 'refl'"),
        ("circle", ">s >t", "step 1: directions must alternate starting forward"),
        # two faults: the earlier one is reported, and every label before any direction
        ("circle", "<s >t", "step 0: directions must alternate starting forward"),
        ("circle", ">x <y", "unknown edge label 'x'"),
        ("circle", ">s >t <nope", "unknown edge label 'nope'"),
        ("tree4", ">s1 <s2 >s3 >s1", "step 1: edge 's2' does not end at b1"),
        # well-formed texts whose steps do not chain: validate_word's messages
        ("tree4", ">s1 <s2", "step 1: edge 's2' does not end at b1"),
        ("tree4", ">s3", "step 0: edge 's3' does not start at a1"),
        ("circle", "", "empty word text (use 'refl')"),
    ],
)
def test_parse_word_error_messages(corpus, name, text, message):
    with pytest.raises(WordError) as raised:
        parse_word(corpus[name], text)
    assert str(raised.value) == message
    assert raised.value.__context__ is None


def test_all_reduced_words_negative_bound(circle):
    assert all_reduced_words(circle, -1) == []


def test_tree_matches_the_oracle_walks_on_random_spans():
    # nbt_walks shares no logic with the tree: same walks, same canonical order
    rng = random.Random(5)
    for _ in range(30):
        span = checks.random_span(rng)
        tree = WordTree(span, 6)
        every_walk = nbt_walks(realize(span), span.base_vertex, 6)
        for v in span.vertices():
            walks = [walk for walk in every_walk if walk.vertices[-1] == v]
            assert [tree.word(x) for x in tree.at[v]] == [walk.edges for walk in walks]
            assert [tree.depth[x] for x in tree.at[v]] == [len(walk.edges) for walk in walks]


def test_tree_restricted_to_a_smaller_bound_is_that_tree(corpus):
    for span in corpus.values():
        big = WordTree(span, 6)
        for bound in range(6):
            small = WordTree(span, bound)
            n = big.size(bound)
            assert n == len(small.parent)
            assert big.parent[:n] == small.parent
            assert big.last_edge[:n] == small.last_edge
            assert big.end[:n] == small.end
            assert big.depth[:n] == small.depth
            for v in span.vertices():
                assert big.nodes_at(v, bound) == small.at[v]
            assert big.reached(n) == [v for v in span.vertices() if v in small.end]
            for x in range(n):
                for s in range(len(span.edges)):
                    y = big.step(x, s)
                    assert small.step(x, s) == (y if y is not None and y < n else None)


@pytest.mark.parametrize("name", ["interval", "tree4"])
def test_tree_stops_where_a_finite_cover_stops_growing(corpus, name):
    # the universal cover of a tree is finite: a huge bound builds the same nodes, at once
    span = corpus[name]
    small = WordTree(span, 8)
    start = time.perf_counter()
    big = WordTree(span, 10**7)
    big_texts, big_words = big.texts(), all_reduced_words(span, 10**7)
    assert time.perf_counter() - start < 1.0
    assert (big.parent, big.last_edge, big.end, big.depth, big.at) == (
        small.parent, small.last_edge, small.end, small.depth, small.at
    )
    assert big_texts == small.texts()
    assert big_words == all_reduced_words(span, 8)
    for x in range(len(small.parent)):
        assert [big.step(x, s) for s in range(len(span.edges))] == [
            small.step(x, s) for s in range(len(span.edges))
        ]


K33 = FiniteSpan(
    ("a0", "a1", "a2"),
    ("b0", "b1", "b2"),
    tuple(("s%d%d" % (a, b), a, b) for a in range(3) for b in range(3)),
    0,
)


@pytest.mark.parametrize("name", ["circle", "interval", "theta", "tree4", "coproduct", "k33"])
def test_tree_columns_and_text_agree_with_step_and_format_word(corpus, name):
    span, bound = (K33, 8) if name == "k33" else (corpus[name], 6)
    tree = WordTree(span, bound)
    assert not hasattr(tree, "_nbr")
    assert len(tree.across) == len(span.edges)
    # the columns, read against the parent links alone: back across the last
    # edge, forward to the child across any other, None past the bound
    children = {(p, e): y for y, (p, e) in enumerate(zip(tree.parent, tree.last_edge)) if y}
    texts = tree.texts()
    assert len(texts) == len(tree.parent)
    for x in range(len(tree.parent)):
        assert texts[x] == tree.text(x) == format_word(span, tree.word(x))
        for s in range(len(span.edges)):
            across = tree.parent[x] if tree.last_edge[x] == s else children.get((x, s))
            assert tree.across[s][x] == tree.step(x, s) == across


@pytest.mark.parametrize("path", sorted(SPAN_DIR.glob("*.span")), ids=lambda path: path.stem)
def test_neighbour_columns_are_built_on_first_use_from_the_links(path):
    tree = WordTree(parse_span(path.read_text()), 6)
    assert "across" not in tree.__dict__
    across, parent, last = tree.across, tree.parent, tree.last_edge
    assert tree.__dict__["across"] is across and all(len(column) == len(parent) for column in across)
    for x in range(1, len(parent)):
        assert across[last[x]][x] == parent[x] and across[last[x]][parent[x]] == x
    # the two entries of each link are distinct from every other link's, so
    # this count leaves every other entry None
    assert sum(y is not None for column in across for y in column) == 2 * (len(parent) - 1)


def test_text_of_refl_on_an_edgeless_span(coproduct):
    tree = WordTree(coproduct, 4)
    assert tree.across == [] and len(tree.parent) == 1
    assert tree.text(0) == "refl"
    assert tree.texts() == ["refl"]


def test_step_back_undoes_step_and_stops_at_the_bound(corpus):
    bound = 5
    for span in corpus.values():
        tree = WordTree(span, bound)
        for x in range(len(tree.parent)):
            for s in span.edges_at(tree.end[x]):
                y = tree.step(x, s)
                if tree.depth[x] == bound and tree.last_edge[x] != s:
                    assert y is None
                else:
                    assert tree.step(y, s) == x


def test_theta_tree_has_three_times_two_to_the_bound_minus_two_nodes(theta):
    for bound in range(9):
        tree = WordTree(theta, bound)
        assert len(tree.parent) == tree.size(bound) == 3 * 2**bound - 2


def test_run_all_builds_one_word_tree(theta, monkeypatch):
    built = []
    init = WordTree.__init__

    def counting_init(tree, span, bound):
        built.append(bound)
        init(tree, span, bound)

    monkeypatch.setattr(WordTree, "__init__", counting_init)
    checks.run_all(theta, with_oracle=True)
    assert built == [8]


def test_run_all_builds_the_stages_once_and_enumerates_the_walks_once(theta, monkeypatch):
    calls = {"build_stages": 0, "nbt_walks": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # checks binds build_stages by name; compare_words_walks reads oracle's own binding
    for module, name in ((checks, "build_stages"), (stages, "build_stages"), (oracle, "nbt_walks")):
        counting(module, name)
    checks.run_all(theta, with_oracle=True)
    assert calls == {"build_stages": 1, "nbt_walks": 1}
