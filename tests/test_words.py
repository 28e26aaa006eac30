import random

import pytest

from spanpaths import checks
from spanpaths.span import Vertex
from spanpaths.words import (
    BWD,
    FWD,
    Step,
    WordError,
    all_reduced_words,
    concat_bwd,
    concat_fwd,
    enumerate_words,
    format_word,
    is_reduced,
    parse_word,
    reduce_word,
    reduce_word_rightmost,
    validate_word,
    word_endpoint,
)
from spanpaths.checks import random_unreduced_word

S, T = 0, 1


def w(*steps):
    return tuple(Step(d, e) for d, e in steps)


def test_reduce_single_cancellation(circle):
    assert reduce_word(circle, w((FWD, S), (BWD, S))) == ()


def test_reduce_nested_cancellation(circle):
    word = w((FWD, S), (BWD, T), (FWD, T), (BWD, S))
    assert reduce_word(circle, word) == ()


def test_reduce_leaves_reduced_words_alone(circle):
    word = w((FWD, S), (BWD, T), (FWD, S))
    assert reduce_word(circle, word) == word


def test_reduce_rejects_malformed(circle):
    with pytest.raises(WordError, match="alternate"):
        reduce_word(circle, w((FWD, S), (FWD, T)))
    with pytest.raises(WordError, match="alternate"):
        reduce_word(circle, w((BWD, S)))


def test_reduce_rejects_endpoint_mismatch(tree4):
    # s2 lands on b2 but s3 starts from b1
    with pytest.raises(WordError, match="does not end at"):
        reduce_word(tree4, w((FWD, 1), (BWD, 2)))


def test_endpoint_examples(circle):
    assert word_endpoint(circle, ()) == Vertex("A", 0)
    assert word_endpoint(circle, w((FWD, S))) == Vertex("B", 0)
    assert word_endpoint(circle, w((FWD, S), (BWD, T))) == Vertex("A", 0)


def test_concat_fwd_examples(circle):
    assert concat_fwd(circle, (), S) == w((FWD, S))
    assert concat_fwd(circle, w((FWD, S), (BWD, T)), T) == w((FWD, S))
    assert concat_fwd(circle, w((FWD, S), (BWD, T)), S) == w((FWD, S), (BWD, T), (FWD, S))


def test_concat_bwd_examples(circle, interval):
    assert concat_bwd(circle, w((FWD, S)), S) == ()
    assert concat_bwd(circle, w((FWD, S)), T) == w((FWD, S), (BWD, T))
    assert concat_bwd(interval, w((FWD, S)), S) == ()


def test_concat_endpoint_mismatch(circle):
    with pytest.raises(WordError, match="not at the A end"):
        concat_fwd(circle, w((FWD, S)), T)
    with pytest.raises(WordError, match="not at the B end"):
        concat_bwd(circle, (), S)


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
    assert enumerate_words(interval, Vertex("B", 0), 10) == [w((FWD, S))]


def test_enumerate_theta(theta):
    words = enumerate_words(theta, Vertex("A", 0), 2)
    assert len(words) == 7  # refl plus 3 * 2 two-crossing words
    assert len(enumerate_words(theta, Vertex("B", 0), 3)) == 15


def test_enumerate_unknown_endpoint(circle):
    with pytest.raises(WordError, match="unknown endpoint"):
        enumerate_words(circle, Vertex("B", 4), 3)


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
        for word in all_reduced_words(span, 6):
            end = word_endpoint(span, word)
            for s in span.edges_at(end):
                if end.side == "A":
                    assert concat_bwd(span, concat_fwd(span, word, s), s) == word
                else:
                    assert concat_fwd(span, concat_bwd(span, word, s), s) == word


def test_parity(corpus):
    for span in corpus.values():
        for word in all_reduced_words(span, 6):
            side = word_endpoint(span, word).side
            assert side == ("A" if len(word) % 2 == 0 else "B")


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
    monkeypatch.setattr(checks, "reduce_word", lambda span, w: ())
    monkeypatch.setattr(checks, "reduce_word_rightmost", lambda span, w: ())
    rows = {r.name: r for r in checks.word_suite(circle)}
    assert not rows["words.reduce-confluence"].ok


def test_parse_format_roundtrip(circle):
    for word in all_reduced_words(circle, 5):
        assert parse_word(circle, format_word(circle, word)) == word
    assert parse_word(circle, "refl") == ()


def test_parse_accepts_unreduced(circle):
    assert parse_word(circle, ">s <s") == w((FWD, S), (BWD, S))


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


def test_all_reduced_words_negative_bound(circle):
    assert all_reduced_words(circle, -1) == []
