import random
from itertools import permutations
from pathlib import Path

import pytest

from spanpaths import checks

from spanpaths.idsys import (
    DescentFamily,
    Section,
    build_family,
    check_computation,
    elim_section,
    encode_decode,
    parity_family,
    random_family,
    trivial_family,
    uniqueness_check,
    winding_family,
    word_family,
)
from spanpaths.span import Vertex, parse_span
from spanpaths.words import all_reduced_words, parse_word, word_endpoint, word_tree

T_EDGE = 1  # the circle's second edge, the counted one in the worked examples
SPANS = {
    path.stem: parse_span(path.read_text())
    for path in sorted((Path(__file__).resolve().parent.parent / "spans").glob("*.span"))
}


def test_trivial_family_has_unique_section(circle):
    fam = trivial_family(circle, 4)
    section = elim_section(fam, 0)
    assert set(section.values) == {0}
    assert check_computation(fam, 0, section).ok
    assert uniqueness_check(fam, 0, section).ok


def test_winding_family_counts_signed_crossings(circle):
    fam = winding_family(circle, 6, T_EDGE)
    section = elim_section(fam, 0)
    rank = all_reduced_words(circle, 6).index  # node ids are canonical ranks
    assert section.values[rank(parse_word(circle, ">s <t"))] == -1
    assert section.values[rank(parse_word(circle, ">t <s"))] == 1
    assert section.values[rank(parse_word(circle, ">t <s >t <s"))] == 2
    assert check_computation(fam, 0, section).ok
    assert uniqueness_check(fam, 0, section).ok


def test_parity_family_counts_crossings_mod_two(circle):
    fam = parity_family(circle, 6, T_EDGE)
    section = elim_section(fam, 0)
    for word, value in zip(all_reduced_words(circle, 6), section.values, strict=True):
        assert value == word.count(T_EDGE) % 2
    assert check_computation(fam, 0, section).ok


def test_fold_visits_each_word_exactly_once(theta):
    fam = trivial_family(theta, 4)
    section = elim_section(fam, 0)
    tree = fam.tree
    words = all_reduced_words(theta, 4)
    assert {tree.word(x) for x in range(len(section.values))} == set(words)
    assert len(section.values) == len(words)
    for x, word in enumerate(words):
        if word:
            assert tree.word(tree.parent[x]) == word[:-1]  # unique reduced predecessor


def test_elim_rejects_bad_base_value(circle):
    fam = trivial_family(circle, 3)
    with pytest.raises(ValueError, match="not in the fiber"):
        elim_section(fam, 99)


def test_elim_reports_window_too_small(circle):
    # folding the winding family from the window's edge walks out of it
    fam = winding_family(circle, 4, T_EDGE)
    with pytest.raises(ValueError, match="window too small"):
        elim_section(fam, 4)


def test_check_computation_flags_corruption(circle):
    fam = parity_family(circle, 6, T_EDGE)
    section = elim_section(fam, 0)
    corrupted = list(section.values)
    target = all_reduced_words(circle, 6).index(parse_word(circle, ">t"))
    corrupted[target] ^= 1
    report = check_computation(fam, 0, Section(fam, corrupted))
    assert not report.ok
    assert any(">t" in violation for violation in report.violations)


def test_check_computation_covers_cancellation_case(circle):
    # value tables where the backward case was folded wrongly must be caught
    fam = winding_family(circle, 4, T_EDGE)
    section = elim_section(fam, 0)
    corrupted = list(section.values)
    # reached through the inverse transition
    target = all_reduced_words(circle, 4).index(parse_word(circle, ">s <t"))
    corrupted[target] = corrupted[target] + 1
    report = check_computation(fam, 0, Section(fam, corrupted))
    # the cancellation link: crossing t from >s <t backtracks to >s, so the
    # link is the word's own (its A end is the child node); the corrupted
    # word is also caught on its link to >s <t >s, which is not this case
    assert "computation rule fails at >s <t across t: 1 != 0" in report.violations


def test_uniqueness_against_independent_scan(circle):
    # rebuild the winding section by direct inspection of each word
    fam = winding_family(circle, 6, T_EDGE)
    values = []  # indexed by node id, which is the canonical rank
    for word in all_reduced_words(circle, 6):
        signed = 0
        for i, s in enumerate(word):
            if s == T_EDGE:
                signed += 1 if i % 2 == 0 else -1  # even steps cross forward
        values.append(signed)
    section = Section(fam, values)
    assert check_computation(fam, 0, section).ok
    assert uniqueness_check(fam, 0, section).ok


def test_uniqueness_reports_first_disagreement(circle):
    fam = parity_family(circle, 5, T_EDGE)
    section = elim_section(fam, 0)
    corrupted = list(section.values)
    target = all_reduced_words(circle, 5).index(parse_word(circle, ">s <t >s"))
    corrupted[target] ^= 1
    report = uniqueness_check(fam, 0, Section(fam, corrupted))
    assert not report.ok
    assert ">s <t >s" in report.first_disagreement
    assert report.checked == target + 1  # every word up to and including the corrupted one


def test_encode_decode_interval(interval):
    report = encode_decode(interval, 4)
    assert report.ok
    assert report.identity_checked == 2  # refl and the single crossing


def test_encode_decode_circle(circle):
    report = encode_decode(circle, 6)
    assert report.ok
    assert report.identity_checked == len(all_reduced_words(circle, 5))


def test_encode_decode_theta(theta):
    report = encode_decode(theta, 4)
    assert report.ok
    assert report.identity_checked == len(all_reduced_words(theta, 3))


@pytest.mark.parametrize("bound", [4, 6, 8])
def test_encode_decode_theta_closed_form(theta, bound):
    # theta has 3 * 2**L - 2 reduced words of length <= L; each square is one
    # word-to-predecessor link among the words of length <= L - 1
    report = encode_decode(theta, bound)
    assert report.ok
    assert report.identity_checked == 3 * 2 ** (bound - 1) - 2
    assert report.naturality_checked == report.identity_checked - 1


def test_word_family_transitions_are_concatenation(circle):
    fam = word_family(circle, 4)
    word = fam.tree.word
    for fwd, inv in fam.transitions[1:]:
        for value, image in fwd.items():
            assert inv[image] == value
            assert len(word(image)) in (len(word(value)) - 1, len(word(value)) + 1)


def recorded_families(monkeypatch):
    # every DescentFamily built from here on, in build order
    families, init = [], DescentFamily.__init__

    def recording_init(fam, *args):
        init(fam, *args)
        families.append(fam)

    monkeypatch.setattr(DescentFamily, "__init__", recording_init)
    return families


def test_word_family_shares_one_pair_per_edge(theta, monkeypatch):
    # the families idsys_suite folds, less the random ones: trivial, parity and
    # winding at each edge, then encode_decode's word family and the negative control
    families = recorded_families(monkeypatch)
    checks.idsys_suite(theta, bound=8)
    assert len(families) == 2 * len(theta.edges) + 5
    for fam in families[:-4] + families[-2:]:  # random0 and random1 come before the word family
        assert len(fam.transitions) == 766  # one per node; refl has no link
        assert fam.transitions[0] is None
        pairs_by_edge = {}
        for x, pair in enumerate(fam.transitions[1:], 1):
            pairs_by_edge.setdefault(fam.tree.last_edge[x], set()).add(id(pair))
        assert {s: len(ids) for s, ids in pairs_by_edge.items()} == {0: 1, 1: 1, 2: 1}
        assert len({id(pair) for pair in fam.transitions[1:]}) == 3


@pytest.mark.parametrize("name", sorted(SPANS))
def test_build_family_calls_crossing_once_per_edge(name):
    span, calls = SPANS[name], []
    fam = build_family(span, 6, lambda v: (0, 1), lambda s: calls.append(s) or {0: 0, 1: 1})
    assert calls == sorted(set(fam.tree.last_edge[1:])) == list(range(len(span.edges)))


def test_family_validation_checks_every_link_of_an_edge_that_shares_no_one_pair(theta):
    fam = parity_family(theta, 4, T_EDGE)
    tree, transitions = fam.tree, list(fam.transitions)
    nodes = [x for x in range(1, len(transitions)) if tree.last_edge[x] == T_EDGE]
    x = nodes[len(nodes) // 2]  # the edge's first and last links keep its shared pair
    transitions[x] = ({0: 1, 1: 1}, {1: 1})
    a = tree.text(tree.links[0][x - 1])
    with pytest.raises(ValueError, match=r"^transition \(t, %s\) is not bijective$" % a):
        DescentFamily(theta, 4, fam.fibers, transitions)


def test_folds_never_build_the_neighbour_columns(theta):
    tree = word_tree(theta, 6)  # held, so the folds below share it
    assert encode_decode(theta, 6).ok
    assert all(result.ok for result in checks.idsys_suite(theta, bound=6))
    assert word_family(theta, 6).tree is tree
    assert "across" not in tree.__dict__


def test_family_validation_rejects_non_bijection_among_shared_pairs(circle):
    fam = parity_family(circle, 6, T_EDGE)
    transitions = list(fam.transitions)
    transitions[-1] = ({0: 0, 1: 0}, {0: 0})  # checked after its shared pair passed at other links
    with pytest.raises(ValueError, match="not bijective"):
        DescentFamily(circle, 6, fam.fibers, transitions)


def test_family_validation_checks_each_pair_across_each_edge(span_of):
    # one shared dict for every link: it fits the fibers across s0 but not
    # across s1, whose B end has the smaller fiber, so checking the pair at
    # its first link alone would pass the family
    span = span_of(1, 2, [(0, 0), (0, 1)])
    same = {0: 0, 1: 1}
    with pytest.raises(ValueError, match=r"transition \(s1, refl\) leaves the fibers"):
        build_family(
            span, 3, lambda v: (0,) if v == Vertex("B", 1) else (0, 1), lambda s: same
        )


def test_family_validation_names_the_first_failing_link_in_node_order(theta):
    # bad links across two edges: u's (node 3, >u) precedes s's (node 6, >t <s) in node
    # order although s is the lower edge, so a report in edge order would name s's
    fam = build_family(theta, 3, lambda v: (0, 1), lambda s: {0: 0, 1: 1})
    assert [fam.tree.text(x) for x in (3, 6)] == [">u", ">t <s"]
    bad = {3: {0: 0, 1: 2}, 6: {0: 0, 1: 0}}  # each link's forward dict, keyed by node

    def with_bad_links(*nodes):
        transitions = list(fam.transitions)
        for x in nodes:
            transitions[x] = bad[x], dict(zip(bad[x].values(), bad[x]))
        return DescentFamily(theta, 3, fam.fibers, transitions)

    # s's bad link alone is caught; with u's as well, u's is the one named
    with pytest.raises(ValueError, match=r"^transition \(s, >t <s\) is not bijective$"):
        with_bad_links(6)
    with pytest.raises(ValueError, match=r"^transition \(u, refl\) leaves the fibers$"):
        with_bad_links(3, 6)


def test_build_family_does_not_trim_crossings_to_the_fibers(circle):
    with pytest.raises(ValueError, match="leaves the fibers"):
        build_family(circle, 3, lambda v: (0, 1), lambda s: {0: 0, 1: 1, 2: 2})


def test_family_validation_rejects_missing_fiber(circle):
    fam = trivial_family(circle, 3)
    fibers = dict(fam.fibers)
    del fibers[word_endpoint(circle, parse_word(circle, ">s"))]
    with pytest.raises(ValueError, match="fiber table has no fiber over b"):
        DescentFamily(circle, 3, fibers, fam.transitions)


@pytest.mark.parametrize("change", ["short", "long"])
def test_family_validation_rejects_wrong_length_transition_table(circle, change):
    fam = parity_family(circle, 3, T_EDGE)
    transitions = list(fam.transitions)
    if change == "short":
        transitions.pop()
    else:
        transitions.append(transitions[-1])
    counts = "missing 1, extra 0" if change == "short" else "missing 0, extra 1"
    with pytest.raises(ValueError, match=r"transition table incomplete or overfull \(%s\)" % counts):
        DescentFamily(circle, 3, fam.fibers, transitions)


def test_family_validation_rejects_non_bijection(circle):
    fam = parity_family(circle, 3, T_EDGE)
    transitions = list(fam.transitions)
    transitions[1] = ({0: 0, 1: 0}, {0: 0})  # node 1 is >s, linked to refl
    with pytest.raises(ValueError, match=r"transition \(s, refl\) is not bijective"):
        DescentFamily(circle, 3, fam.fibers, transitions)


def test_family_validation_rejects_escaping_values(circle):
    fam = parity_family(circle, 3, T_EDGE)
    transitions = list(fam.transitions)
    transitions[1] = ({0: 5, 1: 1}, {5: 0, 1: 1})
    with pytest.raises(ValueError, match=r"transition \(s, refl\) leaves the fibers"):
        DescentFamily(circle, 3, fam.fibers, transitions)


def test_random_families_fold_coherently(corpus):
    rng = random.Random(7)
    for span in corpus.values():
        for _ in range(3):
            fam = random_family(span, 5, rng)
            section = elim_section(fam, 0)
            assert check_computation(fam, 0, section).ok
            assert uniqueness_check(fam, 0, section).ok


@pytest.mark.parametrize("seed", [0, 7])
def test_random_family_draws_are_the_reference_draws(corpus, seed):
    # random_family draws its fiber size, then every link's permutation, through
    # rng.choices; the twin rng makes the same two choices calls over plain tuples
    sizes = set()
    for span in corpus.values():
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(6):
            fam = random_family(span, 5, ours)
            n = ref.choices(range(1, 5))[0]
            sizes.add(n)
            assert fam.fibers[span.base_vertex] == tuple(range(n))
            links = fam.transitions[1:]
            perms = ref.choices(list(permutations(range(n))), k=len(links))
            for x, ((fwd, inv), perm) in enumerate(zip(links, perms, strict=True), 1):
                assert fwd == dict(enumerate(perm)), (span, x)
                assert inv == {y: i for i, y in enumerate(perm)}, (span, x)
            # links drawing one permutation share its pair
            assert len(set(map(id, links))) == len(set(perms))
        assert ours.getstate() == ref.getstate()
    assert sizes == {1, 2, 3, 4}


def test_build_family_on_edgeless_span(coproduct):
    fam = build_family(coproduct, 6, lambda v: (0, 1), lambda s: {0: 0, 1: 1})
    assert len(fam.fibers) == 1  # only the base vertex is reached
    assert fam.transitions == [None]
    section = elim_section(fam, 1)
    assert section.values == [1]


def test_idsys_suite_families_share_one_tree(theta, monkeypatch):
    families = recorded_families(monkeypatch)
    assert all(result.ok for result in checks.idsys_suite(theta, bound=5))
    trees = [fam.tree for fam in families]
    assert len(trees) == 2 * len(theta.edges) + 5
    assert all(tree is trees[0] for tree in trees)


def test_section_needs_one_value_per_word(circle):
    fam = trivial_family(circle, 3)
    with pytest.raises(ValueError, match="one value per word"):
        Section(fam, [0, 0])


@pytest.mark.parametrize("name", sorted(SPANS))
def test_fold_counts_follow_the_words(name):
    # one computation rule per edge at each A-side word short enough to cross,
    # one identity per window-safe word, one square per link among those words
    span = SPANS[name]
    for bound in range(9):  # at bound 0 only refl's base value is checked
        short = all_reduced_words(span, bound - 1)
        rules = sum(
            len(span.edges_at(word_endpoint(span, word))) for word in short if len(word) % 2 == 0
        )
        fam = trivial_family(span, bound)
        assert check_computation(fam, 0, elim_section(fam, 0)).checked == 1 + rules
        report = encode_decode(span, bound)
        assert report.ok
        assert report.identity_checked == len(short)
        assert report.naturality_checked == max(report.identity_checked - 1, 0)


def test_encode_decode_report_is_not_a_tuple(circle):
    # a tuple result reads as a CLI (code, stdout) pair to perfbench/run.py
    report = encode_decode(circle, 3)
    assert report.ok
    assert not isinstance(report, tuple)
