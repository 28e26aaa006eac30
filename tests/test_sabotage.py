"""The sabotage matrix: each case patches one attribute that a ``check`` row's
producer reads (mutation-style, after DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978) and flips exactly its listed rows of
``checks.run_all(span, with_oracle=True)``. A row no case flips proves nothing.
"""

import pytest

from spanpaths import checks, idsys, oracle, seqcolim
from spanpaths import stages as stages_module
from spanpaths.idsys import DescentFamily, Section
from spanpaths.seqcolim import FinSeqDiagram, truncate_diagram
from spanpaths.span import Vertex
from spanpaths.words import WordTree


def edited(edit):
    # the producer's result, passed through edit
    return lambda produce: lambda *args: edit(produce(*args))


def returning(value):
    # the producer replaced by a constant
    return lambda produce: lambda *args: value


drop_last = edited(lambda items: items[:-1])
# images listed in reverse class order: every entry in range, most of them wrong
reversed_images = edited(lambda images: images[::-1])
flip_side = edited(lambda v: Vertex("B" if v.side == "A" else "A", v.index))
# each inclusion sends every class where class 0 goes
_collapsed_inclusions = edited(
    lambda d: FinSeqDiagram(d.sizes, tuple(images[:1] * len(images) for images in d.maps))
)


def merged_forward_images(build):
    # stage 2's stored forward bridge over edge 0 sends its class 1 where class 0 goes
    def sabotaged(span, n):
        stages = build(span, n)
        glue_a = stages[2].glue_a
        bridge = list(glue_a[0])
        bridge[1] = bridge[0]
        stages[2] = stages[2]._replace(glue_a=(tuple(bridge), *glue_a[1:]))
        return stages

    return sabotaged


def raise_value_error(produce):
    def sabotaged(*args):
        raise ValueError("no zigzag")

    return sabotaged


def back_to_refl(step):
    # a step to a smaller id is a step back (children come after parents)
    def sabotaged(tree, x, s):
        y = step(tree, x, s)
        return 0 if y is not None and y < x else y

    return sabotaged


def section_value(node_of, value_of):
    # the fold writes value_of(fiber, value) at node_of(tree), fiber the node's
    def sabotage(elim):
        def sabotaged(fam, q0):
            values = list(elim(fam, q0).values)
            x = node_of(fam.tree)
            values[x] = value_of(fam.fibers[fam.tree.end[x]], values[x])
            return Section(fam, values)

        return sabotaged

    return sabotage


# node 1 is the first crossing from refl; node size(1) the first word of length 2
wrong_value_at_first_link = section_value(lambda tree: 1, lambda f, q: f[(f.index(q) + 1) % len(f)])
undefined_value_at_depth_two = section_value(lambda tree: tree.size(1), lambda f, q: 99)


def swap_two_images(make):
    # exchange the images of two window-safe crossings of edge 0; still bijective
    def sabotaged(span, bound):
        fam = make(span, bound)
        old = fam.transitions[1]  # edge 0's pair, shared by all its links
        safe = fam.tree.size(bound - 1)
        fwd = dict(old[0])
        a1, a2 = [a for a, b in fwd.items() if b < safe and fam.tree.parent[b] == a][-2:]
        fwd[a1], fwd[a2] = fwd[a2], fwd[a1]
        pair = (fwd, {b: a for a, b in fwd.items()})
        transitions = [pair if p is old else p for p in fam.transitions]
        return DescentFamily(span, bound, fam.fibers, transitions)

    return sabotaged


# case -> (bundled span, object, attribute, sabotage of the attribute's current
# value, every row the sabotage flips[, text a flipped row's details contains]);
# a sabotage patches the binding the row's producer reads, so checks.X and
# seqcolim.X are different targets
SABOTAGE = {
    "words.parity": ("theta", checks, "word_endpoint", flip_side, {"words.parity"}),
    "words.mutual-inverse": ("theta", WordTree, "step", back_to_refl, {"words.mutual-inverse"}),
    "words.window-monotone": (
        "theta", checks, "all_reduced_words", drop_last, {"words.window-monotone"},
    ),
    # the left-to-right reducer collapses every word, so the two strategies disagree
    "words.reduce-confluence": (
        "theta", checks, "_cancel_pairs", returning(()), {"words.reduce-confluence"},
    ),
    "words.roundtrip": ("theta", checks, "parse_word", drop_last, {"words.roundtrip"}),
    "stages.zero-case": (
        # the construction starts one stage late, so stage 0 is stage 1
        "theta", checks, "build_stages", lambda build: lambda span, n: build(span, n + 1)[1:],
        {"stages.zero-case", "stages.word-bijection", "stages.colimit-agreement"},
    ),
    "stages.word-bijection": (
        # the fold drops the last class of every fiber
        "theta", stages_module, "cogap_set", drop_last,
        {"stages.word-bijection", "stages.colimit-agreement"},
    ),
    "stages.incl-injective": (
        # stage 1's inclusions have at most one class: a fails at stages 2-4, then b from stage 2
        "theta", checks, "stage_diagram", _collapsed_inclusions,
        {"stages.incl-injective", "stages.colimit-agreement"},
        "stage 4 A inclusion at a not injective; stage 2 B inclusion at b not injective",
    ),
    "cycle-reported": (
        # every fiber's gluing graph is reported to hold one cycle
        "theta", checks, "cycle_diagnostic", edited(lambda cycles: dict.fromkeys(cycles, 1)),
        {"stages.cycle-report"}, "stage 0 a: 1 cycles",
    ),
    "stages.colimit-agreement": (
        # each cell reads the label of the cell before it
        "theta", checks, "class_labels",
        lambda labels_of: lambda c, n, labels: labels_of(c, n, labels[-1:] + labels[:-1]),
        {"stages.colimit-agreement", "seqcolim.shift-invariance"},
    ),
    "stages.zigzag-equivalence": (
        "theta", seqcolim, "map_of_limits", reversed_images, {"stages.zigzag-equivalence"},
    ),
    "zigzag-raises": (
        "theta", checks, "zigzag_equivalence", raise_value_error,
        {"stages.zigzag-equivalence"}, "edge s: no zigzag",
    ),
    # the construction zigzag rejects the bridge in both suites that build it
    "bridge-not-injective": (
        "theta", checks, "build_stages", merged_forward_images,
        {
            "stages.word-bijection", "stages.colimit-agreement", "stages.zigzag-equivalence",
            "seqcolim.map-composition",
        },
        "edge s: right triangle fails at level 0, element 1",
    ),
    "seqcolim.union-order-determinism": (
        # skipping whichever gluing comes first makes the classes depend on the order
        "theta", checks, "partition", lambda part: lambda total, glue: part(total, glue[1:]),
        {"seqcolim.union-order-determinism"},
    ),
    "seqcolim.injective-classes": (
        # every direct limit leaves its last level unglued
        "theta", seqcolim, "partition", lambda part: lambda total, glue: part(total, glue[:-1]),
        {
            "seqcolim.injective-classes", "seqcolim.union-order-determinism",
            "stages.colimit-agreement", "stages.zigzag-equivalence",
        },
    ),
    "seqcolim.shift-invariance": (
        "theta", checks, "shift_diagram", lambda shift: lambda d: truncate_diagram(d, d.truncation - 1),
        {"seqcolim.shift-invariance"},
    ),
    "seqcolim.map-composition": (
        "theta", checks, "map_of_limits", reversed_images, {"seqcolim.map-composition"},
    ),
    "idsys.fold-families": (
        "theta", idsys, "elim_section", wrong_value_at_first_link,
        {"idsys.fold-families", "idsys.encode-decode"},
    ),
    "section-undefined": (
        "theta", idsys, "elim_section", undefined_value_at_depth_two,
        {"idsys.fold-families", "idsys.encode-decode"}, "undefined on the section value 99",
    ),
    "idsys.encode-decode": ("theta", idsys, "word_family", swap_two_images, {"idsys.encode-decode"}),
    "idsys.negative-controls": (
        "theta", idsys, "uniqueness_check",
        lambda check: lambda fam, q0, sec: idsys.UniquenessReport(len(sec.values), None),
        {"idsys.negative-controls"},
    ),
    "computation-passes": (
        "theta", idsys, "check_computation", returning(idsys.ComputationReport(1, [])),
        {"idsys.negative-controls"}, "corrupted section passed check_computation",
    ),
    # walk 0 is refl, walks 1 and 2 cross s and t
    "walks-drop-last": ("theta", oracle, "nbt_walks", drop_last, {"oracle.walk-bijection"}),
    "walks-rotated": (
        "theta", oracle, "nbt_walks", edited(lambda w: w[1:] + w[:1]),
        {"oracle.walk-bijection"}, "item 0: lengths differ",
    ),
    "walks-swapped": (
        "theta", oracle, "nbt_walks", edited(lambda w: [w[0], w[2], w[1]] + w[3:]),
        {"oracle.walk-bijection"}, "item 1 step 0: edges differ",
    ),
    "walk-reversed": (
        "theta", oracle, "nbt_walks",
        edited(lambda w: [w[0], w[1]._replace(vertices=w[1].vertices[::-1])] + w[2:]),
        {"oracle.walk-bijection"}, "item 1 step 0: orientation differs",
    ),
    # a rank-0 claim on a rank-2 span: many words reach each vertex
    "rank-0-on-theta": ("theta", oracle, "pi1_rank", returning(0), {"oracle.rank-consistency"}),
    # a positive rank on a tree: the word counts stop growing after length 1
    "rank-1-on-interval": ("interval", oracle, "pi1_rank", returning(1), {"oracle.rank-consistency"}),
    "rank-negative": (
        "theta", oracle, "pi1_rank", returning(-1), {"oracle.rank-consistency"}, "negative rank -1",
    ),
}

# every row some case flips
SABOTAGED_ROWS = frozenset().union(*(case[4] for case in SABOTAGE.values()))


@pytest.mark.parametrize("case", sorted(SABOTAGE))
def test_sabotage_flips_exactly_its_rows(corpus, monkeypatch, case):
    name, target, attribute, sabotage, flipped, *text = SABOTAGE[case]
    span = corpus[name]
    assert all(r.ok for r in checks.run_all(span, with_oracle=True))
    monkeypatch.setattr(target, attribute, sabotage(getattr(target, attribute)))
    rows = {r.name: r for r in checks.run_all(span, with_oracle=True)}
    assert {r.name for r in rows.values() if not r.ok} == flipped
    for details in text:
        assert any(details in rows[row].details for row in flipped)


def test_every_check_row_has_a_sabotage(theta):
    rows = [r.name for r in checks.run_all(theta, with_oracle=True)]
    assert len(rows) == len(set(rows)) == 20
    assert set(rows) == SABOTAGED_ROWS
