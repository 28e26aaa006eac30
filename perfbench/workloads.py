"""The three workloads: what one pass calls, and how each result is verified.

A pass is a list of ``Call``s into the program, either ``cli.run`` in-process
with a generated argv or a public library function. Every call's output is
checked against the reference counts of ``inputs`` (never against the
program's own numbers); CLI stdout is also compared with the digests recorded
at commit 87397b7, or, for seeded random spans, with its own first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Callable, NamedTuple

import inputs as ref

FIXED_SPANS = ("circle", "coproduct", "interval", "theta", "tree4")

# size parameters; "tiny" is the self-test's smoke size
SIZES = {
    "full": {
        "theta_up_to": 6, "k33_up_to": 6,
        "folds": (("theta", 8), ("bouquet3", 7)), "suite_bound": 7,
        "fixed_check": (), "random_count": 40,
    },
    "tiny": {
        "theta_up_to": 3, "k33_up_to": 2,
        "folds": (("theta", 4), ("bouquet3", 3)), "suite_bound": 3,
        "fixed_check": ("--max-len", "4", "--stages", "2"), "random_count": 3,
    },
}
RANDOM_CHECK = ("--max-len", "6", "--stages", "3")
CHECK_DEFAULTS = {"--max-len": 8, "--stages": 4}
SUITE_NAMES = (
    "words.parity", "words.mutual-inverse", "words.window-monotone",
    "words.reduce-confluence", "words.roundtrip",
    "stages.zero-case", "stages.word-bijection", "stages.incl-injective",
    "stages.cycle-report", "stages.colimit-agreement", "stages.zigzag-equivalence",
    "seqcolim.union-order-determinism", "seqcolim.injective-classes",
    "seqcolim.shift-invariance", "seqcolim.map-composition",
    "idsys.fold-families", "idsys.encode-decode", "idsys.negative-controls",
    "oracle.walk-bijection", "oracle.rank-consistency",
)


class Call(NamedTuple):
    label: str  # digest key and report name
    run: Callable  # api -> result
    verify: Callable  # result -> list of problems
    work: int  # reference work units this call completes
    random_span: bool = False  # a sample of span_check_s


class Workload(NamedTuple):
    name: str
    unit: str  # report name of work_per_s on this workload
    spans: dict  # name -> inputs.Span parsed and realized in set-up
    files: dict  # name -> path (relative to the checkout) the CLI reads
    calls: list  # of Call, one pass


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(api, argv):
    """``cli.run`` in-process with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.run(list(argv))
    return code, buf.getvalue()


# ------------------------------------------------------------ output checks


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


def _cli_checks(label, result, digests, first_seen):
    """Exit code, JSON payload and stdout digest of one CLI call."""
    code, out = result
    problems = []
    _expect(problems, label + " exit code", code, 0)
    digest = sha256(out)
    if label in digests:
        _expect(problems, label + " stdout sha256", digest, digests[label])
    else:
        _expect(problems, label + " stdout sha256 (first pass)", digest, first_seen.setdefault(label, digest))
    try:
        payload = json.loads(out)
    except ValueError:
        problems.append(label + ": stdout is not JSON")
        payload = None
    return problems, payload


def check_stages(span, depth, payload, problems, theta):
    table = ref.stage_table(span, depth)
    rows = payload.get("rows", [])
    _expect(problems, "ok", payload.get("ok"), True)
    _expect(problems, "rows", len(rows), depth + 1)
    for n, (row, want) in enumerate(zip(rows, table)):
        a_fibers = {span.a[i]: want[("A", i)][0] for i in range(len(span.a))}
        b_fibers = {span.b[j]: want[("B", j)][0] for j in range(len(span.b))}
        if theta:  # closed forms, independent of the transfer-matrix count
            closed_a = {label: 2 ** (2 * n + 1) - 1 for label in span.a}
            closed_b = {label: 2 ** (2 * n) - 1 for label in span.b}
            _expect(problems, "theta closed form, reference A stage %d" % n, a_fibers, closed_a)
            _expect(problems, "theta closed form, reference B stage %d" % n, b_fibers, closed_b)
            a_fibers, b_fibers = closed_a, closed_b
        glue = sum(g for _, _, g in want.values())
        cycles = sum(g - cells + classes for classes, cells, g in want.values())
        _expect(problems, "stage %d a_fibers" % n, row.get("a_fibers"), a_fibers)
        _expect(problems, "stage %d b_fibers" % n, row.get("b_fibers"), b_fibers)
        _expect(problems, "stage %d glue" % n, row.get("glue"), glue)
        _expect(problems, "stage %d cycles" % n, row.get("cycles"), cycles)
        _expect(problems, "stage %d bijection" % n, row.get("bijection"), "ok")


def check_limit(span, depth, endpoint, payload, problems):
    side, index = ("A", span.a.index(endpoint)) if endpoint in span.a else ("B", span.b.index(endpoint))
    counts = ref.walk_counts(span, 2 * depth)
    bound = 2 * depth if side == "A" else 2 * depth - 1
    classes = ref.words_upto(counts, bound, (side, index))
    _expect(problems, "classes", payload.get("classes"), classes)
    reps = payload.get("representatives", [])
    _expect(problems, "representatives", len(reps), classes)
    edge_of = {label: (i, j) for label, i, j in span.edges}
    by_length = {}
    words = set()
    for entry in reps:
        text = entry.get("word", "")
        steps = [] if text == "refl" else text.split()
        at, last, fine = ("A", span.base), None, True
        for k, tok in enumerate(steps):
            forward = tok[:1] == ">"
            ends = edge_of.get(tok[1:])
            if ends is None or forward != (k % 2 == 0) or tok[1:] == last:
                fine = False
                break
            here, there = (("A", ends[0]), ("B", ends[1])) if forward else (("B", ends[1]), ("A", ends[0]))
            if at != here:
                fine = False
                break
            at, last = there, tok[1:]
        if not fine or at != (side, index) or len(steps) > bound:
            problems.append("representative %r is not a reduced word to %s" % (text, endpoint))
        _expect(problems, "stage of %r" % text, entry.get("stage"), (len(steps) + 1) // 2)
        words.add(text)
        by_length[len(steps)] = by_length.get(len(steps), 0) + 1
    _expect(problems, "distinct representatives", len(words), len(reps))
    want = {n: row[(side, index)] for n, row in enumerate(counts[: bound + 1]) if row.get((side, index))}
    _expect(problems, "representatives by length", by_length, want)


def suite_details(span, max_len, depth):
    """Expected ``details`` of each check suite that reports a count."""
    counts = ref.walk_counts(span, max(max_len, 2 * depth))
    bound = min(max_len, 6)
    cycles = []
    for n, row in enumerate(ref.stage_table(span, depth)):
        for v in sorted(row, key=lambda v: (v[0], v[1])):
            classes, cells, glue = row[v]
            if glue - cells + classes:
                label = span.a[v[1]] if v[0] == "A" else span.b[v[1]]
                cycles.append("stage %d %s: %d" % (n, label, glue - cells + classes))
    roundtrips = 0
    for _, i, j in span.edges:
        roundtrips += ref.words_upto(counts, 2 * (depth - 2), ("A", i))
        roundtrips += ref.words_upto(counts, 2 * depth - 3, ("B", j))
    return {
        "words.reduce-confluence": "1000 samples",
        "stages.cycle-report": "nonzero: " + "; ".join(cycles) if cycles else "all gluing graphs are forests",
        "stages.zigzag-equivalence": "%d round trips" % roundtrips,
        "idsys.fold-families": "%d families" % (2 * len(span.edges) + 3),
        "idsys.encode-decode": "%d identities, %d squares"
        % (ref.words_upto(counts, bound - 1), ref.fold_squares(span, counts, bound)),
        "oracle.walk-bijection": "%d items" % ref.words_upto(counts, max_len),
        "oracle.rank-consistency": "rank %d" % ref.rank_at_base(span),
    }


def check_results(results, names, details, problems):
    """Suite rows as (name, ok, details): all ok, in order, with the reference details."""
    _expect(problems, "suites", [name for name, _, _ in results], list(names))
    for name, ok, detail in results:
        if not ok:
            problems.append("%s failed: %s" % (name, detail))
        if name in details:
            _expect(problems, name + " details", detail, details[name])
        elif name == "idsys.negative-controls":
            if not (detail.startswith("corruption at ") and detail.endswith(" detected")):
                problems.append("negative control details %r" % (detail,))
        else:
            _expect(problems, name + " details", detail, "")


# ------------------------------------------------------------ workloads


def _span_file(name):
    return "spans/%s.span" % name


def stages_deep(seed, size, digests, out_dir):
    """Two CLI calls that build a few huge fibers."""
    first_seen = {}
    theta = ref.read_span(open(_span_file("theta"), encoding="utf-8").read())
    k33 = ref.k33()
    n_theta, n_k33 = size["theta_up_to"], size["k33_up_to"]
    endpoint = "a0"  # the basepoint's own fiber

    stages_argv = ("stages", _span_file("theta"), "--up-to", str(n_theta), "--json")
    limit_argv = ("limit", out_dir + "/k33.span", "--up-to", str(n_k33), "--endpoint", endpoint, "--json")
    stages_label = "stages theta --up-to %d --json" % n_theta
    limit_label = "limit k33 --up-to %d --endpoint %s --json" % (n_k33, endpoint)

    def verify_stages(result):
        problems, payload = _cli_checks(stages_label, result, digests, first_seen)
        if payload is not None:
            check_stages(theta, n_theta, payload, problems, theta=True)
        return problems

    def verify_limit(result):
        problems, payload = _cli_checks(limit_label, result, digests, first_seen)
        if payload is not None:
            check_limit(k33, n_k33, endpoint, payload, problems)
        return problems

    calls = [
        Call(stages_label, lambda api: run_cli(api, stages_argv), verify_stages,
             ref.stage_cells(theta, n_theta)),
        Call(limit_label, lambda api: run_cli(api, limit_argv), verify_limit,
             ref.stage_cells(k33, n_k33)),
    ]
    return Workload("stages-deep", "cells_per_s", {"theta": theta, "k33": k33},
                    {"k33": out_dir + "/k33.span"}, calls)


def fold_deep(seed, size, digests, out_dir):
    """Library folds deeper than the CLI's --max-len allows; no stage is built."""
    spans = {
        "theta": ref.read_span(open(_span_file("theta"), encoding="utf-8").read()),
        "bouquet3": ref.bouquet(3),
        "k33": ref.k33(),
    }
    bound = size["suite_bound"]

    def encode_decode_call(name, depth):
        span = spans[name]
        counts = ref.walk_counts(span, depth)

        def verify(report):
            problems = []
            _expect(problems, "identities", report.identity_checked, ref.words_upto(counts, depth - 1))
            _expect(problems, "squares", report.naturality_checked, ref.fold_squares(span, counts, depth))
            _expect(problems, "identity mismatches", report.identity_mismatches, [])
            _expect(problems, "naturality mismatches", report.naturality_mismatches, [])
            return problems

        return Call("encode_decode %s %d" % (name, depth),
                    lambda api: api.idsys.encode_decode(api.spans[name], depth),
                    verify, ref.words_upto(counts, depth))

    k33 = spans["k33"]
    counts = ref.walk_counts(k33, bound)
    want = {
        "idsys.fold-families": "%d families" % (2 * len(k33.edges) + 3),
        "idsys.encode-decode": "%d identities, %d squares"
        % (ref.words_upto(counts, bound - 1), ref.fold_squares(k33, counts, bound)),
    }

    def verify_suite(results):
        problems = []
        rows = [(r.name, r.ok, r.details) for r in results]
        names = ("idsys.fold-families", "idsys.encode-decode", "idsys.negative-controls")
        check_results(rows, names, want, problems)
        return problems

    families = 2 * len(k33.edges) + 5  # suite families + word family + negative control
    calls = [encode_decode_call(name, depth) for name, depth in size["folds"]] + [
        Call("idsys_suite k33 %d" % bound,
             lambda api: api.checks.idsys_suite(api.spans["k33"], bound=bound, seed=seed),
             verify_suite, ref.words_upto(counts, bound) * families),
    ]
    return Workload("fold-deep", "fold_words_per_s", spans, {}, calls)


def check_corpus(seed, size, digests, out_dir):
    """``check --oracle --json`` on the fixed spans, then on seeded random spans."""
    first_seen = {}
    spans, files, jobs = {}, {}, []
    extra = size["fixed_check"]
    for name in FIXED_SPANS:
        spans[name] = ref.read_span(open(_span_file(name), encoding="utf-8").read())
        files[name] = _span_file(name)
        jobs.append((name, extra, False))
    spans["k33"], spans["bouquet3"] = ref.k33(), ref.bouquet(3)
    for name in ("k33", "bouquet3"):
        files[name] = "%s/%s.span" % (out_dir, name)
        jobs.append((name, extra, False))
    rng = ref.make_rng(seed, "check-corpus")
    for k, span in enumerate(ref.random_spans(rng, size["random_count"])):
        name = "random%02d" % k
        spans[name] = span
        files[name] = "%s/%s.span" % (out_dir, name)
        jobs.append((name, RANDOM_CHECK, True))

    def job_call(name, extra, random_span):
        argv = ("check", files[name], "--oracle", "--json") + tuple(extra)
        label = " ".join(("check", name, "--oracle", "--json") + tuple(extra))
        options = dict(CHECK_DEFAULTS)
        options.update({extra[i]: int(extra[i + 1]) for i in range(0, len(extra), 2)})
        details = suite_details(spans[name], options["--max-len"], options["--stages"])

        def verify(result):
            problems, payload = _cli_checks(label, result, digests, first_seen)
            if payload is not None:
                _expect(problems, label + " ok", payload.get("ok"), True)
                rows = [(r.get("name"), r.get("ok"), r.get("details")) for r in payload.get("results", [])]
                check_results(rows, SUITE_NAMES, details, problems)
            return problems

        return Call(label, lambda api: run_cli(api, argv), verify, 1, random_span)

    return Workload("check-corpus", "spans_per_s", spans, files, [job_call(*job) for job in jobs])


def write_inputs(workload, out_dir):
    """Write the workload's generated spans to the files under ``out_dir`` the CLI reads."""
    os.makedirs(out_dir, exist_ok=True)
    for name, path in workload.files.items():
        if path.startswith(out_dir + "/"):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ref.span_text(workload.spans[name]))


WORKLOADS = {"stages-deep": stages_deep, "fold-deep": fold_deep, "check-corpus": check_corpus}
