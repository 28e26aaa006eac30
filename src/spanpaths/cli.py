"""Command line front end.

Subcommands: info, stages, enumerate, reduce, limit, check. Output is plain
text by default; --json switches every command to a single JSON object with
a stable schema (documented in the README). A command takes the parsed
arguments and the loaded span and returns its exit code, JSON payload and
text lines; ``run`` alone loads the span, prints, and reports errors.

Exit codes: 0 success, 1 a check reported failures, 2 a usage error or a bad
input (a missing, non-UTF-8 or malformed span file, an unknown vertex, a bad
word, a value a library call refuses, a stdout its reader closed), reported on
stderr as one ``error:`` line and never as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import lru_cache
from operator import itemgetter

from . import checks
from .seqcolim import direct_limit
from .span import SpanError, parse_span, realize, component_of
from .stages import build_stages, cycle_diagnostic, stage_diagram, stage_word_bijection
from .words import enumerate_words, format_word, parse_word, reduce_word
from .oracle import pi1_rank


def _load_span(path):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpanError("%s: not UTF-8 text (bad byte at offset %d)" % (path, exc.start)) from None
    return parse_span(text)


# The stdlib encodes with its pure-Python encoder whenever it is asked to
# indent. This writer gives the same bytes and hands whole columns to the C
# encoder: with an item separator that carries the column's indent, and since
# ensure_ascii leaves no raw newline inside a string, a column's text splits
# on that separator into one text per value.
_ENCODER = json.JSONEncoder()
_SCALARS = {str, int, float, bool, type(None)}


@lru_cache(maxsize=16)
def _encoder(sep):
    """The encode method of a C encoder whose item separator is ``sep``."""
    return json.JSONEncoder(check_circular=False, separators=(sep, ": ")).encode


@lru_cache(maxsize=64)
def _template(keys, nl):
    """The %-template of a dict with the sorted ``keys``: one %s per value."""
    inner = nl + "  "
    fields = ("," + inner).join(_ENCODER.encode(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + inner + fields + nl + "}"


def _columns(rows):
    """``(keys, columns)`` when ``rows`` are dicts sharing one non-empty key set, else None.

    ``keys`` is the sorted key tuple and ``columns`` one list of values per key.
    """
    if not all(issubclass(t, dict) for t in set(map(type, rows))):
        return None
    keys = tuple(sorted(rows[0]))
    if not keys or sum(map(len, rows)) != len(rows) * len(keys):
        return None
    try:
        return keys, [list(map(itemgetter(key), rows)) for key in keys]
    except KeyError:
        return None


def _texts(values, nl):
    """Each of ``values``' texts, with its lines indented to follow ``nl``.

    Scalars take one encoder call. Dicts sharing one key set are one column
    per key, stitched back with one template per row. Anything else is
    encoded value by value.
    """
    sep = "," + nl
    if _SCALARS.issuperset(map(type, values)):
        return _encoder(sep)(values)[1:-1].split(sep)
    table = _columns(values)
    if table:
        keys, columns = table
        texts = [_texts(column, nl + "  ") for column in columns]
        return list(map(_template(keys, nl).__mod__, zip(*texts)))
    return [_text(v, nl) for v in values]


def _text(value, nl):
    """``json.dumps(value, indent=2, sort_keys=True)``, its lines indented to follow ``nl``."""
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = tuple(sorted(value))
        return _template(keys, nl) % tuple(_texts([value[key] for key in keys], inner))
    if not isinstance(value, (list, tuple)):
        return _ENCODER.encode(value)
    if not value:
        return "[]"
    if _SCALARS.issuperset(map(type, value)):  # one encoder call is the whole list's text
        return "[" + inner + _encoder("," + inner)(value)[1:-1] + nl + "]"
    return "[" + inner + ("," + inner).join(_texts(value, inner)) + nl + "]"


def dumps(value):
    """``json.dumps(value, indent=2, sort_keys=True)`` for a JSON value, byte for byte."""
    return _text(value, "\n")


def _cmd_info(args, span):
    graph = realize(span)
    remaining = set(graph.vertices)
    components = 0
    while remaining:
        seed = next(v for v in graph.vertices if v in remaining)
        comp = component_of(graph, seed)
        remaining -= comp
        components += 1
    base_component = component_of(graph, span.base_vertex)
    rank = pi1_rank(graph, span.base_vertex)
    payload = {
        "command": "info",
        "a_vertices": list(span.a_vertices),
        "b_vertices": list(span.b_vertices),
        "edges": [list(e) for e in span.edges],
        "basepoint": span.a_vertices[span.basepoint],
        "components": components,
        "basepoint_component_size": len(base_component),
        "pi1_rank": rank,
    }
    return 0, payload, [
        "|A| = %d, |B| = %d, |S| = %d" % (len(span.a_vertices), len(span.b_vertices), len(span.edges)),
        "basepoint: %s" % span.a_vertices[span.basepoint],
        "components: %d (basepoint component has %d vertices)"
        % (components, len(base_component)),
        "pi1 rank at basepoint: %d" % rank,
    ]


def _cmd_stages(args, span):
    stages = build_stages(span, args.up_to)
    report = stage_word_bijection(stages)
    # a stage is ok only when each of its fibers was folded into a bijection
    matched = Counter(stage for stage, _v, _c, _w, ok in report.rows if ok)
    rows = []
    for n, st in enumerate(stages):
        fibers = {"A": {}, "B": {}}
        for v, size in st.sizes.items():
            fibers[v.side][span.vertex_label(v)] = size
        rows.append({
            "n": n,
            "a_fibers": fibers["A"],
            "b_fibers": fibers["B"],
            "glue": sum(st.glue_count(v) for v in st.sizes),
            "cycles": sum(cycle_diagnostic(stages, n).values()),
            "bijection": "ok" if matched[n] == len(st.sizes) else "FAIL",
        })
    payload = {"command": "stages", "rows": rows, "ok": report.ok}
    lines = []
    for row in rows:
        a_part = " ".join("%s=%d" % kv for kv in row["a_fibers"].items())
        b_part = " ".join("%s=%d" % kv for kv in row["b_fibers"].items())
        lines.append(
            "n=%d  |P_A|: %s  |P_B|: %s  glue=%d  cycles=%d  bijection=%s"
            % (row["n"], a_part or "-", b_part or "-", row["glue"], row["cycles"], row["bijection"])
        )
    if not report.ok:
        lines += ["mismatch: " + f for f in report.failures[:5]]
    return (0 if report.ok else 1), payload, lines


def _cmd_enumerate(args, span):
    endpoint = span.lookup_vertex(args.endpoint)
    words = enumerate_words(span, endpoint, args.max_len)
    rendered = [format_word(span, w) for w in words]
    payload = {
        "command": "enumerate",
        "endpoint": args.endpoint,
        "max_len": args.max_len,
        "words": rendered,
    }
    return 0, payload, rendered


def _cmd_reduce(args, span):
    word = parse_word(span, args.word)
    normal = reduce_word(span, word)
    rendered = format_word(span, normal)
    payload = {"command": "reduce", "input": args.word, "normal_form": rendered}
    return 0, payload, [rendered]


def _cmd_limit(args, span):
    endpoint = span.lookup_vertex(args.endpoint)
    stages = build_stages(span, args.up_to)
    report = stage_word_bijection(stages)
    limit = direct_limit(stage_diagram(stages, endpoint))
    pairs = limit.representatives()
    if report.ok:
        texts = report.tree.texts()
        word_maps = [report.word_maps[(n, endpoint)] for n in range(len(stages))]
        reps = [{"stage": n, "word": texts[word_maps[n][x]]} for n, x in pairs]
        del texts, word_maps
    else:
        reps = [{"stage": n} for n, _x in pairs]
    # the output needs none of the stages, the bijection or its tree: free them first
    del stages, report
    payload = {
        "command": "limit",
        "endpoint": args.endpoint,
        "up_to": args.up_to,
        "classes": limit.class_count,
        "representatives": reps,
    }
    lines = []
    if not args.json:
        lines = ["classes: %d" % limit.class_count]
        lines += ["stage=%d %s" % (entry["stage"], entry.get("word", "?")) for entry in reps]
    return 0, payload, lines


def _cmd_check(args, span):
    results = checks.run_all(
        span,
        seed=args.seed,
        max_len=args.max_len,
        stage_depth=args.stages,
        with_oracle=args.oracle,
    )
    ok = all(r.ok for r in results)
    payload = {
        "command": "check",
        "ok": ok,
        "results": [r._asdict() for r in results],
    }
    lines = [
        "%s %s%s" % ("ok  " if r.ok else "FAIL", r.name, (": " + r.details) if r.details else "")
        for r in results
    ]
    lines.append("check: %s" % ("all suites passed" if ok else "FAILURES"))
    return (0 if ok else 1), payload, lines


def _int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (minimum, value))
        return value

    return parse


# one parser per process; it holds the _cmd_* functions themselves, so a test
# patches the module names they read, never the functions
@lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="spanpaths",
        description="Staged pushout path spaces over finite span diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("file")
        p.set_defaults(func=func)
        return p

    command("info", _cmd_info, "span cardinalities, components, fundamental group rank")

    p = command("stages", _cmd_stages, "stage table: fiber sizes, glue, cycles, word bijection")
    p.add_argument("--up-to", type=_int_at_least(0), default=3, metavar="N")

    p = command("enumerate", _cmd_enumerate, "reduced words to an endpoint, canonical order")
    p.add_argument("--endpoint", required=True, metavar="V")
    p.add_argument("--max-len", type=_int_at_least(0), default=6, metavar="L")

    p = command("reduce", _cmd_reduce, "normal form of a word")
    p.add_argument("--word", required=True)

    p = command("limit", _cmd_limit, "direct limit classes of one fiber's stage diagram")
    p.add_argument("--up-to", type=_int_at_least(0), default=3, metavar="N")
    p.add_argument("--endpoint", required=True, metavar="V")

    p = command("check", _cmd_check, "run every module's invariant suite")
    p.add_argument("--oracle", action="store_true", help="add the graph-walk oracle suite")
    p.add_argument("--seed", type=int, default=0, metavar="K")
    p.add_argument("--max-len", type=_int_at_least(1), default=8, metavar="L")
    p.add_argument("--stages", type=_int_at_least(2), default=4, metavar="N")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None):
    # printing stays inside the try: a reader that closes stdout is an OSError too
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code, payload, lines = args.func(args, _load_span(args.file))
        for line in [dumps(payload)] if args.json else lines:
            print(line)
        return code
    except (ValueError, OSError) as exc:  # SpanError and WordError are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
