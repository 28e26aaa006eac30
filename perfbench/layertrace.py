"""Per-layer tracing by wrapping the public names of each spanpaths module.

The program is not edited: ``Tracer.install`` replaces each name listed in
``LAYERS`` by a timing wrapper wherever a spanpaths module binds it (the
defining module, the package and every module that imported it by name),
and patches the listed methods on their classes. A name that no longer
exists is recorded in ``absent`` and simply counts zero calls.

Each wrapped call is timed with ``perf_counter``; its self time is its
duration minus the time of the wrapped calls it made. Calls to the names in
``HOT`` (millions per run) are only aggregated; every other call is also kept
as a span record ``(id, parent id, name, start, end)`` for ``dump``.
Count hooks read return values after the call's clock has stopped, with
tracing switched off, and their time is charged to no layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# layer -> names wrapped in spanpaths.<layer>. "Class" wraps __init__ and the
# public methods and properties the class defines; "Class.method" wraps one.
LAYERS = {
    "span": ["parse_span", "serialize_span", "realize", "component_of", "FiniteSpan.__init__"],
    "words": [
        "validate_word", "is_reduced", "word_endpoint", "reduce_word",
        "reduce_word_rightmost", "concat_fwd", "concat_bwd", "transport_glue",
        "stage_of", "all_reduced_words", "enumerate_words", "parse_word", "format_word",
    ],
    "stages": [
        "SpanInstance.__init__", "PushoutPi0", "pushout_pi0", "cogap_set", "StageFamily",
        "build_stages", "cycle_diagnostic", "stage_word_bijection", "stage_diagram",
        "construction_zigzag",
    ],
    "seqcolim": [
        "QuotientSet", "FinSeqDiagram.__init__", "shift_diagram", "truncate_diagram",
        "direct_limit", "SeqMorphism.__init__", "identity_morphism", "compose_morphisms",
        "map_of_limits", "SeqZigzag.__init__", "half_shift", "zigzag_to_morphism",
        "zigzag_equivalence",
    ],
    "idsys": [
        "DescentFamily.__init__", "build_family", "trivial_family", "parity_family",
        "winding_family", "random_family", "elim_section", "check_computation",
        "uniqueness_check", "word_family", "encode_decode",
    ],
    "oracle": ["nbt_walks", "pi1_rank", "compare_words_walks"],
    "checks": [
        "random_unreduced_word", "word_suite", "oracle_suite", "stage_suite", "zigzag_suite",
        "seqcolim_suite", "idsys_suite", "random_span", "random_span_suite", "run_all",
    ],
    "cli": ["run", "build_parser", "main"],
}

HOT_PREFIXES = ("QuotientSet.", "PushoutPi0.", "StageFamily.", "FiniteSpan.")
HOT = {
    "validate_word", "is_reduced", "word_endpoint", "reduce_word", "reduce_word_rightmost",
    "concat_fwd", "concat_bwd", "transport_glue", "stage_of", "parse_word", "format_word",
    "random_unreduced_word",
}


def _is_hot(name):
    return name in HOT or name.startswith(HOT_PREFIXES)


class Tracer:
    """Wrappers, span records and per-name totals for one traced process."""

    def __init__(self):
        self.active = False
        self.absent = []
        self.hooks = dict(HOOKS)
        self._stack = []
        self._next_id = 1
        self.reset()

    def reset(self):
        """Start a new measurement window (one pass)."""
        self.spans = []
        self.calls = Counter()
        self.total_s = Counter()
        self.layer_self_s = Counter()
        self.counts = Counter()
        self.seen = {}

    # -------------------------------------------------------------- install

    def install(self, package, modules):
        """Wrap every name in LAYERS.

        ``modules`` maps a layer to the module its names are looked up in;
        each wrapper replaces the original in every loaded module of the package.
        """
        self.modules = modules
        prefix = package.__name__ + "."
        bound = [package] + [m for n, m in sys.modules.items() if n.startswith(prefix)]
        for layer, names in LAYERS.items():
            module = modules.get(layer)
            for entry in names:
                cls_name, _, method = entry.partition(".")
                target = getattr(module, cls_name, None) if module is not None else None
                if target is None:
                    self.absent.append("%s.%s" % (layer, entry))
                elif isinstance(target, type):
                    self._wrap_class(layer, cls_name, target, method)
                elif method:
                    self.absent.append("%s.%s" % (layer, entry))
                else:
                    wrapper = self._wrapper(entry, layer, target)
                    for mod in bound:
                        for attr, value in list(vars(mod).items()):
                            if value is target:
                                setattr(mod, attr, wrapper)

    def _wrap_class(self, layer, cls_name, cls, method):
        if method:
            wanted = [method]
        else:
            wanted = [
                attr for attr, value in vars(cls).items()
                if (attr == "__init__" or not attr.startswith("_"))
                and (callable(value) or isinstance(value, property))
            ]
        for attr in wanted:
            value = vars(cls).get(attr)
            name = "%s.%s" % (cls_name, attr)
            if isinstance(value, property):
                setattr(cls, attr, property(self._wrapper(name, layer, value.fget)))
            elif callable(value):
                setattr(cls, attr, self._wrapper(name, layer, value))
            else:
                self.absent.append("%s.%s" % (layer, name))

    def _wrapper(self, name, layer, fn):
        tracer = self
        stack = self._stack
        record = not _is_hot(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, 0]  # time of wrapped children, span id
            if record:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            elif parent is not None:
                frame[1] = parent[1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.layer_self_s[layer] += duration - frame[0]
                if record:
                    tracer.spans.append(
                        (frame[1], parent[1] if parent else 0, name, start, end)
                    )
                if parent is not None:
                    parent[0] += duration
            hook = tracer.hooks.get(name)
            if hook is not None:
                tracer.active = False
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    # the return value no longer has the shape this count reads
                    tracer.hooks.pop(name)
                    tracer.absent.append("count:" + name)
                finally:
                    tracer.active = True
            if parent is not None:
                # bookkeeping and count hooks belong to no layer
                parent[0] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- counts

    def first_time(self, kind, key):
        """True the first time ``key`` is seen for ``kind`` in this window."""
        seen = self.seen.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def dump(self, path, extra):
        """Write span records and totals as JSON."""
        payload = dict(extra)
        payload["absent"] = self.absent
        payload["calls"] = dict(self.calls)
        payload["total_s"] = dict(self.total_s)
        payload["spans"] = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ------------------------------------------------------------ count hooks


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_enum(tracer, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "span"), _arg(args, kwargs, 1, "max_len"))
    if not tracer.first_time("enum", key):
        tracer.counts["enum_repeats"] += 1
    tracer.counts["words_generated"] += len(result)


def _count_enum_returned(tracer, args, kwargs, result):
    tracer.counts["words_returned"] += len(result)


def _count_stages(tracer, args, kwargs, result):
    span = _arg(args, kwargs, 0, "span")
    if tracer.first_time("build", span):
        tracer.counts["distinct_build_spans"] += 1
    cycle_diagnostic = tracer.modules["stages"].cycle_diagnostic
    for n, stage in enumerate(result):
        cycles = cycle_diagnostic(result, n)
        for v in span.vertices():
            reps = stage.pa_classes(v.index) if v.side == "A" else stage.pb_classes(v.index)
            glue = len(stage.glue_edges(v))
            tracer.counts["classes"] += len(reps)
            tracer.counts["glue_edges"] += glue
            # cycles = glue edges - cells + classes for each fiber's gluing graph
            tracer.counts["cells"] += glue + len(reps) - cycles[v]


def _count_roundtrips(tracer, args, kwargs, result):
    tracer.counts["zigzag_roundtrips"] += result.checked


def _count_walks(tracer, args, kwargs, result):
    tracer.counts["walks"] += len(result)


HOOKS = {
    "all_reduced_words": _count_enum,
    "enumerate_words": _count_enum_returned,
    "build_stages": _count_stages,
    "zigzag_equivalence": _count_roundtrips,
    "nbt_walks": _count_walks,
}

SUITES = ("words", "stages", "zigzag", "seqcolim", "idsys", "oracle")
SUITE_FUNCTION = {"words": "word_suite", "stages": "stage_suite"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of the current window, keyed as in BENCHMARK.json."""
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts
    out = {layer + ".self_s": tracer.layer_self_s[layer] for layer in LAYERS}
    enum_calls = calls["all_reduced_words"]
    builds = calls["build_stages"]
    out.update({
        "span.parse_s": total["parse_span"],
        "span.realize_s": total["realize"],
        "words.enum_calls": enum_calls,
        "words.enum_repeat_ratio": _ratio(counts["enum_repeats"], enum_calls),
        "words.enum_useful_ratio": _ratio(counts["words_returned"], counts["words_generated"]),
        "words.concat_calls": calls["concat_fwd"] + calls["concat_bwd"],
        "words.concat_s": total["concat_fwd"] + total["concat_bwd"],
        "stages.build_s": total["build_stages"],
        "stages.bijection_s": total["stage_word_bijection"],
        "stages.build_calls": builds,
        "stages.rebuild_ratio": _ratio(builds, counts["distinct_build_spans"]),
        "stages.cells": counts["cells"],
        "stages.classes": counts["classes"],
        "stages.glue_edges": counts["glue_edges"],
        "seqcolim.limit_calls": calls["direct_limit"],
        "seqcolim.zigzag_roundtrips": counts["zigzag_roundtrips"],
        "idsys.family_s": total["build_family"],
        "idsys.fold_s": total["elim_section"],
        "oracle.walks": counts["walks"],
    })
    for suite in SUITES:
        out["checks.suite_s." + suite] = total[SUITE_FUNCTION.get(suite, suite + "_suite")]
    return out
