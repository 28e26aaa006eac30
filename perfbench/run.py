"""spanpaths benchmark: one workload, verified, as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stages-deep --seed 0 --seconds 35 --trace 0

It imports ``spanpaths`` from ``src/`` of that checkout (never an installed
copy), generates the workload's inputs from ``--seed`` under ``.bench_out/``,
and repeats the workload's pass for about ``--seconds`` seconds. Every call's
output is verified against the benchmark's own reference counts. The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it report the same run under the names the
workload's rationale uses (see perfbench/README.md). Exit code 2, with no
result line, when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layertrace  # noqa: E402
from workloads import SIZES, WORKLOADS, write_inputs  # noqa: E402

MODULES = ("span", "words", "stages", "seqcolim", "idsys", "oracle", "checks", "cli")
OUT_DIR = ".bench_out"
SETUPS_PER_PASS = 3
TRACEMALLOC_PASSES = 5.5

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB"}
COUNTS_EXACT = (
    "words.enum_calls", "words.enum_repeat_ratio", "words.enum_useful_ratio", "words.concat_calls",
    "stages.build_calls", "stages.rebuild_ratio", "stages.cells", "stages.classes",
    "stages.glue_edges", "seqcolim.limit_calls", "seqcolim.zigzag_roundtrips", "oracle.walks",
    "cli.output_bytes",
)
UNITS = {"words.enum_repeat_ratio": "ratio", "words.enum_useful_ratio": "ratio",
         "stages.rebuild_ratio": "ratio", "cli.output_bytes": "bytes",
         "trace.overhead_ratio": "ratio", "trace.peak_mib": "MiB", "trace.absent_names": "count"}


def per_layer_unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".loc"):
        return "lines"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def import_program():
    """A fresh import of spanpaths and its eight modules from this checkout."""
    for name in list(sys.modules):
        if name == "spanpaths" or name.startswith("spanpaths."):
            del sys.modules[name]
    package = importlib.import_module("spanpaths")
    return package, {m: importlib.import_module("spanpaths." + m) for m in MODULES}


def set_up(texts):
    """Import the program, then parse and realize every input: the timed set-up."""
    start = time.perf_counter()
    package, modules = import_program()
    span = modules["span"]
    spans = {name: span.parse_span(text) for name, text in texts.items()}
    for value in spans.values():
        span.realize(value)
    elapsed = time.perf_counter() - start
    api = SimpleNamespace(cli=modules["cli"], idsys=modules["idsys"], checks=modules["checks"], spans=spans)
    return elapsed, api, package, modules


def run_pass(calls, api, log):
    """Run every call once, timing each; verify outside the timed region.

    A row keeps (call, seconds, problems, stdout bytes), not the output, so
    the harness holds no output past its pass and ``peak_rss_mib`` is the
    program's.
    """
    gc.collect()
    rows = []
    for call in calls:
        start = time.perf_counter()
        try:
            result = call.run(api)
        except Exception as exc:  # a crash is a failed call, reported below
            result = exc
        seconds = time.perf_counter() - start
        if isinstance(result, Exception):
            problems = ["%s raised %r" % (call.label, result)]
        else:
            try:
                problems = call.verify(result)
            except Exception as exc:  # malformed output
                problems = ["%s: verification raised %r" % (call.label, exc)]
        for problem in problems[:3]:
            log.append("FAIL %s: %s" % (call.label, problem))
        output_bytes = len(result[1].encode("utf-8")) if isinstance(result, tuple) else 0
        rows.append((call, seconds, problems, output_bytes))
        del result
    return rows


def repeat_passes(calls, seconds, log, before, after=None):
    """Passes until about ``seconds`` have gone: a pass starts only if it should end in time.

    ``before()`` returns the api the next pass calls; ``after(rows)`` sees its results.
    """
    passes = []
    start = time.perf_counter()
    walls = []
    while True:
        api = before()
        t0 = time.perf_counter()
        rows = run_pass(calls, api, log)
        walls.append(time.perf_counter() - t0)
        if after:
            after(rows)
        passes.append(rows)
        if time.perf_counter() - start + statistics.median(walls) / 2 > seconds:
            return passes


def pass_seconds(rows):
    return sum(seconds for _, seconds, _, _ in rows)


def tally(passes):
    attempted = sum(len(rows) for rows in passes)
    failed = sum(1 for rows in passes for _, _, problems, _ in rows if problems)
    return attempted, failed


def untraced(workload, texts, seconds, log):
    setups = []

    def before():
        # set-ups are spread over the run so that one burst of contention
        # cannot move all of them; each pass calls the newest import
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            elapsed, api, _, _ = set_up(texts)
            setups.append(elapsed)
        return api

    calls = workload.calls
    passes = repeat_passes(calls, seconds, log, before)
    work = sum(call.work for call in calls)
    # each call's fastest pass: contention from other processes only ever
    # slows a pass, and on a shared host it comes and goes within a run
    fastest = [min(rows[i][1] for rows in passes) for i in range(len(calls))]
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": work / sum(fastest),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = tally(passes)
    lines = [
        "setup_s %.6f s (median of %d set-ups spread over the run)" % (metrics["setup_s"], len(setups)),
        "%s %.4f 1/s (work_per_s; %d passes, %d units per pass over its calls' fastest times)"
        % (workload.unit, metrics["work_per_s"], len(passes), work),
        "peak_rss_mib %.2f MiB" % metrics["peak_rss_mib"],
        "fail_ratio %.6f (%d failed of %d verified calls)" % (failed / attempted, failed, attempted),
    ]
    latencies = [s for rows in passes for call, s, _, _ in rows if call.random_span]
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        for name, value in (("p50", statistics.median(latencies)), ("p90", p90)):
            lines.append("span_check_s.%s %.6f s (n=%d random-span checks)" % (name, value, len(latencies)))
    return metrics, attempted, failed, lines


def traced(workload, texts, seconds, log, dump_path):
    _, api, package, modules = set_up(texts)
    calls = workload.calls
    start = time.perf_counter()
    all_passes = [run_pass(calls, api, log)]
    baseline = pass_seconds(all_passes[0])

    tracer = layertrace.Tracer()
    tracer.install(package, modules)
    tracer.active = True
    for text in texts.values():
        modules["span"].realize(modules["span"].parse_span(text))
    tracer.active = False
    setup_span = {"span.self_s": tracer.layer_self_s["span"], "span.parse_s": tracer.total_s["parse_span"],
                  "span.realize_s": tracer.total_s["realize"]}

    windows = []
    first_spans = []

    def before():
        tracer.reset()
        tracer.active = True
        return api

    def after(rows):
        tracer.active = False
        m = layertrace.layer_metrics(tracer)
        for name, value in setup_span.items():
            m[name] += value
        m["cli.output_bytes"] = sum(output_bytes for _, _, _, output_bytes in rows)
        m["trace.overhead_ratio"] = pass_seconds(rows) / baseline
        windows.append(m)
        if not first_spans:
            first_spans.extend(tracer.spans)

    # leave room for the tracemalloc pass: 3 to 6 untraced passes long
    remaining = seconds - (time.perf_counter() - start) - TRACEMALLOC_PASSES * baseline
    all_passes += repeat_passes(calls, max(remaining, 0), log, before, after)

    tracemalloc.start()
    memory_start = time.perf_counter()
    all_passes.append(run_pass(calls, api, log))
    memory_pass = time.perf_counter() - memory_start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    metrics = {}
    for name in windows[0]:
        values = [w[name] for w in windows]
        metrics[name] = values[0] if name in COUNTS_EXACT else statistics.median(values)
    metrics["trace.peak_mib"] = peak / 2 ** 20
    metrics["trace.absent_names"] = len(tracer.absent)
    for module in MODULES:
        path = ROOT / "src" / "spanpaths" / (module + ".py")
        metrics[module + ".loc"] = len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0

    # the trace's own checks, one verification each: counts repeat in every
    # pass, and on stages-deep the traced cells are the reference cell count
    checks = [("count %s repeats in every pass" % name, all(w[name] == metrics[name] for w in windows))
              for name in COUNTS_EXACT]
    if workload.name == "stages-deep":
        reference = sum(call.work for call in calls)
        checks.append(("stages.cells %d equals the reference %d" % (metrics["stages.cells"], reference),
                       metrics["stages.cells"] == reference))
    attempted, failed = tally(all_passes)
    attempted += len(checks)
    for what, ok in checks:
        if not ok:
            failed += 1
            log.append("FAIL trace: " + what)
    tracer.spans = first_spans
    tracer.dump(dump_path, {"workload": workload.name, "metrics": metrics})
    lines = ["absent: %s" % name for name in tracer.absent]
    lines.append("trace: untraced pass %.2f s, %d traced passes, tracemalloc pass %.2f s; spans of the first in %s"
                 % (baseline, len(windows), memory_pass, dump_path))
    return metrics, attempted, failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (perfbench/selftest.py)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in ["src/spanpaths/__init__.py"] + ["spans/%s.span" % n for n in ("theta", "circle")]
               if not (ROOT / p).is_file()]
    if missing:
        print("error: no spanpaths checkout here (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    size = SIZES["tiny" if args.tiny else "full"]
    workload = WORKLOADS[args.workload](args.seed, size, digests, OUT_DIR)
    write_inputs(workload, OUT_DIR)
    texts = {name: inputs.span_text(span) for name, span in workload.spans.items()}

    log = []
    if args.trace:
        dump_path = "%s/trace-%s-seed%d.json" % (OUT_DIR, args.workload, args.seed)
        metrics, attempted, failed, lines = traced(workload, texts, args.seconds, log, dump_path)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, attempted, failed, lines = untraced(workload, texts, args.seconds, log)
        units = END_TO_END
    source = Path(sys.modules["spanpaths"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        print("error: imported spanpaths from %s, not from this checkout" % source, file=sys.stderr)
        return 2
    for line in log:
        print(line, file=sys.stderr)
    print("workload %s seed %d: %s" % (args.workload, args.seed, "verified" if not failed else "FAILED"))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
