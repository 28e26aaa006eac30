"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Refactor-proof trace: names removed from the program (``transport_glue``,
   ``PushoutPi0``) are reported absent with zero calls, and a traced pass
   still runs and verifies.
2. Smoke run: every workload at the tiny size, untraced and traced, prints
   exactly the metric names and units BENCHMARK.json declares, verified.
3. Without the program (only BENCHMARK.json and perfbench/), the benchmark
   exits non-zero and prints no result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import layertrace
import run
from workloads import SIZES, WORKLOADS, write_inputs

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def absent_names():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    workload = WORKLOADS["stages-deep"](0, SIZES["tiny"], json.loads((run.HERE / "digests.json").read_text()), run.OUT_DIR)
    write_inputs(workload, run.OUT_DIR)
    texts = {name: run.inputs.span_text(span) for name, span in workload.spans.items()}
    _, api, package, modules = run.set_up(texts)
    # a later change that deletes these names, seen through copies of the
    # modules, so the program's own references keep working
    for layer, name in (("words", "transport_glue"), ("stages", "PushoutPi0")):
        copy = types.ModuleType(modules[layer].__name__)
        vars(copy).update((k, v) for k, v in vars(modules[layer]).items() if k != name)
        modules[layer] = copy
    tracer = layertrace.Tracer()
    tracer.install(package, modules)
    expect("words.transport_glue" in tracer.absent, "removed function reported absent")
    expect("stages.PushoutPi0" in tracer.absent, "removed class reported absent")
    tracer.active = True
    rows = run.run_pass(workload.calls, api, [])
    tracer.active = False
    for _, _, problems, _ in rows:
        for problem in problems:
            print("     " + problem)
    expect(all(not problems for _, _, problems, _ in rows), "traced pass verified with names absent")
    metrics = layertrace.layer_metrics(tracer)
    expect(tracer.calls["transport_glue"] == 0, "absent name counts zero calls")
    expect(metrics["stages.build_calls"] == 2, "present names still counted")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def smoke():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in (w["name"] for w in spec["workloads"]):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace_flag), "--tiny"]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            result = last_json(proc.stdout)
            tag = "%s --trace %d" % (name, trace_flag)
            expect(proc.returncode == 0 and result is not None, tag + ": exits 0 with a result line")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, tag + ": result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, tag + ": verified")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, tag + ": metric names and units match BENCHMARK.json")
            if trace_flag == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()), tag + ": no end-to-end metric is 0")


def without_program():
    bare = run.ROOT / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "stages-deep", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None, "no program: non-zero exit, no result line")
    shutil.rmtree(bare)


if __name__ == "__main__":
    absent_names()
    smoke()
    without_program()
    print("selftest: %s" % ("%d failed" % len(FAILURES) if FAILURES else "all passed"))
    sys.exit(1 if FAILURES else 0)
