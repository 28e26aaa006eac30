"""Record the stdout digests of every fixed-input CLI call into digests.json.

Run once from the root of a checkout of the commit whose output is the
reference (87397b7, where the benchmark was written); later runs compare against it:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import os
import sys

import run
import inputs
from workloads import SIZES, WORKLOADS, sha256, write_inputs


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    digests = {}
    for size in SIZES.values():
        for name in ("stages-deep", "check-corpus"):
            workload = WORKLOADS[name](0, size, {}, run.OUT_DIR)
            write_inputs(workload, run.OUT_DIR)
            texts = {key: inputs.span_text(span) for key, span in workload.spans.items()}
            _, api, _, _ = run.set_up(texts)
            for call in workload.calls:
                if call.random_span:
                    continue  # seed-dependent input: checked against its own first pass
                code, out = call.run(api)
                if code != 0:
                    raise SystemExit("%s exited %d" % (call.label, code))
                digests[call.label] = sha256(out)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("%d digests written to %s" % (len(digests), path))


if __name__ == "__main__":
    main()
