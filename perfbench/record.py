"""Record the expected outcome of every scenario for the default seeds.

    python3 perfbench/record.py

Runs one checked pass per workload and default seed and stores each
scenario's exit code and output digest in expected.json, with a
fingerprint of the generated scenarios.  Run it only on a commit whose
outputs are known good (they were recorded at the seed commit) and only
after changing a generator; a call that fails its invariants aborts the
recording.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

DEFAULT_SEEDS = range(32)


def main() -> int:
    recorded = {}
    for name in sorted(workloads.WORKLOADS):
        recorded[name] = {}
        for seed in DEFAULT_SEEDS:
            scenarios = workloads.generate(name, seed)
            work = run.OUT / "work" / f"record-{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                spec = run.write_inputs(scenarios, work)
                result = run.run_child(spec, work / "pass.json", trace=False,
                                       check=True, timeout=600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            failures = run.judge([result], None)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            recorded[name][str(seed)] = {
                "fingerprint": run.fingerprint(scenarios),
                "outcomes": [f"{c['rc']}:{c['digest']}"
                             for c in result["calls"]]}
            print(f"{name} seed {seed}: {len(scenarios)} scenarios, "
                  f"{result['wall_s']:.2f} s", flush=True)
    run.EXPECTED.write_text(json.dumps(recorded, indent=0, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
