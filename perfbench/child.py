"""One pass over a workload's scenario list, in a fresh interpreter.

    python3 perfbench/child.py --spec SPEC --result RESULT [--trace] [--check]

Imports cubedsim from the checkout's own src/, calls `cubedsim.cli.main`
once per scenario (closed loop, one caller), times each call, digests
what it wrote and, with --check, checks the output invariants.  With
--trace the calls run under `spans.Tracer`.  The result is written as
JSON to RESULT.  Each pass gets its own process, as each CLI call does,
so nothing the package caches in memory carries over between passes.

Between calls, and outside their timing, the pass runs a fixed reference
kernel every REFERENCE_EVERY_S seconds of call time.  Its host time
tracks how fast the machine runs Python at that moment, which on a
shared host drifts by tens of percent over tens of seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
from reference import reference_kernel


REFERENCE_EVERY_S = 0.25


def _peak_rss_mib() -> float:
    # ru_maxrss is the peak resident set size in KiB on Linux (it is in
    # bytes on macOS, where this figure would read 1024 times too high)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_cli(root: Path):
    """cubedsim.cli from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cubedsim.cli
    where = Path(cubedsim.cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"cubedsim imported from {where}, not {src}")
    return cubedsim.cli


def call(cli, argv):
    """Run one CLI call; returns (seconds, exit code, output, traceback)."""
    sink = io.StringIO()
    tb = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            tb = traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, rc, sink.getvalue(), tb


def run_pass(cli, scenarios, work: Path, trace: bool, check: bool) -> dict:
    tracer = spans.Tracer() if trace else None
    results = []
    reference = [reference_kernel()]
    since = 0.0
    with tracer if tracer else contextlib.nullcontext():
        for scenario in scenarios:
            sid = scenario["id"]
            # the first pass starts from an empty work directory; later
            # passes overwrite its files and must reproduce its digests
            out = work / "out" / sid
            argv = [a.replace("{work}", str(work)) for a in scenario["argv"]]
            if tracer:
                tracer.scenario = sid
                index = tracer.begin("cli.main")
            seconds, rc, output, tb = call(cli, argv)
            if tracer:
                tracer.end(index, tb and "exception")
            entry = {"id": sid, "seconds": seconds, "rc": rc,
                     "digest": checks.output_digest(out), "problems": []}
            if tb:
                entry["problems"].append(tb.strip().splitlines()[-1])
            if check:
                entry["problems"] += checks.invariants(
                    scenario, rc, out, work, output + (tb or ""))
            results.append(entry)
            since += seconds
            if since >= REFERENCE_EVERY_S:
                reference.append(reference_kernel())
                since = 0.0
    reference.append(reference_kernel())
    wall = sum(r["seconds"] for r in results)
    result = {"calls": results, "wall_s": wall, "reference_s": reference,
              "peak_rss_mib": _peak_rss_mib()}
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts,
                                               wall, tracer.absent)
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    cli = import_cli(Path(spec["root"]))
    result = run_pass(cli, spec["scenarios"], Path(spec["work"]),
                      args.trace, args.check)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
