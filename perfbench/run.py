"""cubedsim benchmark: host time per scenario on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenarios from the seed, writes them as config
files, and runs passes over the scenario list through `cubedsim.cli.main`,
one fresh child process per pass and one pass at a time, until S seconds
have gone.  Every output is checked: against the digests recorded at the
seed commit for the default seeds, against the output invariants for
any other seed, and against the first pass for later passes.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics (wall_s, setup_s, peak_rss_mib); the per-call
percentiles scenario_p50_s and scenario_p90_s are printed above it.
Their times are scaled to a nominal machine speed with the kernel in
reference.py, run next to the timed work.
With --trace 1 traced and untraced passes alternate, and it holds the
per-layer metrics instead; the spans go to out/traces/ as Chrome Trace
Event JSON.  Full results go to out/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
import workloads
from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 7
MIN_PASSES = {False: 3, True: 4}    # a traced run: 2 untraced, 2 traced
BUDGET_S = 160.0        # the whole run must end well inside 180 s
SETUP_CODE = f"""\
import sys, time
start = time.perf_counter()
import cubedsim.cli
seconds = time.perf_counter() - start
sys.path.append({str(HERE)!r})
from reference import reference_kernel
print(seconds, reference_kernel())
print(cubedsim.cli.__file__)
"""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_inputs(scenarios, work: Path) -> Path:
    """Config files for the scenarios and the spec a pass reads."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for scenario in scenarios:
        if scenario["config"] is not None:
            (work / "configs" / f"{scenario['id']}.json").write_text(
                json.dumps(scenario["config"], indent=2) + "\n")
    spec = work / "spec.json"
    spec.write_text(json.dumps({"root": str(ROOT), "work": str(work),
                                "scenarios": scenarios}))
    return spec


def measure_setup() -> List[float]:
    """Seconds for a fresh interpreter to import cubedsim.cli, scaled by
    the reference kernel run right after it, after one unmeasured import
    that leaves the bytecode cache warm."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times, where = done.stdout.split("\n")[:2]
        if ROOT / "src" not in Path(where).resolve().parents:
            raise RuntimeError(f"cubedsim imported from {where}")
        seconds, kernel = map(float, times.split())
        if k:
            samples.append(seconds * REFERENCE_S / kernel)
    return samples


def run_child(spec_path: Path, result_path: Path, trace: bool, check: bool,
              timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--spec", str(spec_path),
            "--result", str(result_path)]
    argv += ["--trace"] * trace + ["--check"] * check
    done = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"pass exited {done.returncode}:\n{done.stderr}")
    return json.loads(result_path.read_text())


def fingerprint(scenarios) -> str:
    text = json.dumps(scenarios, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_outcomes(workload: str, seed: int, scenarios) -> Optional[dict]:
    """The recorded outcome per scenario id, or None for a held-out seed."""
    if not EXPECTED.is_file():
        return None
    entry = json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["fingerprint"] != fingerprint(scenarios):
        raise RuntimeError(f"{workload} seed {seed}: the generator no longer "
                           "makes the scenarios recorded in expected.json")
    return dict(zip((s["id"] for s in scenarios), entry["outcomes"]))


def judge(passes: List[dict], expected: Optional[dict]) -> List[str]:
    """One line per failed call.  The first pass is compared with the
    recorded outcomes and later passes with the first."""
    failures = []
    first = {c["id"]: f"{c['rc']}:{c['digest']}" for c in passes[0]["calls"]}
    for number, result in enumerate(passes, start=1):
        reference = expected if number == 1 else first
        for call in result["calls"]:
            got = f"{call['rc']}:{call['digest']}"
            problems = list(call["problems"])
            if reference is not None and reference.get(call["id"]) != got:
                problems.append(f"outcome {got}, expected "
                                f"{reference.get(call['id'])}")
            if problems:
                failures.append(f"pass {number} {call['id']}: "
                                + "; ".join(problems))
    return failures


def commit() -> str:
    head = "unknown"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return f"{head} (src sha256 {digest.hexdigest()[:12]})"


def speed(result: dict) -> float:
    """How much faster than nominal the machine ran during one pass."""
    return REFERENCE_S / statistics.fmean(result["reference_s"])


def p90(samples: List[float]) -> Optional[float]:
    """The 90th percentile where at least ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    value = statistics.quantiles(samples, n=10)[8]
    return value if sum(s > value for s in samples) >= 10 else None


def run_passes(spec_path: Path, work: Path, trace: bool, seconds: float,
               deadline: float) -> List[dict]:
    """Passes until `seconds` have gone and the minimum count is met; a
    traced run alternates untraced and traced passes."""
    passes: List[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        result = run_child(spec_path, work / f"pass{len(passes)}.json",
                           traced, check=not passes,
                           timeout=deadline - began)
        result["traced"] = traced
        passes.append(result)
        took = time.monotonic() - began
        enough = len(passes) >= MIN_PASSES[trace]
        if (enough and time.monotonic() - start >= seconds) or \
                time.monotonic() + took > deadline:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "cubedsim" / "cli.py").is_file():
        print(f"error: no cubedsim source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    scenarios = workloads.generate(args.workload, args.seed)
    try:
        expected = expected_outcomes(args.workload, args.seed, scenarios)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec_path = write_inputs(scenarios, work)
        setup = [] if args.trace else measure_setup()
        passes = run_passes(spec_path, work, bool(args.trace), args.seconds,
                            deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = judge(passes, expected)
    attempted = sum(len(p["calls"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] * speed(p) for p in plain]
    calls = [c["seconds"] * speed(p) for p in plain for c in p["calls"]]
    env = {"workload": args.workload, "seed": args.seed,
           "default_seed": expected is not None,
           "python": sys.version.split()[0], "cpus": os.cpu_count(),
           "commit": commit(), "passes": len(passes),
           "scenarios": len(scenarios)}
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'recorded digests' if expected else 'invariants only'}): "
          f"{len(passes)} passes of {len(scenarios)} scenarios, "
          f"python {env['python']}, {env['cpus']} cpus, {env['commit']}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_ratio = {len(failures)}/{attempted}")
    kernel = statistics.median(r for p in passes for r in p["reference_s"])
    unscaled = statistics.median(p["wall_s"] for p in plain)
    print(f"unscaled pass wall median {unscaled:.4f} s; reference kernel "
          f"median {kernel:.5f} s (nominal {REFERENCE_S} s)")

    report: Dict[str, Dict[str, object]] = {}
    p50 = statistics.median(calls)
    tail = None if args.trace else p90(calls)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = spans.combine([p["layers"] for p in traced],
                               [p["wall_s"] * speed(p) for p in traced], walls)
        # an absent counter does not repeat: it was not counted at all
        repeat = all(p["layers"][k] is not None
                     and p["layers"][k] == traced[0]["layers"][k]
                     for p in traced for k in spans.COUNTS)
        absent = sorted({a for p in traced for a in p["absent"]})
        print(f"counts repeat across traced passes: {repeat}; "
              f"absent hooks: {', '.join(absent) or 'none'}")
        for name, unit, _needs in spans.PER_LAYER:
            report[name] = {"value": values[name], "unit": unit}
        trace_path = OUT / "traces" / f"{args.workload}-s{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(spans.chrome_trace(
            [p["spans"] for p in traced], env)))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        report = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": max(p["peak_rss_mib"] for p in plain),
                             "unit": "MiB"},
        }
        print(f"scenario_p50_s = {p50:.6f} s; scenario_p90_s = "
              + (f"{tail:.6f} s" if tail is not None else "n/a")
              + f"; over {len(calls)} calls")
    for name, metric in report.items():
        value = metric["value"]
        print(f"{name} = " + ("absent" if value is None else
                              f"{value:.6g} {metric['unit']}"))

    results = OUT / "results" / \
        f"{args.workload}-s{args.seed}-t{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "env": env, "metrics": report, "failures": failures,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_speeds": [speed(p) for p in passes],
        "setup_samples_s": setup,
        "scenario_p50_s": p50, "scenario_p90_s": tail,
        "calls": [{k: c[k] for k in ("id", "seconds", "rc")}
                  for p in passes for c in p["calls"]],
    }, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
