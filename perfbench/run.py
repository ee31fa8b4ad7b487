"""The spatialgraphs benchmark.

    python3 perfbench/run.py --workload structure|sampling|projections|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload run starts fresh
interpreters (perfbench/child.py) that call `spatialgraphs.cli.main` in
process with `--format json`, one closed-loop client, `--jobs 1`.  Passes
repeat until the next one would end after `--seconds`; at least one runs.
Times are medians over passes (see workloads.py for what a pass is).
Every call's exit code is checked, and its report (and the manifest that
`families --out` writes) is compared with the digest recorded for it in
perfbench/digests.json.  A failed call counts in `failed`; the run stays
`correct` only if every failed call is the known vacuous d4-lemma FAIL.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 a traced pass follows
the untraced ones and the metrics are the per-layer metrics.  The lines
before it print every metric the workload carries, with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
WORK = HERE / "_work"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# Gated in BENCHMARK.json: every workload has them and none is ever 0.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed for the workloads that have them.  Call latencies swing too much
# with the host to gate (see README.md); the rest exist on some workloads
# only.  The traced run lists them with the per-layer metrics, 0 where absent.
FIGURES = {"call_p50_s": "s", "trials_per_s": "1/s", "call_tail_s": "s"} | {
    f"claim.{c}_s": "s" for claims in workloads.TIMED_CLAIMS.values() for c in claims
}


def _unit(name: str) -> str:
    if name.endswith("calls") or name in (
        "exchange.states", "exchange.transitions", "diagrams.crossings", "minors.reductions"
    ):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


PER_LAYER = {name: _unit(name) for name in tracer.Tracer().metrics()}
PER_LAYER["trace.overhead_s"] = "s"
PER_LAYER |= FIGURES


def _child(job: dict) -> dict:
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest nearest-rank
    percentile with at least ten samples beyond it; the median when no
    percentile has that many."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == 50:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("PERCENTILES ends at the median")


def _trial_rate(calls: list[dict]) -> float | None:
    timed = [c for c in calls if c["trials"]]
    if not timed:
        return None
    return sum(c["trials"] for c in timed) / sum(c["seconds"] for c in timed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 digests: Path = DIGESTS, tiny: bool = False) -> dict:
    """Run one workload and return its figures, untraced and (if asked) traced."""
    WORK.mkdir(exist_ok=True)
    job = {"root": str(ROOT), "workload": workload, "seed": seed, "digests": str(digests),
           "work": str(WORK), "tiny": tiny}
    passes = []
    began = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(_child(dict(job, mode="run", index=len(passes))))
        took = time.monotonic() - start
        if time.monotonic() - began + took > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(dict(job, mode="setup", index=0))["setup_s"])
    traced = _child(dict(job, mode="trace", index=0)) if trace else None

    calls = [c for p in passes for c in p["calls"]]
    figures = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "call_p50_s": statistics.median(c["seconds"] for c in calls),
    }
    rates = [r for r in (_trial_rate(p["calls"]) for p in passes) if r is not None]
    if rates:
        figures["trials_per_s"] = statistics.median(rates)
    notes = {"passes": len(passes), "calls": len(calls), "setup_samples": len(setups),
             "speed": statistics.median(p["speed"] for p in passes),
             "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes)}
    if workload == "projections":
        figures["call_tail_s"], notes["call_tail_percentile"], notes["call_tail_beyond"] = (
            tail([c["seconds"] for c in calls]))
    for claim in workloads.TIMED_CLAIMS[workload]:
        figures[f"claim.{claim}_s"] = statistics.median(
            c["seconds"] for c in calls if c["claim"] == claim)
    failures = [c for c in calls + (traced["calls"] if traced else []) if c["status"] != "ok"]
    attempted = len(calls) + (len(traced["calls"]) if traced else 0)
    figures["fail_share"] = len(failures) / attempted
    out = {
        "workload": workload,
        "seed": seed,
        "figures": figures,
        "notes": notes,
        "attempted": attempted,
        "failures": [{k: c[k] for k in ("key", "status", "exit", "recorded")} for c in failures],
        # the known vacuous d4-lemma FAIL counts as failed but is the
        # program's known behaviour; any other failure is an error
        "correct": all(c["status"] == "defect" for c in failures),
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        for name in FIGURES:
            layers[name] = figures.get(name, 0.0)
        out["layers"] = layers
    return out


def _print_report(result: dict) -> None:
    fig, notes = result["figures"], result["notes"]
    print(f"== {result['workload']} seed {result['seed']}: {notes['passes']} pass(es), "
          f"{notes['calls']} calls, {result['attempted']} attempted, "
          f"{len(result['failures'])} failed; host at {notes['speed']:.3f} of reference "
          f"speed, unscaled wall_s {notes['raw_wall_s']:.3f} s")
    units = END_TO_END | FIGURES | {"fail_share": "ratio"}
    for name, value in fig.items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {notes['setup_samples']} interpreters)"
        elif name == "call_tail_s":
            extra = (f"  (p{notes['call_tail_percentile']:g}, "
                     f"{notes['call_tail_beyond']} of {notes['calls']} calls beyond it)")
        print(f"  {name:<28} {value:>14.6f} {units[name]}{extra}")
    for f in result["failures"]:
        print(f"  failed: {f['key']} ({f['status']}, exit {f['exit']}, "
              f"{'recorded' if f['recorded'] else 'not recorded'})")
    for name, value in result.get("layers", {}).items():
        print(f"  {name:<36} {value:>14.6f} {PER_LAYER[name]}")


def _metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {n: {"value": result["layers"][n], "unit": u} for n, u in PER_LAYER.items()}
    return {n: {"value": result["figures"][n], "unit": u} for n, u in END_TO_END.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spatialgraphs" / "cli.py").is_file():
        print(f"error: {ROOT} holds no spatialgraphs sources (src/spatialgraphs)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.SubprocessError, OSError, ValueError) as err:
            print(f"error: {name} pass failed: {err}", file=sys.stderr)
            return 1
        _print_report(result)
        results.append(result)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": (_metrics(results[0], bool(args.trace)) if len(results) == 1 else {
            f"{r['workload']}/{n}": m for r in results
            for n, m in _metrics(r, bool(args.trace)).items()
        }),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
