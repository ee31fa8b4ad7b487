"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload at its tiny size with tracing, and checks that:
- every metric the workload carries is printed, with every per-layer metric;
- the counts that must repeat exactly do so across two traced runs of the
  sampling and projections workloads;
- a tampered digest makes the call count as failed and the run incorrect;
- the known vacuous d4-lemma FAIL counts as failed and leaves the run correct;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero and prints no result.
Takes about two minutes, most of it the structure workload, whose claims
have no size knob.  Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads

EXACT = ("canon.calls", "exchange.states", "exchange.transitions", "diagrams.crossings",
         "invariants.trial_calls", "multigraph.endpoints_calls")
TAMPERED_CALL = "verify invariant-oracle --seed 0 --jobs 1 --format json"
DEFECT_SEED = 19  # verify d4-lemma fails vacuously here (README.md, known defect)


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}", flush=True)


def printed(result: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run._print_report(result)
    return buf.getvalue()


def main() -> None:
    for name in workloads.WORKLOADS:
        result = run.run_workload(name, 0, 1, trace=True, tiny=True)
        text = printed(result)
        expected = list(run.END_TO_END) + ["fail_share"] + list(run.PER_LAYER)
        expected += [f"claim.{c}_s" for c in workloads.TIMED_CLAIMS[name]]
        if name != "structure":
            expected.append("trials_per_s")
        if name == "projections":
            expected.append("call_tail_s")
        missing = [m for m in expected if f" {m} " not in text]
        check(not missing, f"{name} prints every metric (missing: {missing})")
        check(result["correct"] and not result["failures"], f"{name} passes its checks")

    for name in ("sampling", "projections"):
        first, second = (run.run_workload(name, 0, 1, trace=True, tiny=True)["layers"]
                         for _ in range(2))
        check(all(first[m] == second[m] for m in EXACT),
              f"{name} exact counts repeat: {[(m, first[m], second[m]) for m in EXACT]}")

    table = json.loads(run.DIGESTS.read_text())
    check(TAMPERED_CALL in table, "the tampered call has a recorded digest")
    table[TAMPERED_CALL] = dict(table[TAMPERED_CALL], report="0" * 64)
    run.WORK.mkdir(exist_ok=True)
    tampered = run.WORK / "tampered-digests.json"
    tampered.write_text(json.dumps(table))
    result = run.run_workload("projections", 0, 1, trace=False, digests=tampered, tiny=True)
    check(result["figures"]["fail_share"] > 0 and not result["correct"],
          f"a tampered digest fails its call (fail_share {result['figures']['fail_share']:.3f})")

    result = run.run_workload("projections", DEFECT_SEED, 1, trace=False, tiny=True)
    check(result["correct"] and [f["status"] for f in result["failures"]] == ["defect"],
          f"the vacuous d4-lemma FAIL at seed {DEFECT_SEED} counts as failed, run stays correct")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampling",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without sources run.py exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    main()
