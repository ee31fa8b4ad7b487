"""Record the expected outputs of the benchmark's calls in digests.json.

    python3 perfbench/record_digests.py --workload sampling --seeds 0-31

Runs one pass per seed in a fresh interpreter and stores, for every call,
its exit code and the digests of its report (and of the manifest that
`families --out` writes).  A projections pass at seed s makes the calls of
sweep seed s and the enumerate call of a run starting at s, so the range
covers both.
Entries already in the table must agree with the new run; a disagreement
is an error, because the outputs are meant to be deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seeds", required=True, help="inclusive range, as 0-31")
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    table = json.loads(run.DIGESTS.read_text())
    run.WORK.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        job = {"root": str(run.ROOT), "workload": args.workload, "seed": seed,
               "digests": str(run.DIGESTS), "work": str(run.WORK), "mode": "run",
               "index": 0, "tiny": False}
        for call in run._child(job)["calls"]:
            if call["got"] is None:
                print(f"error: {call['key']} raised", file=sys.stderr)
                return 1
            if table.setdefault(call["key"], call["got"]) != call["got"]:
                print(f"error: {call['key']} differs from its recorded digests",
                      file=sys.stderr)
                return 1
        run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: {len(table)} entries", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
