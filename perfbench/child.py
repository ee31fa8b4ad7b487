"""One pass of a workload in a fresh interpreter.

Run by run.py as `python3 perfbench/child.py '<json job>'`; prints one JSON
object on stdout.  A fresh interpreter per pass keeps the catalog's
lru_cache'd families and the per-graph certificate caches cold, as they are
for a user starting the CLI.

Job fields: root (checkout), workload, seed, index (of the pass in its
run), mode ("run", "trace" or "setup"), spawned (time.monotonic() just
before this process was started; the clock is system-wide), digests (path
of the digest table), work (scratch directory inside the checkout), tiny
(bool).
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback


# The host's CPU speed swings by a fifth within seconds, which no run length
# the benchmark can afford averages out.  A probe therefore times a fixed
# integer loop every PROBE_EVERY_S while the pass runs, in this process and
# on this core, and each time is rescaled to the speed at which the probe
# takes REF_PROBE_S (its median on the machine the benchmark was defined
# on).  A slower program raises the call time and leaves the probe alone; a
# slower host raises both.  The loop allocates nothing the garbage collector
# tracks, so the program's heap does not change the probe's time.
PROBE_EVERY_S = 0.1
PROBE_LOOPS = 10_000
REF_PROBE_S = 0.0009
SETUP_PROBES = 5


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REF_PROBE_S over the mean probe time in [start, end], or over the
        whole pass when fewer than three probes fell inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < 3:
            inside = [d for _, d in self.samples]
        return REF_PROBE_S / statistics.fmean(inside)


def report_digest(report: dict) -> str:
    """sha256 of a JSON report with its wall-clock field removed."""
    report = {k: v for k, v in report.items() if k != "elapsed_s"}
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check(argv, key, exit_code, text, out_dir, digests, workloads):
    """(status, trials, got) for one finished call.

    got holds the call's exit code and the digests of its outputs.  status
    is one of:
    - "ok": exit 0;
    - "defect": the known vacuous d4-lemma FAIL (workloads.known_defect),
      a failed call that is still the program's known behaviour;
    - "exit": any other non-zero exit;
    - "mismatch": got differs from the digests recorded for this call, or
      the report is not JSON, its PASS/FAIL disagrees with the exit code,
      or it lacks the fields its trial count is read from.
    A call without recorded digests is checked by its exit code and report
    fields only.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return "mismatch", 0, {"exit": exit_code, "report": None}
    got = {"exit": exit_code, "report": report_digest(report)}
    if argv[0] == "families":
        got["manifest"] = file_digest(os.path.join(out_dir, "manifest.json"))
    recorded = digests.get(key)
    if recorded is not None and got != recorded:
        return "mismatch", 0, got
    if "result" in report and (report["result"] == "PASS") != (exit_code == 0):
        return "mismatch", 0, got
    try:
        trials = workloads.trials_of(argv, report)
        defect = workloads.known_defect(argv, exit_code, report)
    except (KeyError, TypeError):
        return "mismatch", 0, got
    if exit_code == 0:
        return "ok", trials, got
    return ("defect" if defect else "exit"), trials, got


def main(job: dict) -> dict:
    root = job["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads
    from spatialgraphs import cli

    with open(job["digests"]) as fh:
        digests = json.load(fh)
    argvs = workloads.calls(job["workload"], job["seed"], job["index"], job["tiny"])
    out_dir = tempfile.mkdtemp(prefix="families-", dir=job["work"])
    tracer = None
    if job["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - job["spawned"]
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    setup_s *= probe.speed()
    if job["mode"] == "setup":
        shutil.rmtree(out_dir)
        return {"setup_s": setup_s}

    done = []
    probe.start()
    try:
        for argv in argvs:
            real = [out_dir if a == workloads.OUT else a for a in argv]
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    exit_code = cli.main(real)
            except Exception:
                traceback.print_exc()
                exit_code = None
            done.append((argv, exit_code, buf.getvalue(), start, time.perf_counter()))
    finally:
        probe.stop()
    try:
        calls = []
        for argv, exit_code, text, start, end in done:
            key = workloads.call_key(argv)
            if exit_code is None:
                status, trials, got = "exception", 0, None
            else:
                status, trials, got = _check(
                    argv, key, exit_code, text, out_dir, digests, workloads
                )
            calls.append({"key": key, "claim": workloads.claim_of(argv),
                          "seconds": (end - start) * probe.speed(start, end),
                          "exit": exit_code, "status": status,
                          "recorded": key in digests, "trials": trials, "got": got})
    finally:
        shutil.rmtree(out_dir)

    result = {
        "setup_s": setup_s,
        "raw_wall_s": done[-1][4] - done[0][3],
        "speed": probe.speed(),
        # first call to last verdict; the gaps between calls are microseconds
        "wall_s": sum(c["seconds"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }
    if tracer is not None:
        tracer.write_spans(os.path.join(
            job["work"], f"spans-{job['workload']}-{job['seed']}.jsonl"))
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
