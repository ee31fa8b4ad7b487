"""The benchmark's workloads: which CLI calls one pass makes, in which order.

A pass is the unit of work one fresh interpreter performs.  Every pass of a
structure or sampling run makes the same calls, so passes are replicas.  A
projections run sweeps consecutive seeds, one per pass, so that its medians
are taken over many projections.  The traced pass makes exactly the calls
of the first untraced pass.
"""

from __future__ import annotations

WORKLOADS = ("structure", "sampling", "projections")

# Acceptance-suite order.  The order is part of the workload: after
# heawood-family has paid for the K7 family, the later claims reuse it from
# the catalog's lru_cache.
STRUCTURE_CLAIMS = (
    "petersen-family",
    "heawood-family",
    "k3311-counts",
    "theorem1-equivalence",
    "prop24-phi",
    "minor-scripts",
    "apex-proper-minors",
    "c14-identification",
)
SAMPLING_CLAIMS = ("conway-gordon", "petersen-lk", "n9fn-dichotomy")
SPATIAL_CHECKS = (("K7", "cg-k7"), ("K6", "cg-k6"), ("N9", "n9fn"), ("N'10", "n9fn"))

# Claims whose own time is reported; the others finish in under about 0.5 s
# and are timed only inside wall_s.
TIMED_CLAIMS = {
    "structure": ("heawood-family", "k3311-counts", "prop24-phi", "apex-proper-minors"),
    "sampling": SAMPLING_CLAIMS,
    "projections": ("d4-lemma",),
}

# Placeholder for the per-pass output directory of `families --out`.
OUT = "{out}"

# `spatial --check d4-lemma --enumerate` walks every over/under assignment of
# catalog.d4_reference_diagram(), which has 9 crossings.  Its report lists
# only the assignments with both linking numbers odd, so the count is fixed
# here.
D4_ENUMERATED = 1 << 9


def _verify(claim: str, seed: int, *extra: str) -> list[str]:
    return ["verify", claim, *extra, "--seed", str(seed), "--jobs", "1", "--format", "json"]


def _spatial(graph: str, check: str, seed: int, *extra: str) -> list[str]:
    return ["spatial", "--graph", graph, "--check", check, *extra,
            "--seed", str(seed), "--jobs", "1", "--format", "json"]


def calls(workload: str, seed: int, index: int = 0, tiny: bool = False) -> list[list[str]]:
    """The argument vectors of pass `index` of a run, in the order they run.

    A projections pass makes the calls of sweep seed `seed + index`; the
    first pass also makes the run's one `--enumerate` call.  `tiny` gives
    each sampling claim two trials, for the benchmark's own smoke test; the
    other workloads have no size knob left to shrink.
    """
    if workload == "structure":
        return [_verify(c, seed) for c in STRUCTURE_CLAIMS] + [
            ["families", "--seed", "K3311", "--out", OUT, "--jobs", "1", "--format", "json"]
        ]
    if workload == "sampling":
        extra = ("--trials", "2") if tiny else ()
        return [_verify(c, seed, *extra) for c in SAMPLING_CLAIMS]
    if workload == "projections":
        s = seed + index
        out = [_spatial(g, check, s, "--trials", "2") for g, check in SPATIAL_CHECKS]
        out += [_verify("d4-lemma", s), _verify("invariant-oracle", s)]
        if index == 0:
            out.append(_spatial("D4", "d4-lemma", seed, "--enumerate"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def call_key(argv: list[str]) -> str:
    """The name a call is recorded under in digests.json."""
    return " ".join(argv)


def claim_of(argv: list[str]) -> str | None:
    """The claim id of a `verify` call."""
    return argv[1] if argv[0] == "verify" else None


def known_defect(argv: list[str], exit_code: int, report: dict) -> bool:
    """True for the known vacuous `verify d4-lemma` FAIL (see README.md).

    The lemma held on every D4 assignment whose linking numbers are both
    odd, no host sample broke it either, and the FAIL comes only from the
    premise never holding in the host samples.  A FAIL with any alpha
    failure is a counterexample and is not this defect.
    """
    if claim_of(argv) != "d4-lemma" or exit_code != 1 or report.get("result") != "FAIL":
        return False
    ev = report["evidence"]
    return (ev["alpha_failures"] == [] and ev["both_odd_assignments"] > 0
            and ev["host_alpha_failures"] == [] and ev["host_both_odd"] == 0)


def trials_of(argv: list[str], report: dict) -> int:
    """Over/under assignments the call evaluated, read from its report."""
    ev = report.get("evidence", {})
    claim = claim_of(argv)
    if claim == "conway-gordon":
        return ev["k6"]["trials"] + ev["k7"]["trials"]
    if claim == "petersen-lk":
        return sum(m["trials"] for m in ev["members"].values())
    if claim == "n9fn-dichotomy":
        return sum(g["trials"] for g in ev.values())
    if claim == "d4-lemma":
        return ev["assignments"] + ev["host_samples"]
    if claim == "invariant-oracle":
        return ev["sampled_knots"]
    if argv[0] == "spatial":
        if "--enumerate" in argv:
            return D4_ENUMERATED
        return ev["verdict"]["trials"]
    return 0
