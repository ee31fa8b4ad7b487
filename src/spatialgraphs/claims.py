"""Verification claims: one callable per acceptance check.

Each claim returns (ok, evidence) where evidence is a JSON-friendly dict
carrying counts, witnesses, and per-trial outcomes.  Claims are pure given
their seed; per-trial seeds are derived arithmetically so parallel runs
produce identical output.

A claim is declared once, where it is defined: ``@_claim(id, *inputs)``
registers it in CLAIMS under its id, in `verify list` order, and names the
catalog fixtures whose certificates its report carries; ``trials=True``
marks a claim that samples and so takes a trial count.

The sampled checks behind both `verify` and `spatial` are registered once
in CHECKS and run through run_trials.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from .canon import is_isomorphic
from .catalog import (
    d4_in_n9_model,
    d4_reference_diagram,
    family_member,
    fixture,
    heawood_family,
    k3311_family,
    petersen_family,
    reduction_scripts,
)
from .cycles import all_cycles, disjoint_cycle_tuples, format_cycle, lift_cycle
from .diagrams import (
    SpatialDiagram,
    assign_over_under,
    build_convex_diagram,
    extract_gauss,
    random_knot_diagram,
)
from .exchange import phi_maps
from .invariants import (
    a2,
    alpha,
    alpha_scope,
    conway_polynomial,
    dichotomy_scope,
    dichotomy_witness,
    linking_number,
    lk_census,
    a2_census,
)
from .minors import verify_minor_script
from .multigraph import GraphError
from .planarity import all_proper_minors_2apex


def derived_seed(seed: int, index: int) -> int:
    return seed * 1_048_573 + index


def _require_counts(trials: Optional[int], jobs: int) -> None:
    # a run of no trials would fold into a vacuous PASS
    if trials is not None and trials < 1:
        raise GraphError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise GraphError(f"jobs must be at least 1, got {jobs}")


# (trial, context) of a pool worker; set by _init_worker in workers only
_worker_task: Optional[tuple] = None


def _init_worker(trial: Callable, ctx) -> None:
    global _worker_task
    _worker_task = (trial, ctx)


def _worker_trial(i: int):
    trial, ctx = _worker_task
    return trial(ctx, i)


def _map_trials(trial: Callable, ctx, trials: int, jobs: int) -> list:
    """[trial(ctx, i) for i in range(trials)], over at most `jobs` processes
    and never more than the machine has CPUs.

    Workers receive ctx once, through the pool initializer, so any
    multiprocessing start method gives the same list.
    """
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        return [trial(ctx, i) for i in range(trials)]
    with mp.Pool(workers, initializer=_init_worker, initargs=(trial, ctx)) as pool:
        return pool.map(_worker_trial, range(trials))


# -- the trial engine of the sampled checks -----------------------------------------


@dataclass(frozen=True)
class TrialRun:
    """One projection of a graph and the scope its trials evaluate."""

    base: SpatialDiagram
    scope: tuple
    seed: Optional[int]  # None: trial i is over/under bit mask i


@dataclass(frozen=True)
class Check:
    """A sampled check: a fixed projection, many over/under assignments."""

    scope: Callable[..., tuple]  # graph -> ordered pairs, cycles or triples, or a tuple of such
    trial: Callable[[TrialRun, int], Optional[dict]]  # row, None outside the premise
    holds: Callable[[dict], bool]  # whether a row bears the check out
    default_trials: int
    verdict: str  # name of the flag in a `spatial` verdict
    shapes: tuple[str, ...]  # fixtures the check applies to; () for the seven-member family
    project: Callable[..., SpatialDiagram] = lambda g, seed: build_convex_diagram(g, seed=seed)


def _assignment(run: TrialRun, i: int) -> tuple[int, SpatialDiagram]:
    """Label and diagram of trial i: bit mask i, or the derived seed."""
    if run.seed is None:
        return i, assign_over_under(run.base, i)
    s = derived_seed(run.seed, i)
    return s, assign_over_under(run.base, seed=s)


def _disjoint_pairs(g) -> tuple:
    return disjoint_cycle_tuples(g, 2)


def _seven_cycles(g) -> tuple:
    return tuple(c for c in all_cycles(g) if len(c) == 7)


def _parity_trial(census: Callable, run: TrialRun, i: int) -> dict:
    result = census(_assignment(run, i)[1], run.scope)
    return {"trial": i, "parity": result.parity, "odd_witnesses": len(result.odd)}


def _lk_parity_trial(run: TrialRun, i: int) -> dict:
    return _parity_trial(lk_census, run, i)


def _a2_parity_trial(run: TrialRun, i: int) -> dict:
    return _parity_trial(a2_census, run, i)


def _odd_pair_trial(run: TrialRun, i: int) -> dict:
    census = lk_census(_assignment(run, i)[1], run.scope)
    first = (
        " + ".join(format_cycle(run.base.graph, c) for c in census.odd[0])
        if census.odd
        else None
    )
    return {"trial": i, "odd_pairs": len(census.odd), "witness": first}


def _d4_scope(g) -> tuple:
    return _disjoint_pairs(g), alpha_scope(g)


def _d4_trial(run: TrialRun, i: int) -> Optional[dict]:
    label, d = _assignment(run, i)
    pairs, quads = run.scope
    lks = list(lk_census(d, pairs).values)
    if not all(v % 2 for v in lks):
        return None
    return {"assignment": label, "lk": lks, "alpha": alpha(d, quads)}


def _dichotomy_trial(run: TrialRun, i: int) -> dict:
    w = dichotomy_witness(_assignment(run, i)[1], run.scope)
    if w is None:
        return {"trial": i, "kind": "none", "witness": ""}
    return {
        "trial": i,
        "kind": w.kind,
        "witness": " ".join(format_cycle(run.base.graph, c) for c in w.cycles),
        "values": list(w.values),
    }


CHECKS: dict[str, Check] = {
    "cg-k6": Check(
        _disjoint_pairs, _lk_parity_trial, lambda r: r["parity"] == 1, 100,
        "all_odd_parity", ("K6",),
    ),
    "cg-k7": Check(
        _seven_cycles, _a2_parity_trial, lambda r: r["parity"] == 1, 100,
        "all_odd_parity", ("K7",),
    ),
    "d4-lemma": Check(
        _d4_scope, _d4_trial, lambda r: r["alpha"] == 1, 100,
        "all_alpha_one", ("D4",), lambda g, seed: d4_reference_diagram(),
    ),
    "n9fn": Check(
        dichotomy_scope, _dichotomy_trial, lambda r: r["kind"] != "none", 200,
        "witness_every_trial", ("N9", "N'10"),
    ),
    "petersen-lk": Check(
        _disjoint_pairs, _odd_pair_trial, lambda r: r["odd_pairs"] > 0, 50,
        "odd_pair_every_trial", (),
    ),
}


def run_trials(
    check: str, graph, seed: Optional[int], trials: Optional[int] = None, jobs: int = 1
) -> tuple[TrialRun, list[dict]]:
    """Build the check's projection of graph once, then evaluate its trials.

    Trial i assigns over/under from derived_seed(seed, i); trials None runs
    the check's default count.  seed None enumerates every assignment of
    the projection instead (trial i takes bit mask i) and ignores trials.
    Rows come back in trial order, without the trials outside the premise.
    """
    _require_counts(trials, jobs)
    rec = CHECKS[check]
    base = rec.project(graph, seed)
    run = TrialRun(base, rec.scope(base.graph), seed)
    if seed is None:
        trials = 1 << base.crossing_count
    elif trials is None:
        trials = rec.default_trials
    rows = _map_trials(rec.trial, run, trials, jobs)
    return run, [r for r in rows if r is not None]


def borne_out(check: str, rows: list[dict]) -> bool:
    """Whether a check's rows bear it out: at least one row, and every row
    holds.  No row at all (no trial met the premise) shows nothing."""
    holds = CHECKS[check].holds
    return bool(rows) and all(map(holds, rows))


def _failures(check: str, rows: list[dict], label: str = "trial") -> list:
    holds = CHECKS[check].holds
    return [r[label] for r in rows if not holds(r)]


# claim id -> claim, in `verify list` order; filled by _claim
CLAIMS: dict[str, Callable] = {}


def _claim(claim_id: str, *inputs: str, trials: bool = False) -> Callable:
    def register(fn: Callable) -> Callable:
        fn.inputs, fn.takes_trials = inputs, trials
        CLAIMS[claim_id] = fn
        return fn

    return register


# -- family claims ---------------------------------------------------------------


@_claim("petersen-family", "K6", "PetersenRef")
def claim_petersen_family(trials, seed, jobs):
    fam = petersen_family()
    names = sorted(r.name for r in fam.records)
    edge_counts = {r.name: r.edge_count for r in fam.records}
    p10 = next(r.graph for r in fam.records if r.name == "P10")
    iso = is_isomorphic(p10, fixture("PetersenRef")) is not None
    ok = (
        len(fam.records) == 7
        and names == sorted(["K6", "Y7", "P7", "K44me", "P8", "P9", "P10"])
        and all(c == 15 for c in edge_counts.values())
        and iso
    )
    return ok, {
        "classes": len(fam.records),
        "members": names,
        "edge_counts": edge_counts,
        "ten_vertex_member_is_reference": iso,
    }


@_claim("heawood-family", "K7")
def claim_heawood_family(trials, seed, jobs):
    fam = heawood_family()
    dy_only = sum(r.dy_only_reachable for r in fam.records)
    edge_ok = all(r.edge_count == 21 for r in fam.records)
    ok = len(fam.records) == 20 and dy_only == 14 and edge_ok
    return ok, {
        "classes": len(fam.records),
        "triangle_to_star_only_classes": dy_only,
        "all_have_21_edges": edge_ok,
        "members": sorted(
            (r.name or "?", r.vertex_count) for r in fam.records
        ),
    }


@_claim("k3311-counts", "K3311")
def claim_k3311_counts(trials, seed, jobs):
    full = k3311_family()
    dy_only = sum(r.dy_only_reachable for r in full.records)
    ok = dy_only == 26 and len(full.records) == 58
    return ok, {
        "triangle_to_star_only_classes": dy_only,
        "full_closure_classes": len(full.records),
        "difference": len(full.records) - dy_only,
    }


@_claim("theorem1-equivalence", "K7")
def claim_theorem1_equivalence(trials, seed, jobs):
    fam = heawood_family()
    rows = []
    equiv = True
    failures = []
    for r in sorted(fam.records, key=lambda r: (r.vertex_count, r.name or "")):
        rows.append(
            {
                "name": r.name,
                "vertices": r.vertex_count,
                "no_triple_of_disjoint_cycles": r.gamma3_empty,
                "triangle_to_star_only": r.dy_only_reachable,
            }
        )
        if r.gamma3_empty != r.dy_only_reachable:
            equiv = False
        if not r.dy_only_reachable:
            failures.append((r.name, r.vertex_count))
    failure_names_ok = all(n and n.startswith("N") for n, _ in failures)
    counts_ok = sorted(v for _, v in failures) == [9, 10, 10, 11, 11, 12]
    ok = equiv and failure_names_ok and counts_ok and len(failures) == 6
    return ok, {"rows": rows, "failures": sorted(failures, key=lambda p: (p[1], p[0]))}


@_claim("prop24-phi", "K7", "N9")
def claim_prop24_phi(trials, seed, jobs):
    fam = heawood_family()
    flags = {r.certificate.hex: r.gamma3_empty for r in fam.records}
    checked = 0
    violations = []
    for tr in fam.transitions:
        if tr.move.kind != "dy":
            continue
        checked += 1
        if flags[tr.source.hex] and not flags[tr.target.hex]:
            violations.append((tr.source.hex[:8], tr.move.site, tr.target.hex[:8]))
    phi_checks = 0
    phi_ok = True
    worst = 0
    for gname in ("K7", "N9"):
        for _, res in phi_maps(fixture(gname)):
            phi_checks += len(res.orbit)  # one check stands for its orbit
            phi_ok = phi_ok and res.surjective and res.max_fiber <= 2
            worst = max(worst, res.max_fiber)
    ok = not violations and phi_ok
    return ok, {
        "exchange_transitions_checked": checked,
        "emptiness_violations": violations,
        "cycle_map_checks": phi_checks,
        "cycle_map_ok": phi_ok,
        "worst_fiber": worst,
    }


@_claim("minor-scripts", "N9", "N'10", "K6")
def claim_minor_scripts(trials, seed, jobs):
    rows = []
    ok = True
    for src, tgt, script in reduction_scripts(primary_only=True):
        verified = verify_minor_script(fixture(src), script, family_member(tgt)) is not None
        rows.append({"source": src, "target": tgt, "ok": verified})
        ok = ok and verified
    return ok, {"scripts": rows}


@_claim("apex-proper-minors", "K7")
def claim_apex_proper_minors(trials, seed, jobs):
    fam = heawood_family()
    rows = []
    ok = True
    for r in sorted(fam.records, key=lambda r: (r.vertex_count, r.name or "")):
        witness, bad = all_proper_minors_2apex(r.graph)
        member_apex = witness is not None
        rows.append(
            {
                "name": r.name,
                "is_two_apex": member_apex,
                "non_two_apex_reductions": bad,
            }
        )
        if member_apex or bad:
            ok = False
    return ok, {"members": rows}


@_claim("c14-identification", "K7", "HeawoodRef")
def claim_c14_identification(trials, seed, jobs):
    fam = heawood_family()
    big = [r for r in fam.records if r.vertex_count == 14]
    if len(big) != 1:
        return False, {"fourteen_vertex_members": len(big)}
    rec = big[0]
    moves_ok = len(rec.provenance) == 7 and all(m.kind == "dy" for m in rec.provenance)
    iso = is_isomorphic(rec.graph, fixture("HeawoodRef")) is not None
    ok = moves_ok and iso
    return ok, {
        "name": rec.name,
        "provenance_moves": [m.kind for m in rec.provenance],
        "isomorphic_to_reference": iso,
    }


# -- invariant claims ---------------------------------------------------------------


def _knot_oracle_trial(seed: int, i: int) -> tuple[int, int, int, int]:
    d, cycle = random_knot_diagram(derived_seed(seed, i))
    knot = extract_gauss(d, [cycle])
    gauss = a2(knot)
    skein = conway_polynomial(knot).get(2, 0)
    return (i, d.crossing_count, gauss, skein)


@_claim("invariant-oracle", "Trefoil", "Fig8", "Hopf", trials=True)
def claim_invariant_oracle(trials, seed, jobs):
    trials = 50 if trials is None else trials
    tre = fixture("Trefoil")
    fig = fixture("Fig8")
    hopf = fixture("Hopf")
    rows = {
        "trefoil": {"a2": a2(tre), "conway": conway_polynomial(tre)},
        "figure_eight": {"a2": a2(fig), "conway": conway_polynomial(fig)},
        "hopf_lk": linking_number(hopf),
        "hopf_conway": conway_polynomial(hopf),
    }
    fixed_ok = (
        rows["trefoil"]["a2"] == 1
        and rows["trefoil"]["conway"] == {0: 1, 2: 1}
        and rows["figure_eight"]["a2"] == -1
        and rows["figure_eight"]["conway"] == {0: 1, 2: -1}
        and rows["hopf_lk"] == 1
    )
    sampled = _map_trials(_knot_oracle_trial, seed, trials, jobs)
    mismatches = [(i, c, g, s) for i, c, g, s in sampled if g != s]
    ok = fixed_ok and not mismatches
    rows.update(
        {
            "sampled_knots": trials,
            "max_crossings": max(c for _, c, _, _ in sampled),
            "mismatches": mismatches,
        }
    )
    return ok, rows


def _conway_gordon(check, name, scope_key, size, trials, seed, jobs):
    run, rows = run_trials(check, fixture(name), seed, trials, jobs)
    if len(run.scope) != size:
        return False, {scope_key: len(run.scope)}
    return borne_out(check, rows), {
        "trials": len(rows),
        scope_key: size,
        "even_parity_trials": _failures(check, rows),
        "odd_witnesses_first_trial": rows[0]["odd_witnesses"],
    }


# declared before its halves: the order of declaration is `verify list`'s
@_claim("conway-gordon", "K6", "K7", trials=True)
def claim_conway_gordon(trials, seed, jobs):
    ok6, ev6 = claim_conway_gordon_k6(trials, seed, jobs)
    ok7, ev7 = claim_conway_gordon_k7(trials, seed, jobs)
    return ok6 and ok7, {"k6": ev6, "k7": ev7}


@_claim("conway-gordon-k6", "K6", trials=True)
def claim_conway_gordon_k6(trials, seed, jobs):
    return _conway_gordon("cg-k6", "K6", "disjoint_pairs", 10, trials, seed, jobs)


@_claim("conway-gordon-k7", "K7", trials=True)
def claim_conway_gordon_k7(trials, seed, jobs):
    return _conway_gordon("cg-k7", "K7", "seven_cycles", 360, trials, seed, jobs)


@_claim("petersen-lk", "K6", trials=True)
def claim_petersen_lk(trials, seed, jobs):
    fam = petersen_family()
    members = {}
    ok = True
    for rec in sorted(fam.records, key=lambda r: (r.vertex_count, r.name)):
        run, rows = run_trials("petersen-lk", rec.graph, seed, trials, jobs)
        members[rec.name] = {
            "disjoint_pairs": len(run.scope),
            "trials": len(rows),
            "trials_without_odd_pair": _failures("petersen-lk", rows),
        }
        ok = ok and borne_out("petersen-lk", rows)
    return ok, {"members": members}


def _d4_host_trial(ctx, i: int) -> Optional[int]:
    """alpha of host sample i when both lifted linking numbers are odd."""
    seed, host, lifted, quads = ctx
    # the vertex order is shuffled per trial: in the sorted convex order one
    # lifted pair never interleaves, so its linking number would vanish
    # identically and the premise would be unsatisfiable
    rng = Random(derived_seed(seed, i))
    order = list(host.vertices)
    rng.shuffle(order)
    base = build_convex_diagram(host, order=order, seed=rng.randrange(1 << 30))
    d = assign_over_under(base, seed=rng.randrange(1 << 30))
    lks = lk_census(d, lifted).values
    return alpha(d, quads) if all(v % 2 for v in lks) else None


@_claim("d4-lemma", "D4", "N9", trials=True)
def claim_d4_lemma(trials, seed, jobs):
    run, rows = run_trials("d4-lemma", fixture("D4"), None, None, jobs)
    pairs, quads = run.scope
    if len(pairs) != 2:
        return False, {"disjoint_bigon_pairs": len(pairs)}
    n = run.base.crossing_count
    host = fixture("N9")
    model = d4_in_n9_model()
    lifted = [(lift_cycle(model, a), lift_cycle(model, b)) for a, b in pairs]
    host_quads = tuple(lift_cycle(model, c) for c in quads)
    samples = 20 if trials is None else trials
    alphas = _map_trials(_d4_host_trial, (seed, host, lifted, host_quads), samples, jobs)
    host_both_odd = sum(1 for v in alphas if v is not None)
    host_failures = [i for i, v in enumerate(alphas) if v not in (None, 1)]
    ok = borne_out("d4-lemma", rows) and not host_failures and host_both_odd > 0
    return ok, {
        "crossings": n,
        "assignments": 1 << n,
        "both_odd_assignments": len(rows),
        "alpha_failures": _failures("d4-lemma", rows, "assignment"),
        "host_samples": samples,
        "host_both_odd": host_both_odd,
        "host_alpha_failures": host_failures,
    }


@_claim("n9fn-dichotomy", "N9", "N'10", trials=True)
def claim_n9fn_dichotomy(trials, seed, jobs):
    out = {}
    ok = True
    for name in ("N9", "N'10"):
        _, rows = run_trials("n9fn", fixture(name), seed, trials, jobs)
        kinds = {
            "knot": sum(1 for r in rows if r["kind"] == "knot"),
            "link": sum(1 for r in rows if r["kind"] == "link"),
        }
        out[name] = {
            "trials": len(rows),
            "witness_kinds": kinds,
            "trials_without_witness": _failures("n9fn", rows),
            "first_witness": (rows[0]["kind"], rows[0]["witness"]),
        }
        ok = ok and borne_out("n9fn", rows)
    return ok, out


def run_claim(claim_id: str, trials: Optional[int] = None, seed: int = 0, jobs: int = 1):
    try:
        fn = CLAIMS[claim_id]
    except KeyError:
        raise GraphError(f"unknown claim {claim_id!r}") from None
    if trials is not None and not fn.takes_trials:
        raise GraphError(f"claim {claim_id!r} runs no trials; it takes no --trials")
    _require_counts(trials, jobs)
    return fn(trials, seed, jobs)
