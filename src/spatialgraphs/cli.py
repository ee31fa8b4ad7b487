"""Command-line interface: family generation, claim verification, and
spatial sampling reports.

Exit codes: 0 all checks pass, 1 a check failed (a counterexample is worth
shouting about), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .canon import canonical_form
from .catalog import fixture, fixture_names, heawood_family, k3311_family, petersen_family
from .claims import CHECKS, CLAIMS, run_claim, run_trials
from .exchange import closure, write_manifest
from .invariants import GaussLink, format_gauss
from .multigraph import GraphError, parse_edge_list

_FAMILY_SEEDS = ("K6", "K7", "K3311")

_CLAIM_INPUTS = {
    "petersen-family": ("K6", "PetersenRef"),
    "heawood-family": ("K7",),
    "k3311-counts": ("K3311",),
    "theorem1-equivalence": ("K7",),
    "prop24-phi": ("K7", "N9"),
    "minor-scripts": ("N9", "N'10", "K6"),
    "apex-proper-minors": ("K7",),
    "c14-identification": ("K7", "HeawoodRef"),
    "invariant-oracle": ("Trefoil", "Fig8", "Hopf"),
    "conway-gordon": ("K6", "K7"),
    "conway-gordon-k6": ("K6",),
    "conway-gordon-k7": ("K7",),
    "petersen-lk": ("K6",),
    "d4-lemma": ("D4", "N9"),
    "n9fn-dichotomy": ("N9", "N'10"),
}


def _input_hash(name: str) -> str:
    obj = fixture(name)
    if isinstance(obj, GaussLink):
        return hashlib.sha256(format_gauss(obj).encode()).hexdigest()[:16]
    return canonical_form(obj).hex[:16]


def _default_seed() -> int:
    env = os.environ.get("KNOT_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise GraphError(f"KNOT_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spatialgraphs",
        description="exchange families, minors, and spatial-embedding checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="generate an exchange family")
    fam.add_argument("--seed", required=True, help="K6, K7, K3311, or an edge-list file")
    fam.add_argument("--moves", default="dy,yd", help="comma list from {dy, yd}")
    fam.add_argument("--out", default=None, help="directory for manifest + edge lists")
    fam.add_argument("--jobs", type=int, default=1)
    fam.add_argument("--format", choices=("json", "text"), default="text")

    ver = sub.add_parser("verify", help="run a verification claim")
    ver.add_argument("claim", help="claim id; use 'list' to enumerate")
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--format", choices=("json", "text"), default="text")

    spa = sub.add_parser("spatial", help="sampled spatial-embedding reports")
    spa.add_argument("--graph", required=True, help="fixture name or edge-list file")
    spa.add_argument("--check", required=True, choices=tuple(CHECKS))
    spa.add_argument("--trials", type=int, default=None)
    spa.add_argument("--seed", type=int, default=None)
    spa.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    spa.add_argument("--jobs", type=int, default=1)
    spa.add_argument("--format", choices=("json", "text"), default="text")
    return p


def _load_graph(token: str):
    if token in fixture_names():
        g = fixture(token)
        if isinstance(g, GaussLink):
            raise GraphError(f"{token} is a Gauss code fixture, not a graph")
        return g
    with open(token) as fh:
        return parse_edge_list(fh.read())


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, default=str))
        return
    for key, value in report.items():
        if key == "evidence":
            continue
        print(f"{key}: {value}")
    if "evidence" in report:
        _render(report["evidence"], 1)


def _render(node, depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _render(v, depth + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(node, list):
        if node and all(isinstance(r, dict) for r in node):
            cols = list(node[0].keys())
            rows = [[str(r.get(c, "")) for c in cols] for r in node]
            widths = [max(len(c), *(len(row[i]) for row in rows)) for i, c in enumerate(cols)]
            print(pad + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for row in rows:
                print(pad + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        else:
            for item in node:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{node}")


# -- families -----------------------------------------------------------------


def cmd_families(args) -> int:
    moves = tuple(m.strip() for m in args.moves.split(",") if m.strip())
    if args.seed in _FAMILY_SEEDS and set(moves) == {"dy", "yd"}:
        result = {
            "K6": petersen_family,
            "K7": heawood_family,
            "K3311": k3311_family,
        }[args.seed]()
    else:
        result = closure(_load_graph(args.seed), moves)
    members = [
        {
            "name": rec.name,
            "vertices": rec.vertex_count,
            "edges": rec.edge_count,
            "certificate": rec.certificate.hex[:16],
            "triangle_to_star_only": rec.dy_only_reachable,
            "no_triple_of_disjoint_cycles": rec.gamma3_empty,
        }
        for rec in result.records
    ]
    if args.out:
        write_manifest(result, args.out)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "moves": list(moves),
                    "classes": len(result.records),
                    "members": members,
                },
                indent=2,
            )
        )
    else:
        print(f"{len(result.records)} classes")
        _render(members, 0)
        if args.out:
            print(f"manifest written to {args.out}")
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.claim == "list":
        for cid in CLAIMS:
            print(cid)
        return 0
    if args.claim not in CLAIMS:
        print(f"error: unknown claim {args.claim!r}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else _default_seed()
    start = time.monotonic()
    ok, evidence = run_claim(args.claim, trials=args.trials, seed=seed, jobs=args.jobs)
    report = {
        "claim": args.claim,
        "result": "PASS" if ok else "FAIL",
        "seed": seed,
        "trials": args.trials,
        "jobs": args.jobs,
        "elapsed_s": round(time.monotonic() - start, 3),
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "inputs": {
            name: _input_hash(name) for name in _CLAIM_INPUTS.get(args.claim, ())
        },
        "evidence": evidence,
    }
    _emit(report, args.format)
    return 0 if ok else 1


# -- spatial ---------------------------------------------------------------------


def _require_shape(g, check: str) -> str:
    """Name of the fixture, or of the seven-member family member, that g
    is isomorphic to; the check's theorem covers only those graphs."""
    cert = canonical_form(g)
    names = CHECKS[check].shapes
    if not names:
        members = {r.certificate: r.name for r in petersen_family().records}
        if cert not in members:
            raise GraphError("graph is not in the seven-member family")
        return members[cert]
    for name in names:
        if cert == canonical_form(fixture(name)):
            return name
    raise GraphError(f"graph must be one of {names} for this check")


def cmd_spatial(args) -> int:
    g = _load_graph(args.graph)
    seed = args.seed if args.seed is not None else _default_seed()
    check = args.check
    name = _require_shape(g, check)
    if args.enumerate_all and check != "d4-lemma":
        raise GraphError("--enumerate applies only to the d4-lemma check")
    if args.enumerate_all and args.trials is not None:
        raise GraphError("--enumerate runs every assignment; it takes no --trials")
    _, rows = run_trials(check, g, None if args.enumerate_all else seed, args.trials, args.jobs)
    rec = CHECKS[check]
    ok = all(rec.holds(r) for r in rows)
    if check == "d4-lemma":
        verdict = {"both_odd_cases": len(rows)}
    else:
        verdict = {"member" if check == "petersen-lk" else "graph": name, "trials": len(rows)}
    verdict[rec.verdict] = ok

    report = {
        "check": check,
        "result": "PASS" if ok else "FAIL",
        "seed": seed,
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "input_certificate": canonical_form(g).hex[:16],
        "evidence": {"verdict": verdict, "trials": rows},
    }
    _emit(report, args.format)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "families":
            return cmd_families(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_spatial(args)
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
