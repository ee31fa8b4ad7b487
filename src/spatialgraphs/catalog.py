"""Named reference graphs, link fixtures, exchange families, and the
hand-checked reduction scripts used throughout the test suite and the
verification CLI.

Family members are named after their structural roles (seed, unique member
of a vertex count, pinned reference certificates).  Where several members
of a family share a vertex count and no structural pin applies, letters are
assigned in a fixed deterministic order and the record is flagged
heuristic_name so downstream consumers know the label is a convention, not
an identification.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from .canon import canonical_form
from .cycles import MinorModel, all_cycles
from .diagrams import SpatialDiagram
from .exchange import ClosureResult, closure
from .invariants import GaussLink, parse_gauss
from .multigraph import (
    ContractEdge,
    DeleteEdge,
    GraphError,
    MultiGraph,
    ReductionScript,
    complete_graph,
    from_pairs,
)

# -- basic graphs ----------------------------------------------------------------

_N9_EDGES = [
    (1, 2), (1, 3), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 6), (2, 8),
    (3, 4), (3, 5), (3, 9),
    (4, 5), (4, 6), (4, 7),
    (5, 6), (5, 8),
    (6, 9),
    (7, 8), (7, 9),
    (8, 9),
]

_NP10_EDGES = [
    (1, 5), (1, 6), (1, 7), (1, 10),
    (2, 4), (2, 6), (2, 8), (2, 10),
    (3, 4), (3, 5), (3, 9), (3, 10),
    (4, 5), (4, 7),
    (5, 6), (5, 8),
    (6, 9),
    (7, 8), (7, 9),
    (8, 9), (8, 10),
]


def _k3311() -> MultiGraph:
    parts = [(1, 2, 3), (4, 5, 6), (7,), (8,)]
    pairs = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in parts[i]:
                for v in parts[j]:
                    pairs.append((min(u, v), max(u, v)))
    pairs.sort()
    return from_pairs(pairs)


def _doubled_four_cycle() -> MultiGraph:
    return from_pairs(
        [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4), (1, 4), (1, 4)]
    )


def _heawood_reference() -> MultiGraph:
    pairs = [(i, (i + 1) % 14) for i in range(14)]
    pairs += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return from_pairs([(min(u, v), max(u, v)) for u, v in pairs], vertices=range(14))


def _petersen_reference() -> MultiGraph:
    # Kneser graph on the 2-subsets of a 5-set; edges join disjoint pairs
    subsets = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    idx = {s: i + 1 for i, s in enumerate(subsets)}
    pairs = []
    for i, s in enumerate(subsets):
        for t in subsets[i + 1 :]:
            if not (set(s) & set(t)):
                pairs.append((idx[s], idx[t]))
    return from_pairs(pairs)


def _hopf() -> GaussLink:
    return parse_gauss("c1o+ c2u+ / c1u+ c2o+")


def _trefoil() -> GaussLink:
    return parse_gauss("c1o+ c2u+ c3o+ c1u+ c2o+ c3u+")


def _figure_eight() -> GaussLink:
    # standard alternating four-crossing code; tests pin its Conway
    # polynomial to 1 - z^2 via the skein evaluator
    return parse_gauss("c1u- c2o- c3u+ c4o+ c2u- c1o- c4u+ c3o+")


_FIXTURES = {
    "K6": lambda: complete_graph(6),
    "K7": lambda: complete_graph(7),
    "K3311": _k3311,
    "D4": _doubled_four_cycle,
    "N9": lambda: from_pairs(_N9_EDGES),
    "N'10": lambda: from_pairs(_NP10_EDGES),
    "HeawoodRef": _heawood_reference,
    "PetersenRef": _petersen_reference,
    "Hopf": _hopf,
    "Trefoil": _trefoil,
    "Fig8": _figure_eight,
}


def fixture(name: str):
    """A reference graph or Gauss-code link by its catalog name."""
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise GraphError(f"unknown fixture {name!r}") from None
    return build()


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


# -- exchange families -------------------------------------------------------------


@lru_cache(maxsize=None)
def petersen_family() -> ClosureResult:
    result = closure(fixture("K6"))
    return _named(result, _petersen_names(result))


@lru_cache(maxsize=None)
def heawood_family() -> ClosureResult:
    result = closure(fixture("K7"))
    return _named(result, _heawood_names(result))


@lru_cache(maxsize=None)
def k3311_family() -> ClosureResult:
    return closure(fixture("K3311"))


# certificate hex -> (name, heuristic_name)
_Names = dict[str, tuple[str, bool]]


def _named(result: ClosureResult, names: _Names) -> ClosureResult:
    """The cached families are shared, so their records are built named and
    frozen rather than renamed in place."""
    records = []
    for rec in result.records:
        if rec.certificate.hex in names:
            name, heuristic = names[rec.certificate.hex]
            rec = replace(rec, name=name, heuristic_name=heuristic)
        records.append(rec)
    return replace(result, records=tuple(records))


def _by_count(result: ClosureResult):
    groups: dict[int, list] = {}
    for rec in result.records:
        groups.setdefault(rec.vertex_count, []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: (tuple(-d for d in r.degree_sequence), r.certificate.hex))
    return groups

def _pin(result: ClosureResult, graph: MultiGraph, name: str, names: _Names):
    rec = result.by_certificate().get(canonical_form(graph).hex)
    if rec is None:
        raise GraphError(f"{name} is not in the family")
    names[rec.certificate.hex] = (name, False)
    return rec


def _petersen_names(result: ClosureResult) -> _Names:
    names: _Names = {}
    _pin(result, fixture("K6"), "K6", names)
    groups = _by_count(result)
    for rec in groups[7]:
        # P7 is the seven-vertex class with a dominating vertex (it is the
        # tripartite 3+3+1 graph, and the target of the bundled reduction
        # scripts); the exchange child of the seed has no degree-6 vertex
        # and carries an invented label, hence the heuristic flag
        if max(rec.degree_sequence) == 6:
            names[rec.certificate.hex] = ("P7", False)
        else:
            names[rec.certificate.hex] = ("Y7", True)
    for rec in groups[8]:
        # bipartite: every cycle even (a loop is odd, a parallel pair even)
        bipartite = all(len(c) % 2 == 0 for c in all_cycles(rec.graph))
        names[rec.certificate.hex] = ("K44me" if bipartite else "P8", False)
    names[groups[9][0].certificate.hex] = ("P9", False)
    names[groups[10][0].certificate.hex] = ("P10", False)
    return names


def _heawood_names(result: ClosureResult) -> _Names:
    names: _Names = {}
    _pin(result, fixture("K7"), "K7", names)
    _pin(result, fixture("HeawoodRef"), "C14", names)
    n9 = _pin(result, fixture("N9"), "N9", names)
    np10 = _pin(result, fixture("N'10"), "N'10", names)

    def unnamed(rec) -> bool:
        return rec.certificate.hex not in names

    non_ik = [r for r in result.records if not r.dy_only_reachable]

    def dy_children(rec):
        return {
            tr.target.hex for tr in result.transitions
            if tr.move.kind == "dy" and tr.source == rec.certificate
        }

    # unprimed series descends from the nine-vertex member, the primed one
    # from the ten-vertex fixture; the eleven-vertex child of the primed
    # branch is unique, which pins both names
    n9_kids = dy_children(n9)
    tens = [r for r in non_ik if r.vertex_count == 10 and unnamed(r)]
    if len(tens) != 1 or tens[0].certificate.hex not in n9_kids:
        raise GraphError("ten-vertex non-reachable member structure unexpected")
    names[tens[0].certificate.hex] = ("N10", False)
    np10_kids = dy_children(np10)
    elevens = [r for r in non_ik if r.vertex_count == 11]
    primed = [r for r in elevens if r.certificate.hex in np10_kids]
    if len(primed) != 1 or len(elevens) != 2:
        raise GraphError("eleven-vertex non-reachable member structure unexpected")
    names[primed[0].certificate.hex] = ("N'11", False)
    names[next(r for r in elevens if unnamed(r)).certificate.hex] = ("N11", False)
    for rec in non_ik:
        if rec.vertex_count == 12:
            names[rec.certificate.hex] = ("N'12", False)

    letters = {
        8: ["H8"],
        9: ["H9", "F9"],
        10: ["H10", "F10", "E10"],
        11: ["H11", "E11", "C11"],
        12: ["H12", "C12"],
        13: ["C13"],
    }
    groups = _by_count(result)
    for count, letter_names in letters.items():
        todo = [r for r in groups.get(count, ()) if unnamed(r)]
        if len(todo) != len(letter_names):
            raise GraphError(
                f"expected {len(letter_names)} unnamed members on {count} vertices,"
                f" found {len(todo)}"
            )
        ambiguous = len(letter_names) > 1
        for rec, name in zip(todo, letter_names):
            names[rec.certificate.hex] = (name, ambiguous)
    return names


# -- reduction scripts ----------------------------------------------------------

# Each script is a short derivation taking a family member to a smaller
# reference graph by edge deletions and contractions; the first six are the
# ones checked by the acceptance run, the rest corroborate them.
_SCRIPTS: list[tuple[str, str, ReductionScript]] = [
    (
        "N9", "K6",
        ReductionScript([
            DeleteEdge(7, 8), DeleteEdge(8, 9), DeleteEdge(9, 7),
            ContractEdge(4, 7), ContractEdge(5, 8), ContractEdge(6, 9),
        ]),
    ),
    (
        "N9", "P7",
        ReductionScript([
            DeleteEdge(6, 1), DeleteEdge(6, 2), DeleteEdge(6, 4),
            DeleteEdge(6, 5), DeleteEdge(6, 9), ContractEdge(3, 9),
        ]),
    ),
    (
        "N9", "P9",
        ReductionScript([
            DeleteEdge(1, 2), DeleteEdge(2, 3), DeleteEdge(3, 1),
            DeleteEdge(4, 5), DeleteEdge(5, 6), DeleteEdge(6, 4),
        ]),
    ),
    (
        "N'10", "P7",
        ReductionScript([
            DeleteEdge(7, 8), DeleteEdge(8, 9), DeleteEdge(9, 7),
            ContractEdge(4, 7), ContractEdge(5, 8), ContractEdge(6, 9),
        ]),
    ),
    (
        "N'10", "P9",
        ReductionScript([
            DeleteEdge(5, 1), DeleteEdge(5, 3), DeleteEdge(5, 4),
            DeleteEdge(5, 6), DeleteEdge(5, 8), DeleteEdge(7, 9),
        ]),
    ),
    (
        "N'10", "P9",
        ReductionScript([
            DeleteEdge(8, 2), DeleteEdge(8, 5), DeleteEdge(8, 7),
            DeleteEdge(8, 9), DeleteEdge(8, 10), DeleteEdge(3, 4),
        ]),
    ),
    (
        "N'10", "P7",
        ReductionScript([
            DeleteEdge(3, 4), DeleteEdge(4, 5), DeleteEdge(5, 3),
            ContractEdge(3, 9), ContractEdge(4, 7), ContractEdge(5, 8),
        ]),
    ),
    (
        "N'10", "P9",
        ReductionScript([
            DeleteEdge(2, 4), DeleteEdge(2, 6), DeleteEdge(2, 8),
            DeleteEdge(2, 10), DeleteEdge(5, 1), DeleteEdge(5, 3),
        ]),
    ),
    (
        "N'10", "P7",
        ReductionScript([
            DeleteEdge(2, 8), DeleteEdge(8, 10), DeleteEdge(10, 2),
            ContractEdge(2, 6), ContractEdge(3, 10), ContractEdge(5, 8),
        ]),
    ),
    (
        "N'10", "P9",
        ReductionScript([
            DeleteEdge(6, 1), DeleteEdge(6, 2), DeleteEdge(6, 5),
            DeleteEdge(6, 9), DeleteEdge(8, 7), DeleteEdge(8, 10),
        ]),
    ),
]


def reduction_scripts(primary_only: bool = False):
    """(source name, target name, script) triples; the first six are the
    primary set, the remainder are corroborating alternates."""
    rows = _SCRIPTS[:6] if primary_only else _SCRIPTS
    return [(s, t, sc) for s, t, sc in rows]


def family_member(name: str) -> MultiGraph:
    """A named member of the exchange families (petersen names first)."""
    for fam in (petersen_family(), heawood_family()):
        for rec in fam.records:
            if rec.name == name:
                return rec.graph
    raise GraphError(f"no family member named {name!r}")


# -- doubled-four-cycle data -------------------------------------------------------


def d4_in_n9_model() -> MinorModel:
    """Hand-checked doubled-four-cycle minor inside the nine-vertex graph."""
    host = fixture("N9")
    pattern = fixture("D4")
    eid = {}
    for e, u, v in host.edges:
        eid[(u, v)] = e
    branch_sets = {
        1: frozenset({4, 7}),
        2: frozenset({1, 3}),
        3: frozenset({2}),
        4: frozenset({5, 6, 8}),
    }
    edge_map = {
        0: eid[(1, 7)], 1: eid[(3, 4)],
        2: eid[(1, 2)], 3: eid[(2, 3)],
        4: eid[(2, 6)], 5: eid[(2, 8)],
        6: eid[(4, 5)], 7: eid[(7, 8)],
    }
    model = MinorModel(host, pattern, branch_sets, edge_map)
    model.validate()
    return model


def d4_reference_diagram():
    """A fixed generic drawing of the doubled four-cycle in which both
    pairs of disjoint bigons can simultaneously carry odd linking number.

    Three bigons are chord-plus-bulge lenses; the second strand of the
    fourth runs through the lens of the opposite bigon, so the two disjoint
    bigon pairs use disjoint crossing sets and every parity combination is
    realized by some over/under assignment.
    """
    F = Fraction
    g = fixture("D4")
    positions = {1: (F(0), F(0)), 2: (F(2), F(4)), 3: (F(1), F(1)), 4: (F(3), F(9))}
    polylines = {
        0: (positions[1], positions[2]),
        1: (positions[1], (F(3, 4), F(17, 8)), positions[2]),
        2: (positions[2], positions[3]),
        3: (positions[2], (F(27, 16), F(39, 16)), positions[3]),
        4: (positions[3], positions[4]),
        5: (positions[3], (F(3, 2), F(41, 8)), positions[4]),
        6: (positions[1], positions[4]),
        7: (positions[1], (F(1), F(15, 8)), (F(9, 4), F(15, 8)), positions[4]),
    }
    return SpatialDiagram(g, positions, polylines)
