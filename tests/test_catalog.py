"""Bundled fixture graphs and the named closure families."""

import pytest

from spatialgraphs.canon import degree_sequence, is_isomorphic
from spatialgraphs.catalog import (
    family_member,
    fixture,
    fixture_names,
    heawood_family,
    k3311_family,
    petersen_family,
)
from spatialgraphs.cycles import all_cycles
from spatialgraphs.exchange import delta_y
from spatialgraphs.multigraph import GraphError, complete_graph, from_pairs
from spatialgraphs.planarity import is_planar


def test_fixture_names_cover_the_graph_fixtures():
    names = fixture_names()
    for expect in ("K6", "K7", "K3311", "D4", "N9", "N'10", "HeawoodRef", "PetersenRef"):
        assert expect in names


def test_unknown_fixture_raises():
    with pytest.raises(GraphError):
        fixture("K99")


def test_k3311_fixture_shape():
    g = fixture("K3311")
    assert g.vertex_count == 8
    assert g.edge_count == 22
    assert degree_sequence(g) == (7, 7, 5, 5, 5, 5, 5, 5)
    assert sum(1 for c in all_cycles(g) if len(c) == 3) == 24


def test_n9_fixture_shape(n9):
    assert n9.vertex_count == 9
    assert n9.edge_count == 21
    assert degree_sequence(n9) == (5, 5, 5, 5, 5, 5, 4, 4, 4)
    assert sorted(n9.neighbors(6)) == [1, 2, 4, 5, 9]


def test_np10_fixture_shape(np10):
    assert np10.vertex_count == 10
    assert np10.edge_count == 21
    assert degree_sequence(np10) == (5, 5, 4, 4, 4, 4, 4, 4, 4, 4)
    assert sorted(np10.neighbors(5)) == [1, 3, 4, 6, 8]


def test_reference_graphs():
    het = fixture("HeawoodRef")
    assert het.vertex_count == 14
    assert all(het.degree(v) == 3 for v in het.vertices)
    assert min(len(c) for c in all_cycles(het)) == 6
    pet = fixture("PetersenRef")
    assert all(pet.degree(v) == 3 for v in pet.vertices)
    assert min(len(c) for c in all_cycles(pet)) == 5
    assert not is_planar(pet)


def test_petersen_family_names(petersen):
    names = sorted(r.name for r in petersen.records)
    assert names == sorted(["K6", "P7", "Y7", "K44me", "P8", "P9", "P10"])
    flagged = {r.name for r in petersen.records if r.heuristic_name}
    assert flagged == {"Y7"}


def test_petersen_member_identities(petersen):
    tripartite = from_pairs(
        [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
        + [(7, x) for x in (1, 2, 3, 4, 5, 6)]
    )
    assert is_isomorphic(family_member("P7"), tripartite) is not None
    assert is_isomorphic(family_member("Y7"), delta_y(complete_graph(6), (1, 2, 3))) is not None
    assert is_isomorphic(family_member("P10"), fixture("PetersenRef")) is not None


def test_eight_vertex_members_split_by_bipartiteness(petersen):
    by_name = {r.name: r.graph for r in petersen.records}
    k44me = by_name["K44me"]
    # no odd cycle in one, triangles in the other
    assert min(len(c) for c in all_cycles(k44me)) % 2 == 0
    assert any(len(c) == 3 for c in all_cycles(by_name["P8"]))


def test_heawood_family_names(heawood):
    names = [r.name for r in heawood.records]
    assert len(names) == len(set(names)) == 20
    for rec in heawood.records:
        if rec.name != "K7":
            digits = "".join(ch for ch in rec.name if ch.isdigit())
            assert int(digits) == rec.graph.vertex_count
        assert rec.graph.edge_count == 21


def test_heawood_exceptional_members(heawood):
    outside = {r.name for r in heawood.records if not r.dy_only_reachable}
    assert outside == {"N9", "N10", "N11", "N'10", "N'11", "N'12"}
    for rec in heawood.records:
        assert rec.gamma3_empty == rec.dy_only_reachable


def test_heawood_letter_groups_are_flagged(heawood):
    flagged = {r.name for r in heawood.records if r.heuristic_name}
    assert flagged == {"H9", "F9", "H10", "F10", "E10", "H11", "E11", "C11", "H12", "C12"}


def test_heawood_names_match_fixtures(heawood):
    by_name = {r.name: r.graph for r in heawood.records}
    assert is_isomorphic(by_name["N9"], fixture("N9")) is not None
    assert is_isomorphic(by_name["N'10"], fixture("N'10")) is not None
    assert is_isomorphic(by_name["C14"], fixture("HeawoodRef")) is not None


def test_k3311_family_counts():
    fam = k3311_family()
    assert len(fam.records) == 58
    assert sum(1 for r in fam.records if r.dy_only_reachable) == 26
    assert all(r.graph.edge_count == 22 for r in fam.records)
    assert max(r.graph.vertex_count for r in fam.records) == 14


def test_family_member_unknown_name():
    with pytest.raises(GraphError, match="no family member"):
        family_member("Z9")


def test_cached_family_records_are_frozen():
    import dataclasses

    fam = heawood_family()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.records[0].name = "X"
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.records = ()
    assert heawood_family().records == fam.records
    assert [r.name for r in fam.records][:3] == ["K7", "H8", "H9"]
