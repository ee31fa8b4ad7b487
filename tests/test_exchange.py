"""Triangle-star exchanges and closure under them."""

import functools
import json

import pytest

from spatialgraphs.canon import is_isomorphic
from spatialgraphs.catalog import family_member, fixture
from spatialgraphs.cycles import gamma3_empty
from spatialgraphs.exchange import (
    ExchangeSiteError,
    _triangle_edges,
    closure,
    delta_y,
    replay_provenance,
    triangles,
    write_manifest,
    y_delta,
    y_delta_preserves_edges,
)
from spatialgraphs.multigraph import complete_graph, from_pairs, parse_edge_list, simplify


def test_triangle_enumeration():
    assert len(triangles(complete_graph(4))) == 4
    assert len(triangles(complete_graph(6))) == 20
    star = from_pairs([(1, 2), (1, 3), (1, 4)])
    assert triangles(star) == ()


def test_delta_y_shape():
    g = delta_y(complete_graph(4), (1, 2, 3))
    assert g.vertex_count == 5
    assert g.edge_count == 6
    k23 = from_pairs([(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
    assert is_isomorphic(g, k23) is not None


def test_delta_y_k6_is_the_flagged_member():
    g = delta_y(complete_graph(6), (1, 2, 3))
    assert is_isomorphic(g, family_member("Y7")) is not None


@pytest.mark.parametrize("name", ["K6", "K7", "N9"])
def test_delta_y_keeps_every_edge_off_the_triangle(name):
    # phi_maps maps a cycle that misses the triangle to itself, unchecked
    g = fixture(name)
    for t in triangles(g):
        tri = set(_triangle_edges(g, t))
        kept = set(delta_y(g, t).edges)
        assert all(e in kept for e in g.edges if e[0] not in tri)


def test_delta_y_rejects_missing_triangle():
    for g, site in (
        (from_pairs([(1, 2), (2, 3)]), (1, 2, 3)),
        (from_pairs([(1, 2), (2, 2), (1, 3)]), (1, 2, 2)),  # the loop at 2 is no triangle edge
        (complete_graph(4), (1, 2)),
    ):
        with pytest.raises(ExchangeSiteError):
            delta_y(g, site)


def test_y_delta_keeps_loops_and_parallels():
    # K3,3 with a loop, or a parallel edge, away from the exchanged star
    k33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    for extra in ((2, 2), (2, 4)):
        g = from_pairs(k33 + [extra])
        assert y_delta_preserves_edges(g, 1)
        h = y_delta(g, 1)
        assert h.edge_count == g.edge_count
        assert {e for e in g.edges if 1 not in e[1:]} <= set(h.edges)


def test_y_delta_undoes_delta_y():
    k6 = complete_graph(6)
    g = delta_y(k6, (1, 2, 3))
    fresh = max(g.vertices)
    back = y_delta(g, fresh)
    assert is_isomorphic(simplify(back), k6) is not None


def test_y_delta_needs_degree_three():
    with pytest.raises(ExchangeSiteError):
        y_delta(complete_graph(5), 1)


def test_y_delta_edge_count_predicate():
    k6 = complete_graph(6)
    g = delta_y(k6, (1, 2, 3))
    fresh = max(g.vertices)
    # reversing right away recreates no parallel edge, so counts survive
    assert y_delta_preserves_edges(g, fresh)
    h = delta_y(complete_graph(4), (1, 2, 3))
    # here vertex 4 still sees all three corners, so the reverse at the
    # fresh vertex duplicates nothing either, but the corner stars overlap
    assert y_delta_preserves_edges(h, max(h.vertices))


def test_closure_of_k6():
    res = closure(complete_graph(6))
    assert len(res.records) == 7
    assert sorted(r.graph.vertex_count for r in res.records) == [6, 7, 7, 8, 8, 9, 10]
    assert all(r.graph.edge_count == 15 for r in res.records)


def test_closure_moves_are_the_distinct_kinds_in_order():
    # however the kinds are ordered or repeated, they name one closure
    k6 = complete_graph(6)
    plain = closure(k6)
    assert plain.moves == ("dy", "yd")
    for moves in (("yd", "dy", "yd"), ("yd", "dy"), ["dy", "dy", "yd"]):
        res = closure(k6, moves)
        assert res.moves == ("dy", "yd")
        assert (res.records, res.transitions) == (plain.records, plain.transitions)
    assert closure(k6, ("yd", "yd")).moves == ("yd",)
    assert closure(k6, ()).moves == ()


def test_closure_dy_only_is_smaller():
    res = closure(complete_graph(7), moves=("dy",))
    assert len(res.records) == 14


def _flag_seed(name):
    return complete_graph(5) if name == "K5" else fixture(name)


@functools.lru_cache(maxsize=None)
def _dy_only_certificates(name):
    return {r.certificate.hex for r in closure(_flag_seed(name), moves=("dy",)).records}


@pytest.mark.parametrize("moves", [("dy", "yd"), ("dy",), ("yd",)])
@pytest.mark.parametrize("seed", ["K6", "K7", "K3311", "N9", "K5"])
def test_closure_flags_match_separate_searches(seed, moves):
    # the flags one closure sets from its discovery paths agree with a
    # separate triangle-to-star-only closure and with each member's cycles
    res = closure(_flag_seed(seed), moves)
    dy_only = _dy_only_certificates(seed)
    flagged = {r.certificate.hex for r in res.records if r.dy_only_reachable}
    assert flagged == dy_only & set(res.by_certificate())
    if "dy" in moves:
        assert flagged == dy_only
    else:
        assert flagged == {res.seed_certificate.hex}
    for rec in res.records:
        assert isinstance(rec.dy_only_reachable, bool)
        assert rec.gamma3_empty is gamma3_empty(rec.graph)


def test_closure_records_replayable_provenance():
    k6 = complete_graph(6)
    res = closure(k6)
    for rec in res.records:
        g = replay_provenance(k6, rec.provenance)
        assert is_isomorphic(g, rec.graph) is not None


def test_manifest_round_trip(tmp_path, petersen):
    out = tmp_path / "family"
    write_manifest(petersen, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["collapse_convention"] == "skip"
    assert len(manifest["members"]) == 7
    for rec in petersen.records:
        text = (out / f"{rec.name}.edges").read_text()
        g = parse_edge_list(text)
        assert is_isomorphic(g, rec.graph) is not None


def test_manifest_fallback_names_stay_distinct(tmp_path):
    # unnamed records with equal vertex counts must not share a file
    res = closure(complete_graph(6))
    out = tmp_path / "raw"
    write_manifest(res, out)
    edge_files = sorted(p.name for p in out.glob("*.edges"))
    assert len(edge_files) == 7
