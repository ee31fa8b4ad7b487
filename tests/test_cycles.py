"""Cycle enumeration, disjoint cycle systems and their vertex supports."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs.catalog import (
    family_member,
    fixture,
    fixture_names,
    heawood_family,
    k3311_family,
    petersen_family,
)
from spatialgraphs.cycles import (
    all_cycles,
    cycle_order,
    cycle_walk,
    disjoint_cycle_tuples,
    disjoint_tuples_among,
    format_cycle,
    gamma3_empty,
    has_disjoint_cycles,
    minimal_supports,
    parse_cycle,
    vertex_masks,
)
from spatialgraphs.exchange import _triangle_edges, delta_y, phi_maps, triangles
from spatialgraphs.multigraph import (
    GraphError,
    MultiGraph,
    UnknownEdgeError,
    complete_graph,
    from_pairs,
)


def tuples_as_text(g, tuples):
    return {frozenset(format_cycle(g, c) for c in t) for t in tuples}


def test_k4_cycle_count():
    assert len(all_cycles(complete_graph(4))) == 7


def test_k7_cycle_count():
    assert len(all_cycles(complete_graph(7))) == 1172


def test_k7_hamiltonian_cycle_count():
    k7 = complete_graph(7)
    assert sum(1 for c in all_cycles(k7) if len(cycle_order(k7, c)) == 7) == 360


def test_disjoint_pair_counts():
    assert len(disjoint_cycle_tuples(complete_graph(6), 2)) == 10
    assert len(disjoint_cycle_tuples(complete_graph(7), 2)) == 175


def test_k7_has_no_disjoint_triple():
    k7 = complete_graph(7)
    assert gamma3_empty(k7)
    assert not has_disjoint_cycles(k7, 3)
    assert disjoint_cycle_tuples(k7, 3) == ()


def test_multigraph_cycles_include_bigons():
    d4 = fixture("D4")
    cycles = all_cycles(d4)
    assert len(cycles) == 20
    bigons = [c for c in cycles if len(cycle_order(d4, c)) == 2]
    assert len(bigons) == 4
    assert len(disjoint_cycle_tuples(d4, 2)) == 2


def test_disjoint_pair_counts_across_family():
    expected = {"P7": 9, "Y7": 9, "K44me": 9, "P8": 8, "P9": 7, "P10": 6}
    for name, count in expected.items():
        assert len(disjoint_cycle_tuples(family_member(name), 2)) == count


def test_n9_has_a_disjoint_triple(n9):
    triples = tuples_as_text(n9, disjoint_cycle_tuples(n9, 3))
    assert frozenset(["[1 2 3]", "[4 5 6]", "[7 8 9]"]) in triples


def test_cycle_text_round_trip(n9):
    for cyc in sorted(all_cycles(n9))[:40]:
        text = format_cycle(n9, cyc)
        assert parse_cycle(n9, text) == cyc


def test_cycle_order_starts_at_smallest(n9):
    cyc = parse_cycle(n9, "[1 2 8 5]")
    order = cycle_order(n9, cyc)
    assert order[0] == 1
    # tie between the two neighbors is broken toward the smaller label
    assert order[1] < order[-1]


def test_parse_cycle_rejects_non_cycles(n9):
    k6 = complete_graph(6)
    for g, text in (
        (n9, "[1 2 4]"),  # no edge 2-4
        (k6, "[1 2 3 1 4 5]"),  # a bowtie through 1
        (k6, "[1 2 1 2]"),  # one edge walked back and forth
        (from_pairs([(1, 1), (1, 1), (1, 2)]), "[1 1]"),  # two loops at 1
        (complete_graph(4), "[1 2 x]"),  # a label that is not an integer
        (complete_graph(4), "[- ]"),
    ):
        with pytest.raises(GraphError):
            parse_cycle(g, text)


def test_phi_map_rejects_images_outside_its_codomain(monkeypatch):
    # drop one tuple from the codomain (the exchanged K6 has 7 vertices):
    # every codomain tuple is an image, so the membership check must raise
    def short_codomain(g, cycles, n):
        found = disjoint_tuples_among(g, cycles, n)
        return found[1:] if g.vertex_count == 7 else found

    monkeypatch.setattr("spatialgraphs.exchange.disjoint_tuples_among", short_codomain)
    with pytest.raises(GraphError):
        dict(phi_maps(complete_graph(6)))


def test_phi_map_small_example():
    res = dict(phi_maps(complete_graph(4)))[(1, 2, 3), 1]
    assert res.surjective
    assert res.max_fiber == 2
    assert len(res.fibers) == 3


def test_phi_map_on_k7_triangles_bounded_fibers():
    maps = dict(phi_maps(complete_graph(7)))
    for n in (1, 2):
        res = maps[(1, 2, 3), n]
        assert res.surjective
        assert res.max_fiber <= 2


def test_phi_map_counts_match_exchange():
    # pairs of the source that avoid the full triangle map onto pairs of the
    # exchanged graph; the one triangle-containing pair of K6 is dropped
    k6 = complete_graph(6)
    res = dict(phi_maps(k6))[(1, 2, 3), 2]
    assert len(res.mapping) == len(disjoint_cycle_tuples(k6, 2)) - 1
    assert res.surjective
    assert len(res.fibers) == len(disjoint_cycle_tuples(res.exchanged, 2)) == 9
    assert sum(len(f) for f in res.fibers.values()) == len(res.mapping)


# -- one walk per cycle, checked against the two walks it replaced ------------------


def _old_cycle_order(g, cycle):
    ids = sorted(cycle)
    if len(ids) == 1:
        u, v = g.endpoints(ids[0])
        if u != v:
            raise GraphError("single non-loop edge is not a cycle")
        return [u]
    if len(ids) == 2:
        u, v = g.endpoints(ids[0])
        return sorted((u, v))
    incid = {}
    for eid in ids:
        u, v = g.endpoints(eid)
        incid.setdefault(u, []).append((eid, v))
        incid.setdefault(v, []).append((eid, u))
    start = min(incid)
    target = sorted(w for _, w in incid[start])[0]
    order = [start]
    for eid, w in sorted(incid[start]):
        if w == target:
            prev_edge = eid
            break
    here = target
    while here != start:
        order.append(here)
        for eid, w in sorted(incid[here]):
            if eid != prev_edge:
                prev_edge = eid
                here = w
                break
    return order


def _old_component_walk(g, cycle):
    ids = sorted(cycle)
    if len(ids) == 1:
        return [(ids[0], True)]
    if len(ids) == 2:
        return [(ids[0], True), (ids[1], False)]
    order = _old_cycle_order(g, cycle)
    remaining = set(ids)
    out = []
    for a, b in zip(order, order[1:] + order[:1]):
        key = (a, b) if a <= b else (b, a)
        eid = min(e for e in remaining if tuple(sorted(g.endpoints(e))) == key)
        remaining.discard(eid)
        out.append((eid, g.endpoints(eid)[0] == a))
    return out


def _assert_walks_match_oracle(g):
    for cycle in all_cycles(g):
        walk = cycle_walk(g, cycle)
        assert [v for v, _ in walk] == cycle_order(g, cycle) == _old_cycle_order(g, cycle)
        directed = [(eid, g.endpoints(eid)[0] == v) for v, eid in walk]
        assert directed == _old_component_walk(g, cycle)


@st.composite
def small_multigraphs(draw):
    """Up to 8 vertices with arbitrary labels; loops and parallel edges occur."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(-3, 30), min_size=n, max_size=n, unique=True))
    ends = st.sampled_from(labels)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    return from_pairs(pairs, vertices=labels)


@settings(max_examples=200, deadline=None)
@given(small_multigraphs())
def test_cycle_walk_matches_old_walks(g):
    _assert_walks_match_oracle(g)


def test_cycle_walk_matches_old_walks_on_families_and_fixtures():
    graphs = [r.graph for fam in (petersen_family(), heawood_family(), k3311_family())
              for r in fam.records]
    graphs += [g for g in map(fixture, fixture_names()) if isinstance(g, MultiGraph)]
    for g in graphs:
        _assert_walks_match_oracle(g)


def test_cycle_walk_rejects_non_cycles(n9):
    with pytest.raises(GraphError):
        cycle_walk(n9, frozenset(n9.edges_between(1, 2)))
    for pairs in (
        [(1, 2), (2, 3), (3, 4), (2, 5), (5, 3)],  # a dead end
        [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)],  # two triangles at 1
        [(1, 2), (2, 3), (3, 4), (4, 2)],  # a tail into a triangle
        [(1, 2), (2, 3), (3, 4), (2, 4), (1, 2)],  # closes only by revisiting 2
    ):
        g = from_pairs(pairs)
        with pytest.raises(GraphError):
            cycle_walk(g, frozenset(g.edge_ids()))
    with pytest.raises(GraphError):
        cycle_walk(n9, frozenset())


def _is_cycle(g, edge_ids):
    """Connected and every vertex of the subgraph has degree exactly 2."""
    ids = set(edge_ids)
    if not ids:
        return False
    deg = {}
    for eid in ids:
        try:
            u, v = g.endpoints(eid)
        except UnknownEdgeError:
            return False
        deg[u] = deg.get(u, 0) + (2 if u == v else 1)
        if u != v:
            deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity over the support
    verts = sorted(deg)
    start = verts[0]
    seen = {start}
    frontier = [start]
    adj = {v: set() for v in verts}
    for eid in ids:
        u, v = g.endpoints(eid)
        adj[u].add(v)
        adj[v].add(u)
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == len(verts)


@settings(max_examples=200, deadline=None)
@given(small_multigraphs(), st.data())
def test_cycle_walk_succeeds_exactly_on_cycles(g, data):
    subset = frozenset(data.draw(st.sets(st.sampled_from(g.edge_ids()))) if g.edge_count else ())
    try:
        cycle_walk(g, subset)
    except GraphError:
        walked = False
    else:
        walked = True
    assert walked == _is_cycle(g, subset)


def _old_phi_map(g, triangle, n):
    """(mapping, fibers, surjective, max_fiber) with each image component
    checked by ``_is_cycle``, as the cycle map did before its codomain check."""
    gy = delta_y(g, triangle)
    tri_set = frozenset(_triangle_edges(g, triangle))
    x = max(gy.vertices)
    star_eid = {}
    for eid, u, v in gy.edges:
        if u == x or v == x:
            star_eid[u if v == x else v] = eid
    mapping = {}
    for t in disjoint_cycle_tuples(g, n):
        if tri_set <= frozenset().union(*t):
            continue
        image = []
        for comp in t:
            hit = comp & tri_set
            if not hit:
                image.append(comp)
                continue
            ends = set()
            for eid in hit:
                ends ^= set(g.endpoints(eid))
            part = (comp - hit) | {star_eid[c] for c in ends}
            if not _is_cycle(gy, part):
                raise GraphError("triangle exchange image is not a cycle")
            image.append(part)
        mapping[t] = frozenset(image)
    fibers = {}
    for t, img in mapping.items():
        fibers.setdefault(img, []).append(t)
    fib = {k: tuple(v) for k, v in fibers.items()}
    surjective = set(fib) == set(map(frozenset, disjoint_cycle_tuples(gy, n)))
    max_fiber = max((len(v) for v in fib.values()), default=0)
    return mapping, fib, surjective, max_fiber


@st.composite
def multigraphs_with_a_triangle(draw):
    """small_multigraphs with a triangle added on three of its vertices."""
    g = draw(small_multigraphs().filter(lambda h: h.vertex_count >= 3))
    a, b, c = draw(st.lists(st.sampled_from(g.vertices), min_size=3, max_size=3, unique=True))
    pairs = [(u, v) for _, u, v in g.edges] + [(a, b), (b, c), (c, a)]
    return from_pairs(pairs, vertices=g.vertices)


@settings(max_examples=150, deadline=None)
@given(multigraphs_with_a_triangle())
def test_phi_map_matches_old_phi_map(g):
    # one result per triangle orbit, for the first triangle of its orbit;
    # the orbits partition the triangles (tests/test_orbit_pruning.py checks
    # that they are the automorphism orbits)
    maps = dict(phi_maps(g))
    orbits = [res.orbit for (_, n), res in maps.items() if n == 1]
    assert list(maps) == [(orbit[0], n) for orbit in orbits for n in (1, 2)]
    assert sorted(t for orbit in orbits for t in orbit) == sorted(triangles(g))
    for (t, n), res in maps.items():
        assert (res.mapping, res.fibers, res.surjective, res.max_fiber) == _old_phi_map(g, t, n)


@settings(max_examples=200, deadline=None)
@given(small_multigraphs())
def test_disjoint_cycle_search_matches_brute_force(g):
    found = all_cycles(g)
    assert found == tuple(sorted(found, key=sorted))
    verts = {c: {v for eid in c for v in g.endpoints(eid)} for c in found}
    for n in (1, 2, 3):
        expected = tuple(
            combo for combo in combinations(found, n)
            if all(not (verts[a] & verts[b]) for a, b in combinations(combo, 2))
        )
        tuples = disjoint_cycle_tuples(g, n)
        assert tuples == expected
        assert has_disjoint_cycles(g, n) == bool(tuples)


def test_disjoint_cycle_search_rejects_n_below_one():
    k4 = complete_graph(4)
    with pytest.raises(GraphError):
        has_disjoint_cycles(k4, 0)
    with pytest.raises(GraphError):
        disjoint_cycle_tuples(k4, 0)


# -- minimal vertex supports --------------------------------------------------------


def _assert_minimal_supports_match_cycles(g):
    masks = set(vertex_masks(g, all_cycles(g)))
    minimal = {m for m in masks if not any(o != m and o & m == o for o in masks)}
    supports = minimal_supports(g)
    assert len(supports) == len(set(supports))
    assert set(supports) <= masks  # every support is the mask of some cycle
    assert set(supports) == minimal


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_minimal_supports_are_the_minimal_cycle_masks(g):
    _assert_minimal_supports_match_cycles(g)


def test_minimal_supports_on_families():
    for fam in (petersen_family(), heawood_family(), k3311_family()):
        for r in fam.records:
            _assert_minimal_supports_match_cycles(r.graph)
    # K7: 1,172 cycles on 99 supports; its 35 triangles are the minimal ones
    assert len(minimal_supports(complete_graph(7))) == 35


# sha256 of the sorted "<certificate hex> <gamma3_empty as 0/1>" lines of the
# 85 members of the three families, recorded with the search over all cycles
GAMMA3_PIN = "1e2fb203b1347c79dd865e4c004a2afeae1d05cadc80a6cc9638469d292aa268"


def test_gamma3_empty_matches_pin():
    lines = sorted(
        f"{r.certificate.hex} {int(gamma3_empty(r.graph))}"
        for fam in (petersen_family(), heawood_family(), k3311_family())
        for r in fam.records
    )
    assert len(lines) == 85
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GAMMA3_PIN
