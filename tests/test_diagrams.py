"""Exact-rational diagrams and their genericity certification."""

import functools
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs.catalog import d4_reference_diagram, fixture
from spatialgraphs.cycles import all_cycles, cycle_order, cycle_walk, disjoint_cycle_tuples
from spatialgraphs.diagrams import (
    GenericityError,
    SpatialDiagram,
    _cross,
    assign_over_under,
    build_convex_diagram,
    diagram_from_json,
    diagram_to_json,
    extract_gauss,
    random_knot_diagram,
)
from spatialgraphs.invariants import (
    GaussLink,
    Passage,
    a2,
    cycle_a2,
    linking_number,
    pair_lk,
)
from spatialgraphs.multigraph import GraphError, complete_graph, from_pairs


def straight(positions, pairs_by_eid):
    return {eid: (positions[u], positions[v]) for eid, (u, v) in pairs_by_eid.items()}


def test_convex_complete_graph_crossing_counts():
    # chords of a convex drawing cross once per 4-subset
    assert build_convex_diagram(complete_graph(6)).crossing_count == 15
    assert build_convex_diagram(complete_graph(7)).crossing_count == 35


def test_convex_sorted_cycle_has_no_crossings():
    cyc = from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    d = build_convex_diagram(cyc, order=[1, 2, 3, 4])
    assert d.crossing_count == 0


def test_convex_tree_has_no_crossings():
    star = from_pairs([(1, 2), (1, 3), (1, 4), (1, 5)])
    assert build_convex_diagram(star).crossing_count == 0


def test_convex_order_changes_crossings():
    cyc = from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    d = build_convex_diagram(cyc, order=[1, 3, 2, 4])
    assert d.crossing_count == 1


def test_reference_diagram_crossing_count():
    assert d4_reference_diagram().crossing_count == 9


def test_parallel_edges_get_distinct_routes():
    d = build_convex_diagram(fixture("D4"))
    routes = {de.polyline for de in d.edges.values()}
    assert len(routes) == d.graph.edge_count


def test_two_vertices_may_not_coincide():
    g = from_pairs([(1, 2)])
    pos = {1: (0, 0), 2: (0, 0)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, {0: (pos[1], pos[2])})


def test_triple_point_rejected():
    g = from_pairs([(1, 2), (3, 4), (5, 6)])
    pos = {1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1), 5: (-1, -1), 6: (1, 1)}
    with pytest.raises(GenericityError, match="triple point"):
        SpatialDiagram(g, pos, straight(pos, {0: (1, 2), 1: (3, 4), 2: (5, 6)}))


def test_vertex_on_foreign_edge_rejected():
    g = from_pairs([(1, 2), (3, 4)])
    pos = {1: (-1, 0), 2: (1, 0), 3: (0, 0), 4: (0, 1)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, straight(pos, {0: (1, 2), 1: (3, 4)}))


def test_overlapping_collinear_segments_rejected():
    g = from_pairs([(1, 2)])
    pos = {1: (0, 0), 2: (1, 0)}
    with pytest.raises(GenericityError):
        SpatialDiagram(g, pos, {0: ((0, 0), (2, 0), (1, 0))})


def test_collinear_edges_may_meet_at_their_shared_vertex():
    # the two edges of a straight path meet end to end at vertex 2
    g = from_pairs([(1, 2), (2, 3)])
    pos = {1: (0, 0), 2: (1, 0), 3: (2, 0)}
    d = SpatialDiagram(g, pos, {0: (pos[1], pos[2]), 1: (pos[2], pos[3])})
    assert d.crossing_count == 0
    # the same straight path with its second edge drawn toward the middle
    g = from_pairs([(1, 3), (2, 3)])
    pos = {1: (0, 0), 2: (2, 0), 3: (1, 0)}
    d = SpatialDiagram(g, pos, {0: (pos[1], pos[3]), 1: (pos[2], pos[3])})
    assert d.crossing_count == 0


def _edges_on_top(d):
    """Per crossing, the edge that extract_gauss marks as the over strand,
    read off a link of two disjoint cycles, one through each strand."""
    g = d.graph
    # cycle_order starts at the cycle's smallest vertex
    pairs = [sorted(p, key=lambda c: cycle_order(g, c)[0]) for p in disjoint_cycle_tuples(g, 2)]
    tops = []
    for x in d.crossings:
        first, second = next(
            (f, s) for f, s in pairs
            if (x.edge_a in f and x.edge_b in s) or (x.edge_b in f and x.edge_a in s)
        )
        # components come out ordered by smallest vertex, so first is 0
        (p,) = [p for p in extract_gauss(d, [first, second]).components[0] if p.crossing == x.cid]
        strand, other = (x.edge_a, x.edge_b) if x.edge_a in first else (x.edge_b, x.edge_a)
        tops.append(strand if p.over else other)
    return tops


def test_assign_over_under_bits_convention():
    d = build_convex_diagram(complete_graph(6))
    edge_a = [c.edge_a for c in d.crossings]
    edge_b = [c.edge_b for c in d.crossings]
    assert _edges_on_top(assign_over_under(d, bits=0)) == edge_a
    assert _edges_on_top(assign_over_under(d, bits=(1 << 15) - 1)) == edge_b
    assert _edges_on_top(assign_over_under(d, bits=1)) == edge_b[:1] + edge_a[1:]


def test_assign_over_under_rejects_bad_input():
    d = build_convex_diagram(complete_graph(6))
    for bad in (-1, 1 << 15):
        with pytest.raises(GraphError, match="out of range"):
            assign_over_under(d, bits=bad)
    with pytest.raises(GraphError, match="need bits or a seed"):
        assign_over_under(d)


def test_assign_over_under_seeded_is_reproducible():
    d = build_convex_diagram(complete_graph(6))
    a = assign_over_under(d, seed=5)
    b = assign_over_under(d, seed=5)
    c = assign_over_under(d, seed=6)
    assert _edges_on_top(a) == _edges_on_top(b)
    assert _edges_on_top(a) != _edges_on_top(c)


def test_extract_gauss_needs_disjoint_components(n9):
    from spatialgraphs.cycles import parse_cycle

    d = assign_over_under(build_convex_diagram(n9), bits=0)
    tri1 = parse_cycle(n9, "[1 2 3]")
    tri2 = parse_cycle(n9, "[4 5 6]")
    shares_an_edge = parse_cycle(n9, "[1 2 6]")
    link = extract_gauss(d, [tri1, tri2])
    link.validate()
    with pytest.raises(GraphError):
        extract_gauss(d, [tri1, shares_an_edge])
    # two triangles through one vertex share no edge, and have no linking
    # number either
    k6 = complete_graph(6)
    d = assign_over_under(build_convex_diagram(k6), seed=1)
    with pytest.raises(GraphError):
        extract_gauss(d, [parse_cycle(k6, "[1 2 3]"), parse_cycle(k6, "[1 4 5]")])


@pytest.mark.parametrize("labels", [
    [-6, -5, -4, -3, -2, -1],
    [10**12 + i for i in range(6)],
], ids=["negative", "large"])
def test_extract_gauss_takes_any_vertex_labels(labels):
    # labels come from edge-list files; the drawing and the disjointness
    # check depend only on their order, so K6 labelled in the order of
    # 1..6 gives the same linking numbers
    from spatialgraphs.cycles import parse_cycle
    from spatialgraphs.invariants import linking_number

    def lk(g, names, *triangles):
        d = assign_over_under(build_convex_diagram(g), seed=1)
        cycles = [parse_cycle(g, "[%s]" % " ".join(str(names[v - 1]) for v in t))
                  for t in triangles]
        return linking_number(extract_gauss(d, cycles))

    k6 = complete_graph(6, labels)
    for pair in (((1, 2, 3), (4, 5, 6)), ((1, 3, 5), (2, 4, 6)), ((1, 2, 4), (3, 5, 6))):
        assert lk(k6, labels, *pair) == lk(complete_graph(6), range(1, 7), *pair)
    with pytest.raises(GraphError):
        lk(k6, labels, (1, 2, 3), (1, 4, 5))


def test_json_round_trip_preserves_crossings():
    d = assign_over_under(build_convex_diagram(complete_graph(6)), seed=3)
    back = diagram_from_json(diagram_to_json(d))
    assert back.crossing_count == d.crossing_count
    assert _edges_on_top(back) == _edges_on_top(d)
    assert back.positions == d.positions


# sha256 of diagram_to_json, recorded with the per-crossing over flags the
# mask replaced; the JSON records of a mask must stay byte-identical
JSON_PINS = {
    "K6 seed 3": "5769c28f91e37119e0600291282ed067b4b73e42afcc1499f3f629766301dd81",
    "D4ref mask 0b101100101": "43f9faf1291cdfd35f3f7fb0a3a3f7fc4e840ef43ca91b490a5cc245b217d918",
}


def test_json_matches_pins():
    diagrams = {
        "K6 seed 3": assign_over_under(build_convex_diagram(complete_graph(6)), seed=3),
        "D4ref mask 0b101100101": assign_over_under(d4_reference_diagram(), 0b101100101),
    }
    for name, d in diagrams.items():
        text = diagram_to_json(d)
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_PINS[name], name
        assert diagram_to_json(diagram_from_json(text)) == text


def test_random_knot_diagram_is_deterministic():
    d1, cyc1 = random_knot_diagram(seed=11)
    d2, cyc2 = random_knot_diagram(seed=11)
    assert cyc1 == cyc2
    assert extract_gauss(d1, [cyc1]) == extract_gauss(d2, [cyc2])
    assert 2 <= d1.crossing_count <= 16


# -- compiled signs and walks against the geometry ----------------------------------


def _geometric_gauss(d, comps):
    """Gauss code read straight off the geometry: walk every cycle with
    cycle_walk and sign every crossing by the Fraction cross product of the
    walked over and under directions."""
    walks = {c: cycle_walk(d.graph, c) for c in map(frozenset, comps)}
    comps = sorted(walks, key=lambda c: (walks[c][0][0], sorted(c)))
    chosen = frozenset().union(*comps)
    per_edge = {e: [] for e in d.edges}
    for c in d.crossings:
        per_edge[c.edge_a].append((c.param_a, c.cid, "a"))
        per_edge[c.edge_b].append((c.param_b, c.cid, "b"))
    walk_dirs, sequences = {}, []
    for comp in comps:
        seq = []
        for tail, eid in walks[comp]:
            forward = d.graph.endpoints(eid)[0] == tail
            walk_dirs[eid] = 1 if forward else -1
            for _, cid, side in sorted(per_edge[eid], reverse=not forward):
                c = d.crossings[cid]
                if (c.edge_b if side == "a" else c.edge_a) in chosen:
                    seq.append((cid, side))
        sequences.append(seq)
    out = []
    for seq in sequences:
        passages = []
        for cid, side in seq:
            c = d.crossings[cid]
            over = "b" if d.mask >> cid & 1 else "a"
            da = (c.dir_a[0] * walk_dirs[c.edge_a], c.dir_a[1] * walk_dirs[c.edge_a])
            db = (c.dir_b[0] * walk_dirs[c.edge_b], c.dir_b[1] * walk_dirs[c.edge_b])
            d_over, d_under = (da, db) if over == "a" else (db, da)
            passages.append(Passage(cid, side == over, 1 if _cross(d_over, d_under) > 0 else -1))
        out.append(tuple(passages))
    return GaussLink(tuple(out))


def _scope_items(g):
    """Every cycle alone and every disjoint pair, in a fixed order."""
    return [[c] for c in all_cycles(g)] + [list(p) for p in disjoint_cycle_tuples(g, 2)]


@functools.cache
def _projection(name):
    d = d4_reference_diagram() if name == "D4ref" else build_convex_diagram(fixture(name), seed=0)
    return d, _scope_items(d.graph)


_SHAPES = ("K6", "K7", "N9", "D4ref")


@st.composite
def _masks(draw, names=_SHAPES):
    name = draw(st.sampled_from(names))
    base, _ = _projection(name)
    return name, draw(st.integers(0, (1 << base.crossing_count) - 1))


@st.composite
def _trials(draw):
    name, mask = draw(_masks())
    base, items = _projection(name)
    return base, mask, draw(st.sampled_from(items))


@settings(deadline=None, max_examples=80)
@given(_trials())
def test_compiled_gauss_matches_geometry(trial):
    base, mask, item = trial
    clone = assign_over_under(base, mask)
    link = extract_gauss(clone, item)
    assert link == _geometric_gauss(clone, item)
    # a freshly built diagram starts with an empty memo, so a memo filled
    # by earlier clones of base cannot hand this one their over/under state
    assert link == extract_gauss(diagram_from_json(diagram_to_json(clone)), item)


def test_pickled_half_filled_base_gives_identical_codes():
    base = build_convex_diagram(fixture("K6"))
    items = _scope_items(base.graph)
    for item in items[::2]:
        extract_gauss(assign_over_under(base, seed=1), item)
    assert base._memo  # clones fill the memo of the projection they share
    copy = pickle.loads(pickle.dumps(base))
    for seed in (2, 3):
        for item in items:
            expected = _geometric_gauss(assign_over_under(base, seed=seed), item)
            assert extract_gauss(assign_over_under(copy, seed=seed), item) == expected
            assert extract_gauss(assign_over_under(base, seed=seed), item) == expected


def _compiled(d, item):
    return cycle_a2(d, *item) if len(item) == 1 else pair_lk(d, *item)


def _from_gauss(d, item):
    link = extract_gauss(d, item)
    return a2(link) if len(item) == 1 else linking_number(link)


@functools.cache
def _half_filled_copy(name):
    """A pickled copy of name's projection, taken after its clones compiled
    the forms of every other scope item into the memo they share."""
    base, items = _projection(name)
    fresh = diagram_from_json(diagram_to_json(base))
    for item in items[::2]:
        _compiled(assign_over_under(fresh, seed=1), item)
    return pickle.loads(pickle.dumps(fresh))


@settings(deadline=None, max_examples=30)
@given(_masks(_SHAPES + ("N'10", "PetersenRef")))
def test_compiled_forms_match_gauss_codes(trial):
    name, mask = trial
    base, items = _projection(name)
    clone = assign_over_under(base, mask)
    # a freshly built diagram compiles every form anew; the pickled copy
    # reads half of them from its memo
    fresh = diagram_from_json(diagram_to_json(clone))
    copied = assign_over_under(_half_filled_copy(name), mask)
    for item in items:
        expected = _from_gauss(clone, item)
        assert _compiled(fresh, item) == expected, item
        assert _compiled(copied, item) == expected, item
