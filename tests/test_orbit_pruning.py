"""Reductions, apex searches, the exchange closure and the triangle-exchange
cycle map, which do the work of one member of each automorphism orbit,
against the exhaustive routes they replaced; and the vertex sets a graph
that is not k-apex settles in its reductions' apex searches.

The oracles below are copies of those routes: every edge and vertex
reduced and canonicalised, every vertex set tried for planarity, every
one-step reduction tested for 2-apexness, every exchange's child
canonicalised, and the cycle map built for every triangle.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs import canon, planarity
from spatialgraphs.canon import canonical_form
from spatialgraphs.catalog import fixture, heawood_family
from spatialgraphs.claims import claim_apex_proper_minors
from spatialgraphs.cycles import all_cycles, disjoint_tuples_among, gamma3_empty
from spatialgraphs.exchange import (
    ClosureResult,
    ExchangeSiteError,
    FamilyRecord,
    Move,
    Transition,
    _triangle_edges,
    closure,
    delta_y,
    phi_maps,
    triangles,
    y_delta,
    y_delta_preserves_edges,
)
from spatialgraphs.minors import one_step_reductions
from spatialgraphs.multigraph import (
    GraphError,
    MultiGraph,
    complete_graph,
    contract_edge,
    delete_edge,
    delete_vertex,
    from_pairs,
    simplify,
)
from spatialgraphs.planarity import all_proper_minors_2apex, apex_witness, is_planar

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
K6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
K7 = [(a, b) for a in range(7) for b in range(a + 1, 7)]


def _old_one_step_reductions(g: MultiGraph):
    out = []
    seen = set()

    def push(label, graph):
        cert = canonical_form(graph).blob
        if cert not in seen:
            seen.add(cert)
            out.append((label, graph))

    for eid, u, v in g.edges:
        push(f"delete edge {u}-{v} (id {eid})", delete_edge(g, eid))
    for eid, u, v in g.edges:
        if u != v:
            push(f"contract edge {u}-{v} (id {eid})", simplify(contract_edge(g, eid)))
    for v in g.vertices:
        push(f"delete vertex {v}", delete_vertex(g, v))
    return out


def _old_apex_witness(g: MultiGraph, k: int):
    if is_planar(g):
        return frozenset()
    order = sorted(g.vertices, key=lambda v: (-len(g.neighbors(v)), v))
    for size in range(1, k + 1):
        for combo in combinations(order, size):
            if is_planar(g, frozenset(combo)):
                return frozenset(combo)
    return None


def _old_all_proper_minors_2apex(g: MultiGraph):
    failures = []
    for label, graph in _old_one_step_reductions(g):
        if _old_apex_witness(graph, 2) is None:
            failures.append(label)
    return (_old_apex_witness(g, 2), failures)


@st.composite
def apex_multigraphs(draw, pieces=st.lists(st.sampled_from([K5, K33, K6]), min_size=1, max_size=2)):
    """Disjoint unions of non-planar pieces, by default one or two of K5,
    K3,3 and K6, and small extras, with loops, parallel edges and isolated
    vertices.

    K6 needs two vertices deleted before it is planar, K5 and K3,3 one, so
    some unions are not 2-apex and some of their reductions fail too.  Labels
    are shuffled so that label order and degree order disagree.
    """
    pieces = draw(pieces)
    pairs, n = [], 0
    for piece in pieces:
        pairs += [(n + a, n + b) for a, b in piece]
        n += max(max(p) for p in piece) + 1
    n += draw(st.integers(0, 2))
    ends = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=4))
    labels = draw(st.permutations(range(10, 10 + n)))
    return from_pairs([(labels[u], labels[v]) for u, v in pairs], vertices=labels)


def _same_reductions(g):
    new, old = one_step_reductions(g), _old_one_step_reductions(g)
    assert [label for _, _, label, _ in new] == [label for label, _ in old]
    assert [canonical_form(h) for *_, h in new] == [canonical_form(h) for _, h in old]
    assert [h for *_, h in new] == [h for _, h in old]
    # the kind and the removed edge or vertex are the ones the label names
    for kind, item, label, _ in new:
        if kind == "delete vertex":
            assert label == f"delete vertex {item}"
        else:
            u, v = g.endpoints(item)
            assert label == f"{kind} {u}-{v} (id {item})"


@settings(max_examples=20, deadline=None)
@given(apex_multigraphs())
def test_reductions_match_every_edge_and_vertex_reduced(g):
    _same_reductions(g)


@settings(max_examples=60, deadline=None)
@given(apex_multigraphs())
def test_apex_witness_matches_every_set_tried(g):
    for k in range(3):
        assert apex_witness(g, k) == _old_apex_witness(g, k)


@settings(max_examples=15, deadline=None)
@given(apex_multigraphs())
def test_proper_minor_check_matches_every_reduction_checked(g):
    assert all_proper_minors_2apex(g) == _old_all_proper_minors_2apex(g)


def test_two_k6_have_failing_reductions():
    g = from_pairs(K6 + [(a + 6, b + 6) for a, b in K6])
    _same_reductions(g)
    witness, failures = all_proper_minors_2apex(g)
    assert (witness, failures) == _old_all_proper_minors_2apex(g)
    assert witness is None
    _check_settled_sets(g)
    # deleting vertex 0 gives K5 ⊔ K6 again, as contracting edge 0-1 did
    assert failures == ["delete edge 0-1 (id 0)", "contract edge 0-1 (id 0)"]


@pytest.mark.parametrize("g", [complete_graph(7), complete_graph(6)], ids=["K7", "K6"])
def test_complete_graphs(g):
    _same_reductions(g)
    for k in range(4):
        assert apex_witness(g, k) == _old_apex_witness(g, k)
    assert all_proper_minors_2apex(g) == _old_all_proper_minors_2apex(g)


# -- the sets a member that is not k-apex settles in its reductions -------------


def _every_reduction(g: MultiGraph):
    """(h, ends) for every edge deletion, contraction and vertex deletion h
    of g, none pruned or deduplicated; ends holds the endpoints of the edge
    an edge deletion removes, and is empty for the other reductions."""
    for eid, u, v in g.edges:
        yield delete_edge(g, eid), frozenset((u, v))
        if u != v:
            yield simplify(contract_edge(g, eid)), frozenset()
    for v in g.vertices:
        yield delete_vertex(g, v), frozenset()


def _check_settled_sets(g: MultiGraph) -> list[int]:
    """For the k in (1, 2) at which g is not k-apex, and each reduction h:
    h - S is non-planar for every S of at most k vertices with |S| < k or S
    meeting the deleted edge's ends.  When g is not 2-apex, h's search at 2,
    not testing those sets, finds apex_witness's witness.  Returns those k."""
    ks = [k for k in (1, 2) if _old_apex_witness(g, k) is None]
    for h, ends in _every_reduction(g):
        settled = {s for k in ks for size in range(k + 1)
                   for s in map(frozenset, combinations(h.vertices, size))
                   if size < k or s & ends}
        assert not any(is_planar(h, s) for s in settled)
        if 2 in ks:
            assert planarity._apex_search(h, 2, 2, ends) == apex_witness(h, 2)
    return ks


# K7 is not 2-apex, K6 and two of K5, K3,3 are not 1-apex; the larger
# K6 ⊔ K6 is checked in test_two_k6_have_failing_reductions
@settings(max_examples=15, deadline=None)
@given(apex_multigraphs(st.sampled_from([[K7], [K6], [K5, K5], [K5, K33], [K33, K33]])))
def test_sets_settled_by_a_member_are_non_planar(g):
    _check_settled_sets(g)


def test_sets_settled_by_heawood_members_are_non_planar():
    # K7 and N9 among them; none is 2-apex
    for r in heawood_family().records:
        assert _check_settled_sets(r.graph) == [1, 2]


def test_settled_sets_join_the_failed_orbits(monkeypatch):
    """K7 with a loop at 0 is not 2-apex.  Deleting the loop gives K7, and
    the loop's end settles {0, 1}, whose orbit holds every 2-set: the check
    tests 8 sets in all, and 9 if a settled set's orbit were not kept."""
    g = from_pairs(K7 + [(0, 0)])
    calls = []
    test = planarity.is_planar
    monkeypatch.setattr(planarity, "is_planar", lambda *args: calls.append(args) or test(*args))
    assert all_proper_minors_2apex(g) == (None, ["delete edge 0-0 (id 21)"])
    assert len(calls) == 8
    assert all_proper_minors_2apex(g) == _old_all_proper_minors_2apex(g)


@settings(max_examples=15, deadline=None)
@given(apex_multigraphs().filter(lambda g: apex_witness(g, 2) is not None))
def test_proper_minor_check_of_two_apex_graphs_settles_nothing(g):
    assert all_proper_minors_2apex(g) == _old_all_proper_minors_2apex(g)


def test_apex_proper_minors_work_is_pinned(monkeypatch):
    """The claim's planarity tests and canonical searches over the Heawood
    family; a lost orbit pruning raises them (4,340 and 1,050 without), and
    testing the sets each member settles in its reductions takes 1,914.
    Of the 541 planarity tests, 295 are decided on the kernel by a size or
    edge-count bound and 246 go to the path-addition test (all 541 without
    the bounds)."""
    heawood_family()  # built and canonicalised outside the count
    counts = {"is_planar": 0, "_canonical": 0, "_embedding": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    counting(planarity, "is_planar")
    counting(planarity, "_embedding")
    counting(canon, "_canonical")
    ok, evidence = claim_apex_proper_minors(None, 0, 1)
    assert ok and len(evidence["members"]) == 20
    assert counts == {"is_planar": 541, "_canonical": 248, "_embedding": 246}


# -- the exchange closure and the cycle map, one member per orbit ---------------


def _old_closure(seed: MultiGraph, moves=("dy", "yd")) -> ClosureResult:
    move_set = tuple(moves)
    for m in move_set:
        if m not in ("dy", "yd"):
            raise GraphError(f"unknown move kind {m!r}")

    def record(cert, g, provenance):
        dy_only = all(m.kind == "dy" for m in provenance)
        return FamilyRecord(cert, g, provenance, dy_only, gamma3_empty(g))

    seed_cert = canonical_form(seed)
    known = {seed_cert.blob: record(seed_cert, seed, ())}
    queue = [known[seed_cert.blob]]
    transitions = []

    while queue:
        rec = queue.pop(0)
        g = rec.graph
        children = []
        if "dy" in move_set:
            for t in triangles(g):
                children.append((Move("dy", t), delta_y(g, t)))
        if "yd" in move_set:
            for x in g.vertices:
                if y_delta_preserves_edges(g, x):
                    children.append((Move("yd", (x,)), y_delta(g, x)))
        for move, child in children:
            cert = canonical_form(child)
            transitions.append(Transition(rec.certificate, move, cert))
            if cert.blob not in known:
                known[cert.blob] = record(cert, child, rec.provenance + (move,))
                queue.append(known[cert.blob])

    records = tuple(sorted(
        known.values(), key=lambda r: (r.vertex_count, r.certificate.blob)
    ))
    return ClosureResult(seed_cert, move_set, records, tuple(transitions))


def _old_phi_maps(g: MultiGraph):
    """(triangle, n) -> (exchanged, mapping, fibers, surjective, max_fiber)
    for every triangle."""
    out = {}
    cycles = all_cycles(g)
    domains = {n: disjoint_tuples_among(g, cycles, n) for n in (1, 2)}
    for tri in triangles(g):
        gy = delta_y(g, tri)
        tri_set = frozenset(_triangle_edges(g, tri))
        star = {w: eid for eid, w in gy.incident(max(gy.vertices))}
        phi = {}
        for c in cycles:
            ends = set()
            for eid in c & tri_set:
                ends ^= set(g.endpoints(eid))
            phi[c] = (c - tri_set) | {star[v] for v in ends} if ends else c
        gy_cycles = all_cycles(gy)
        for n in (1, 2):
            codomain = set(map(frozenset, disjoint_tuples_among(gy, gy_cycles, n)))
            mapping = {t: frozenset(map(phi.get, t)) for t in domains[n] if tri_set not in t}
            if not codomain.issuperset(mapping.values()):
                raise GraphError("triangle exchange image is not a tuple of disjoint cycles")
            fibers = {}
            for t, img in mapping.items():
                fibers.setdefault(img, []).append(t)
            fib = {k: tuple(v) for k, v in fibers.items()}
            max_fiber = max(map(len, fib.values()), default=0)
            out[tri, n] = (gy, mapping, fib, len(fib) == len(codomain), max_fiber)
    return out


def _marked(g: MultiGraph, site) -> MultiGraph:
    """g with more loops added at each vertex of site than any vertex of g
    carries: an isomorphism between two such graphs maps site onto site and
    is an automorphism of g, so two sites share an orbit exactly when their
    marked graphs are isomorphic."""
    extra = 1 + max(len(g.loops_at(v)) for v in g.vertices)
    pairs = [(u, v) for _, u, v in g.edges] + [(v, v) for v in site for _ in range(extra)]
    return from_pairs(pairs, vertices=g.vertices)


def _same_closure(seed, moves):
    new, old = closure(seed, moves), _old_closure(seed, moves)
    assert new.seed_certificate == old.seed_certificate
    assert [(r.certificate, r.provenance, r.graph, r.dy_only_reachable, r.gamma3_empty)
            for r in new.records] == \
        [(r.certificate, r.provenance, r.graph, r.dy_only_reachable, r.gamma3_empty)
         for r in old.records]
    assert new.transitions == old.transitions


def _same_phi_maps(g):
    new, old = dict(phi_maps(g)), _old_phi_maps(g)
    orbits = [res.orbit for (_, n), res in new.items() if n == 1]
    assert list(new) == [(orbit[0], n) for orbit in orbits for n in (1, 2)]
    # the orbits partition the triangles, each in triangles order, and are
    # the classes of triangles whose marked graphs are isomorphic
    order = {t: i for i, t in enumerate(triangles(g))}
    assert sorted(t for orbit in orbits for t in orbit) == sorted(order)
    assert all(list(orbit) == sorted(orbit, key=order.get) for orbit in orbits)
    classes = {}
    for t in order:
        classes.setdefault(canonical_form(_marked(g, t)), []).append(t)
    assert sorted(orbits) == sorted(map(tuple, classes.values()))
    for (t, n), res in new.items():
        assert (res.exchanged, res.mapping, res.fibers, res.surjective, res.max_fiber) == \
            old[t, n]
        for other in res.orbit:
            assert old[other, n][3:] == (res.surjective, res.max_fiber)
    return orbits


@st.composite
def symmetric_multigraphs(draw):
    """One or two copies of a small piece holding a triangle, with loops and
    parallel edges, beside an optional K4, under shuffled labels.  The copies
    and the K4 give triangles and degree-3 vertices non-trivial orbits."""
    k = draw(st.integers(3, 5))
    ends = st.integers(0, k - 1)
    piece = [(0, 1), (1, 2), (2, 0)] + draw(st.lists(st.tuples(ends, ends), max_size=4))
    copies = draw(st.integers(1, 2))
    pairs = [(u + i * k, v + i * k) for i in range(copies) for u, v in piece]
    n = copies * k
    if draw(st.booleans()):
        pairs += [(n + a, n + b) for a in range(4) for b in range(a + 1, 4)]
        n += 4
    labels = draw(st.permutations(range(10, 10 + n)))
    return from_pairs([(labels[u], labels[v]) for u, v in pairs], vertices=labels)


@settings(max_examples=20, deadline=None)
@given(symmetric_multigraphs(), st.sampled_from([("dy", "yd"), ("dy",), ("yd",)]))
def test_closure_matches_every_child_canonicalised(g, moves):
    _same_closure(g, moves)


@settings(max_examples=20, deadline=None)
@given(symmetric_multigraphs())
def test_closure_members_keep_the_seed_edge_count(g):
    # both moves change only the edges they name: loops and parallels stay
    assert {r.edge_count for r in closure(g).records} == {g.edge_count}


@settings(max_examples=20, deadline=None)
@given(symmetric_multigraphs())
def test_y_delta_preserves_edges_exactly_where_y_delta_keeps_the_count(g):
    for x in g.vertices:
        try:
            kept = y_delta(g, x).edge_count == g.edge_count
        except ExchangeSiteError:
            kept = False
        assert y_delta_preserves_edges(g, x) == kept, x


@pytest.mark.parametrize("moves", [("dy", "yd"), ("dy",), ("yd",)])
@pytest.mark.parametrize("name", ["K6", "K7", "K3311"])
def test_family_closures_match_every_child_canonicalised(name, moves):
    _same_closure(fixture(name), moves)


@settings(max_examples=30, deadline=None)
@given(symmetric_multigraphs())
def test_phi_maps_match_every_triangle_mapped(g):
    _same_phi_maps(g)


def test_phi_maps_of_family_seeds_match_every_triangle_mapped():
    # K6's 20 and K7's 35 triangles form one orbit each; N9's 9 form two
    sizes = {name: sorted(map(len, _same_phi_maps(fixture(name)))) for name in ("K6", "K7", "N9")}
    assert sizes == {"K6": [20], "K7": [35], "N9": [1, 8]}


def test_family_closures_work_is_pinned(monkeypatch):
    """The canonical searches of the three family closures; canonicalising
    every child, as before the orbit lookup, takes 786."""
    calls = []
    search = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda g: calls.append(g) or search(g))
    states = [len(closure(fixture(name)).records) for name in ("K6", "K7", "K3311")]
    assert states == [7, 20, 58]
    assert len(calls) == 361
