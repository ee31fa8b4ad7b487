"""Reductions and apex searches that check one member of each automorphism
orbit, against the exhaustive routes they replaced.

The oracles below are copies of those routes: every edge and vertex
reduced and canonicalised, every vertex set tried for planarity, and every
one-step reduction tested for 2-apexness.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialgraphs import canon, planarity
from spatialgraphs.canon import canonical_form
from spatialgraphs.catalog import heawood_family
from spatialgraphs.claims import claim_apex_proper_minors
from spatialgraphs.minors import one_step_reductions
from spatialgraphs.multigraph import (
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
    return (not failures, failures)


@st.composite
def apex_multigraphs(draw):
    """Disjoint unions of one or two non-planar pieces (K5, K3,3, K6) and
    small extras, with loops, parallel edges and isolated vertices.

    K6 needs two vertices deleted before it is planar, K5 and K3,3 one, so
    some unions are not 2-apex and some of their reductions fail too.  Labels
    are shuffled so that label order and degree order disagree.
    """
    pieces = draw(st.lists(st.sampled_from([K5, K33, K6]), min_size=1, max_size=2))
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
    assert [label for label, _ in new] == [label for label, _ in old]
    assert [canonical_form(h) for _, h in new] == [canonical_form(h) for _, h in old]
    assert [h for _, h in new] == [h for _, h in old]


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
    ok, failures = all_proper_minors_2apex(g)
    assert (ok, failures) == _old_all_proper_minors_2apex(g)
    # deleting vertex 0 gives K5 ⊔ K6 again, as contracting edge 0-1 did
    assert failures == ["delete edge 0-1 (id 0)", "contract edge 0-1 (id 0)"]


@pytest.mark.parametrize("g", [complete_graph(7), complete_graph(6)], ids=["K7", "K6"])
def test_complete_graphs(g):
    _same_reductions(g)
    for k in range(4):
        assert apex_witness(g, k) == _old_apex_witness(g, k)
    assert all_proper_minors_2apex(g) == _old_all_proper_minors_2apex(g)


def test_apex_proper_minors_work_is_pinned(monkeypatch):
    """The claim's planarity tests and canonical searches over the Heawood
    family; a lost orbit pruning raises them (4,340 and 1,050 without)."""
    heawood_family()  # built and canonicalised outside the count
    counts = {"is_planar": 0, "_canonical": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    counting(planarity, "is_planar")
    counting(canon, "_canonical")
    ok, evidence = claim_apex_proper_minors(None, 0, 1)
    assert ok and len(evidence["members"]) == 20
    assert counts == {"is_planar": 1914, "_canonical": 248}
