"""Canonical forms and isomorphism checking."""

import hashlib
import json
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spatialgraphs import canon
from spatialgraphs.canon import (
    automorphisms,
    canonical_form,
    canonical_labeling,
    degree_sequence,
    edge_orbits,
    is_isomorphic,
    vertex_orbits,
)
from spatialgraphs.catalog import (
    fixture,
    fixture_names,
    heawood_family,
    k3311_family,
    petersen_family,
)
from spatialgraphs.minors import one_step_reductions
from spatialgraphs.multigraph import MultiGraph, complete_graph, from_pairs


def cycle_graph(labels):
    pairs = list(zip(labels, labels[1:] + labels[:1]))
    return from_pairs(pairs)


def test_certificate_is_relabel_invariant():
    g = from_pairs([(1, 2), (2, 3), (3, 1), (3, 4)])
    h = g.relabeled({1: 9, 2: 7, 3: 5, 4: 3})
    assert canonical_form(g) == canonical_form(h)


def test_certificate_separates_same_degree_sequence():
    hexagon = cycle_graph([1, 2, 3, 4, 5, 6])
    two_triangles = from_pairs([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    assert degree_sequence(hexagon) == degree_sequence(two_triangles)
    assert canonical_form(hexagon) != canonical_form(two_triangles)


def test_certificate_sees_multiplicity():
    single = from_pairs([(1, 2)])
    double = from_pairs([(1, 2), (1, 2)])
    assert canonical_form(single) != canonical_form(double)


def test_isomorphism_witness_is_a_real_map():
    g = cycle_graph([1, 2, 3, 4, 5])
    h = cycle_graph([10, 30, 50, 20, 40])
    phi = is_isomorphic(g, h)
    assert phi is not None
    for _, u, v in g.edges:
        assert h.has_edge_between(phi[u], phi[v])


def test_isomorphism_rejects():
    assert is_isomorphic(cycle_graph([1, 2, 3, 4]), complete_graph(4)) is None


def test_canonical_labeling_realizes_certificate():
    g = from_pairs([(1, 2), (2, 3), (3, 1), (1, 4)])
    lab = canonical_labeling(g)
    assert sorted(lab.keys()) == sorted(g.vertices)


def test_family_certificates_pairwise_distinct(petersen):
    certs = [rec.certificate for rec in petersen.records]
    assert len(set(certs)) == len(certs) == 7


def test_degree_sequence_descending():
    g = from_pairs([(1, 2), (2, 3), (2, 4)])
    assert degree_sequence(g) == (3, 1, 1, 1)


# -- automorphism pruning ----------------------------------------------------


class _OverBudget(Exception):
    pass


# The search as it ran on dicts and ``g.incident`` before the compiled index
# form, frozen here so that the compiled search is tested against it and not
# against itself.


def _dict_neighbor_profile(g, colors, v):
    prof = {}
    for _, w in g.incident(v):
        key = (colors[w], w == v)
        prof[key] = prof.get(key, 0) + 1
    return tuple(sorted(prof.items()))


def _dict_refine(g, colors):
    while True:
        keys = {v: (colors[v], _dict_neighbor_profile(g, colors, v)) for v in g.vertices}
        rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        new = {v: rank[keys[v]] for v in g.vertices}
        if new == colors:
            return colors
        colors = new


def _dict_cells(g, colors):
    by = {}
    for v in g.vertices:
        by.setdefault(colors[v], []).append(v)
    return [sorted(by[c]) for c in sorted(by)]


def _dict_encode(g, position):
    classes = Counter()
    for _, u, v in g.edges:
        a, b = sorted((position[u], position[v]))
        classes[(a, b)] += 1
    body = ";".join(f"{a},{b},{m}" for (a, b), m in sorted(classes.items()))
    return f"{g.vertex_count}|{g.edge_count}|{body}".encode("ascii")


def _dict_search(g, prune=True, budget=None):
    """(certificate bytes, position map, automorphisms recorded).  With
    prune=False, the search before automorphism pruning: one leaf per
    automorphism, first smallest leaf in depth-first order wins; with
    prune=True, the pruned search, which rebuilds the orbits of the
    prefix-fixing automorphisms for every sibling."""
    if g.vertex_count == 0:
        return b"0|0|", {}, []
    best, autos, leaves = [None, None], [], [0]

    def same_orbit(v, explored, target, prefix):
        root = {x: x for x in target}

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for gamma in autos:
            if all(gamma[p] == p for p in prefix):
                for x in target:
                    a, b = find(x), find(gamma[x])
                    if a != b:
                        root[a] = b
        return any(find(w) == find(v) for w in explored)

    def search(colors, prefix):
        colors = _dict_refine(g, colors)
        cells = _dict_cells(g, colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            leaves[0] += 1
            if budget is not None and leaves[0] > budget:
                raise _OverBudget
            position = {cell[0]: i for i, cell in enumerate(cells)}
            blob = _dict_encode(g, position)
            if best[0] is None or blob < best[0]:
                best[0], best[1] = blob, position
            elif blob == best[0]:
                at = {i: v for v, i in best[1].items()}
                autos.append({v: at[i] for v, i in position.items()})
            return
        n_colors = max(colors.values()) + 1
        explored = []
        for v in target:
            if prune and explored and same_orbit(v, explored, target, prefix):
                continue
            branched = dict(colors)
            branched[v] = n_colors
            search(branched, prefix + (v,))
            explored.append(v)

    search({v: 0 for v in g.vertices}, ())
    return best[0], best[1], autos


def _unpruned_canonical(g, budget=5000):
    """The search before automorphism pruning."""
    blob, position, _ = _dict_search(g, prune=False, budget=budget)
    return blob, position


@st.composite
def random_multigraphs(draw, max_vertices=9, min_vertices=0):
    """Loops, parallel edges and isolated vertices all occur."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = draw(st.lists(st.integers(-3, 30), min_size=n, max_size=n, unique=True))
    if not labels:
        return MultiGraph((), ())
    ends = st.sampled_from(labels)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return from_pairs(pairs, vertices=labels)


@st.composite
def symmetric_multigraphs(draw):
    """Circulants, blow-ups of a small multigraph (K3311 is one), and copies
    of a small multigraph joined in a ring: several orbits per cell, where
    pruning does its work."""
    kind = draw(st.sampled_from(["circulant", "blow-up", "ring"]))
    if kind == "circulant":
        n = draw(st.integers(3, 9))
        steps = draw(st.lists(st.integers(0, n // 2), min_size=1, max_size=3))
        return from_pairs([(i, (i + d) % n) for i in range(n) for d in steps], vertices=range(n))
    if kind == "blow-up":
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 9))
        parts = [range(sum(sizes[:i]), sum(sizes[: i + 1])) for i in range(len(sizes))]
        ends = st.integers(0, len(sizes) - 1)
        joins = draw(st.lists(st.tuples(ends, ends), max_size=6))
        pairs = [(u, v) for i, j in joins for u in parts[i] for v in parts[j] if i != j or u < v]
        return from_pairs(pairs, vertices=range(sum(sizes)))
    size = draw(st.integers(1, 3))
    copies = draw(st.integers(2, 9 // size))
    ends = st.integers(0, size - 1)
    piece = draw(st.lists(st.tuples(ends, ends), max_size=4))
    ring = draw(st.lists(st.tuples(ends, ends), max_size=2))
    pairs = [(c * size + a, c * size + b) for c in range(copies) for a, b in piece]
    pairs += [(c * size + a, (c + 1) % copies * size + b) for c in range(copies) for a, b in ring]
    return from_pairs(pairs, vertices=range(size * copies))


multigraphs = st.one_of(random_multigraphs(), symmetric_multigraphs())


@settings(max_examples=150, deadline=None)
@given(multigraphs)
def test_pruned_search_matches_unpruned(g):
    try:
        expected = _unpruned_canonical(g)
    except _OverBudget:
        assume(False)  # the oracle is too slow here, not the pruned search
    assert canon._canonical(g) == expected


@st.composite
def circulants(draw, min_vertices, max_vertices):
    n = draw(st.integers(min_vertices, max_vertices))
    steps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=3))
    return from_pairs([(i, (i + d) % n) for i in range(n) for d in steps], vertices=range(n))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    multigraphs,
    st.just(MultiGraph((), ())),
    # ten or more vertices: leaves compare as ASCII bytes, "1,10" < "1,2"
    random_multigraphs(min_vertices=10, max_vertices=14),
    circulants(10, 14),
))
# loops at colors c and neighbours at c + 1: keyed as c + loop, not 2c + loop,
# the two would merge and this graph's ranks change
@example(from_pairs([(11, 14), (18, 18), (11, 11), (14, 14), (18, 38), (14, 14), (3, 38)],
                    vertices=[3, 11, 14, 18, 38]))
def test_compiled_search_matches_the_dict_search(g):
    blob, position, autos = _dict_search(g)
    assert canon._canonical(g) == (blob, position)
    assert g._labeling_cache == tuple(position[v] for v in g.vertices)
    assert g._automorphism_cache == tuple(tuple(gamma[v] for v in g.vertices) for gamma in autos)


@settings(max_examples=100, deadline=None)
@given(multigraphs, st.randoms(use_true_random=False))
def test_certificate_invariant_under_relabeling(g, rnd):
    new_labels = rnd.sample(range(100, 200), g.vertex_count)
    vmap = dict(zip(g.vertices, new_labels))
    new_ids = rnd.sample(range(500, 600), g.edge_count)
    h = MultiGraph(new_labels, [(i, vmap[u], vmap[v]) for i, (_, u, v) in zip(new_ids, g.edges)])
    assert canonical_form(g) == canonical_form(h)
    assert is_isomorphic(g, h) is not None  # checks its witness edge by edge


def _four_triangles():
    return from_pairs([(3 * i + a, 3 * i + b) for i in range(4) for a, b in ((0, 1), (1, 2), (0, 2))])


@pytest.mark.parametrize(
    "build, leaves",
    [
        (lambda: complete_graph(7), 22),  # 5,040 leaves unpruned
        (lambda: complete_graph(6), 16),  # 720
        (_four_triangles, 19),  # 31,104
    ],
)
def test_leaf_counts(monkeypatch, build, leaves):
    count = [0]
    encode = canon._encode

    def counting(*args):
        count[0] += 1
        return encode(*args)

    monkeypatch.setattr(canon, "_encode", counting)
    canonical_form(build())
    assert count[0] == leaves <= 64


def test_isomorphism_runs_one_search_per_graph(monkeypatch):
    calls = []
    search = canon._canonical
    monkeypatch.setattr(canon, "_canonical", lambda g: calls.append(g) or search(g))
    g, h = complete_graph(5), complete_graph(5, labels=range(10, 15))
    assert is_isomorphic(g, h) is not None
    assert is_isomorphic(g, h) is not None
    assert len(calls) == 2


def test_labeling_is_a_fresh_dict():
    g = complete_graph(4)
    first = canonical_labeling(g)
    first[1] = 99
    assert canonical_labeling(g)[1] != 99


# -- automorphism groups ------------------------------------------------------


def _pair_counts(g, gamma=None):
    """The multiset of endpoint pairs, mapped through gamma if given."""
    gamma = gamma or {v: v for v in g.vertices}
    return Counter(tuple(sorted((gamma[u], gamma[v]))) for _, u, v in g.edges)


def _group(g):
    """Every element of the group the recorded generators generate, as
    tuples of images of g.vertices (closure under the generators)."""
    gens = [tuple(gamma[v] for v in g.vertices) for gamma in automorphisms(g)]
    index = {v: i for i, v in enumerate(g.vertices)}
    identity = tuple(g.vertices)
    group, todo = {identity}, [identity]
    while todo:
        p = todo.pop()
        for q in gens:
            pq = tuple(q[index[x]] for x in p)
            if pq not in group:
                group.add(pq)
                todo.append(pq)
    return group


def _brute_automorphisms(g):
    pairs = _pair_counts(g)
    return [
        dict(zip(g.vertices, images))
        for images in permutations(g.vertices)
        if _pair_counts(g, dict(zip(g.vertices, images))) == pairs
    ]


def _classes(items, key_images):
    """Orbits of items, given each item's set of images."""
    out = {tuple(sorted(key_images[x])) for x in items}
    return tuple(sorted(out))


small_multigraphs = st.one_of(
    random_multigraphs(max_vertices=6),
    symmetric_multigraphs().filter(lambda g: g.vertex_count <= 7),
)


@settings(max_examples=120, deadline=None)
@given(small_multigraphs)
def test_orbits_match_brute_force(g):
    autos = _brute_automorphisms(g)
    assert len(_group(g)) == len(autos)
    images = {v: {gamma[v] for gamma in autos} for v in g.vertices}
    assert vertex_orbits(g) == _classes(g.vertices, images)
    ends = {eid: (u, v) for eid, u, v in g.edges}

    def pair_images(eid):
        u, v = ends[eid]
        return {tuple(sorted((gamma[u], gamma[v]))) for gamma in autos}

    edge_images = {
        eid: {e for e, pair in ends.items() if pair in pair_images(eid)} for eid in ends
    }
    assert edge_orbits(g) == _classes(ends, edge_images)


@settings(max_examples=100, deadline=None)
@given(multigraphs)
def test_generators_preserve_the_edge_multiset(g):
    for gamma in automorphisms(g):
        assert sorted(gamma) == sorted(gamma.values()) == list(g.vertices)
        assert _pair_counts(g, gamma) == _pair_counts(g)


@pytest.mark.parametrize("name, order", [("K7", 5040), ("PetersenRef", 120), ("HeawoodRef", 336)])
def test_group_orders(name, order):
    assert len(_group(fixture(name))) == order


def test_returned_automorphisms_and_orbits_leave_the_cache_alone():
    g = fixture("PetersenRef")
    before = (automorphisms(g), vertex_orbits(g), edge_orbits(g))
    assert before[0] and len(before[1]) == len(before[2]) == 1
    for gamma in automorphisms(g):
        gamma.clear()
    automorphisms(g).append({})
    assert (automorphisms(g), vertex_orbits(g), edge_orbits(g)) == before


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# recorded with the unpruned search; pruning must not move a byte
FAMILY_CERTIFICATES = {
    "K6": "d75ddb263ba809088556fc63b41bf383666b3e6d4269ec71097bcb539e8b87be",
    "K7": "39b67566d06b67a7a76699e6f4e71273860708bbe71e0961d9fb05258b5990b1",
    "K3311": "4757b26e27b09a75a75856b543c324dbc3da7a5e688cd5f878f133d2527eb60a",
}
FAMILY_LABELINGS = {
    "K6": "8f10ba9986d85149b0044c5ef2e7ce8705799c94e990697467184439cf47b6e0",
    "K7": "e40d79857f5b687106c79dde7dc4209d20dd774244b3134c453a364099bfdff1",
    "K3311": "4f9d971eb531c3bcf431eb6f807a8114c8ec9568847d8d72ede89c2d236c6390",
}
FIXTURE_LABELINGS = {
    "D4": "ca14d2f9e4ee4a73d15289cc46643e3c2d3297620b8903ef0f4358589a631669",
    "HeawoodRef": "21a4e3e98613408e224ebba795e86646d1047460f5000bb3fea675c2c24cc035",
    "K3311": "648f132725d93fa93722e3c315533eaf1e672478c128963d98b9d5285c34a378",
    "K6": "f5413b67eba1a313459efc202329e5a3ffd772b90dfc0e3f5a7ac215d81cbc73",
    "K7": "59b353330e031fe9d996efbba67afd722a99fd458ac86896078020cc8c166508",
    "N'10": "a72270b4baf395a0c1f0ccf44fe754973d3bae2333a4c61582eb75f6bdae706f",
    "N9": "8fd302199aab2680e5cee663b1f8bc54989f0af1165c43a283147385965f62cb",
    "PetersenRef": "63f346d7152d2e5afa5fc7ffd496f3bed0e3f93e14fc24a490cbb1a41f5f3010",
}


@pytest.mark.parametrize("seed, family", [
    ("K6", petersen_family), ("K7", heawood_family), ("K3311", k3311_family),
])
def test_family_certificates_and_labelings_pinned(seed, family):
    records = family().records
    certs = "\n".join(r.certificate.hex for r in records)
    assert hashlib.sha256(certs.encode()).hexdigest() == FAMILY_CERTIFICATES[seed]
    labelings = [sorted(canonical_labeling(r.graph).items()) for r in records]
    assert _sha(labelings) == FAMILY_LABELINGS[seed]


def test_fixture_labelings_pinned():
    graphs = [n for n in fixture_names() if isinstance(fixture(n), MultiGraph)]
    assert sorted(graphs) == sorted(FIXTURE_LABELINGS)
    for name in graphs:
        assert _sha(sorted(canonical_labeling(fixture(name)).items())) == FIXTURE_LABELINGS[name]


# recorded before the search ran on the compiled index form; every orbit
# pruning reads these generators
FAMILY_GENERATORS = {
    "K6": "0825c7568a660cf0a449786d38d100fcecf7ce0d4bac4aea4f7a8c2642c6e60f",
    "K7": "b97626773e2189ca594579238828e0db8f895b7546f42bbffcc598c17bdf0a8f",
    "K3311": "d0f4119a3267a77d8060ab2d8dee12252e98d9a6b79bcc05a2e1c2b142f6bb66",
}
HEAWOOD_REDUCTION_GENERATORS = "1010c1ae8370e5b49a503fb5eb6f6458fd8aed8fb4d2123be959e72d1938424f"


def _generators(graphs):
    for g in graphs:
        canonical_form(g)
    return _sha([g._automorphism_cache for g in graphs])


@pytest.mark.parametrize("seed, family", [
    ("K6", petersen_family), ("K7", heawood_family), ("K3311", k3311_family),
])
def test_family_generators_pinned(seed, family):
    assert _generators([r.graph for r in family().records]) == FAMILY_GENERATORS[seed]


def test_heawood_reduction_generators_pinned():
    reductions = [h for r in heawood_family().records for *_, h in one_step_reductions(r.graph)]
    assert len(reductions) == 245
    assert _generators(reductions) == HEAWOOD_REDUCTION_GENERATORS
