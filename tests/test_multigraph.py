"""Core multigraph container and reduction scripts."""

import pytest

from spatialgraphs.canon import is_isomorphic
from spatialgraphs.multigraph import (
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    GraphError,
    LoopContractionError,
    MultiGraph,
    ReductionScript,
    ScriptError,
    UnknownEdgeError,
    apply_script,
    complete_graph,
    contract_edge,
    delete_edge,
    delete_vertex,
    format_edge_list,
    from_pairs,
    parse_edge_list,
    simplify,
)


def test_complete_graph_basics():
    g = complete_graph(6)
    assert g.vertex_count == 6
    assert g.edge_count == 15
    assert sorted(g.vertices) == [1, 2, 3, 4, 5, 6]
    assert all(g.degree(v) == 5 for v in g.vertices)
    assert g.is_simple()


@pytest.mark.parametrize("n, labels", [(3, [1, 1, 2]), (2, [5, 5])])
def test_complete_graph_refuses_repeated_labels(n, labels):
    # a repeated label would turn an edge of K_n into a loop or a parallel
    with pytest.raises(GraphError, match="not distinct"):
        complete_graph(n, labels)


def test_from_pairs_ids_in_input_order():
    g = from_pairs([(3, 1), (1, 2), (2, 3)])
    # endpoints come back normalized, ids follow input order
    assert g.endpoints(0) == (1, 3)
    assert g.endpoints(1) == (1, 2)
    assert g.endpoints(2) == (2, 3)


@pytest.mark.parametrize("vertices,edges", [
    ([1, 2], [(0.7, 1.5, 2)]),
    ([1, 2.9], [(0, 1, 2)]),
    ([1, 2], [(True, 1, 2)]),
    ([0, 1], [(0, 0, True)]),
    ([1, True], []),
    (["1", 2], []),
], ids=["float edge", "float vertex", "bool edge id", "bool endpoint", "bool vertex",
        "str vertex"])
def test_labels_and_ids_must_be_integers(vertices, edges):
    # int() would truncate 0.7 and 1.5 and read True as 1
    with pytest.raises(GraphError):
        MultiGraph(vertices, edges)


def test_parallel_classes_and_loops():
    g = from_pairs([(1, 2), (1, 2), (2, 3), (3, 3)])
    classes = g.parallel_classes()
    assert set(classes[(1, 2)]) == {0, 1}
    assert classes[(3, 3)] == (3,)
    assert g.loops_at(3) == (3,)
    assert not g.is_simple()


def test_incident_counts_loops_once():
    g = from_pairs([(1, 1), (1, 2)])
    assert len(g.incident(1)) == 2
    # but a loop adds two to the degree
    assert g.degree(1) == 3


def test_delete_edge_keeps_other_ids():
    g = complete_graph(4)
    h = delete_edge(g, 2)
    assert h.edge_count == 5
    assert 2 not in h.edge_ids()
    assert h.endpoints(0) == g.endpoints(0)
    with pytest.raises(UnknownEdgeError):
        h.endpoints(2)


def test_delete_commutes():
    g = complete_graph(5)
    a = delete_edge(delete_edge(g, 1), 7)
    b = delete_edge(delete_edge(g, 7), 1)
    assert sorted(a.edges) == sorted(b.edges)


def test_contract_merges_into_first_endpoint():
    g = from_pairs([(1, 2), (2, 3), (3, 1)])
    h = contract_edge(g, 0)
    assert sorted(h.vertices) == [1, 3]
    # the two survivors become a parallel pair, kept until simplify
    assert h.edge_count == 2
    assert simplify(h).edge_count == 1


def test_contract_loop_rejected():
    g = from_pairs([(1, 1), (1, 2)])
    with pytest.raises(LoopContractionError):
        contract_edge(g, 0)


def test_contract_is_label_invariant_up_to_iso():
    g = from_pairs([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    relabeled = g.relabeled({1: 10, 2: 20, 3: 30, 4: 40})
    a = simplify(contract_edge(g, 4))
    b = simplify(contract_edge(relabeled, 4))
    assert is_isomorphic(a, b) is not None


def test_delete_vertex_drops_incident_edges():
    g = complete_graph(4)
    h = delete_vertex(g, 2)
    assert sorted(h.vertices) == [1, 3, 4]
    assert h.edge_count == 3
    assert all(2 not in g.endpoints(e) for e in h.edge_ids())


def test_apply_script_on_label_pairs():
    g = complete_graph(4)
    script = ReductionScript([DeleteEdge(1, 2), ContractEdge(3, 4), DeleteVertex(2)])
    res = apply_script(g, script)
    assert res.graph.vertex_count == 2
    # label 4 was merged into 3, label 2 is gone
    assert res.branch_sets == {1: frozenset({1}), 3: frozenset({3, 4})}


def test_apply_script_empty_is_identity():
    g = complete_graph(4)
    res = apply_script(g, ReductionScript([]))
    assert sorted(res.graph.edges) == sorted(g.edges)


def test_apply_script_reports_step_index():
    g = complete_graph(4)
    script = ReductionScript([DeleteEdge(1, 2), DeleteEdge(1, 2)])
    with pytest.raises(ScriptError, match="step 1"):
        apply_script(g, script)


@pytest.mark.parametrize("steps, message", [
    ([DeleteVertex(9)], "step 0: label 9 was never a vertex"),
    ([DeleteVertex(2), DeleteEdge(1, 2)], "step 1: vertex 2 was deleted earlier"),
    ([ContractEdge(1, 2), DeleteVertex(1), DeleteEdge(2, 3)], "step 2: vertex 2 was deleted earlier"),
    ([ContractEdge(1, 2), ContractEdge(2, 1)], "step 1: 2 and 1 already merged"),
    ([DeleteEdge(1, 2), ContractEdge(1, 2)], "step 1: no edge between 1 and 2"),
], ids=["never a vertex", "deleted", "merged then deleted", "already merged",
        "contraction without an edge"])
def test_apply_script_names_the_step_it_cannot_run(steps, message):
    with pytest.raises(ScriptError, match=f"^{message}$"):
        apply_script(complete_graph(4), ReductionScript(steps))


def test_script_contractions_resolve_merged_labels():
    # after contracting 1-2, edges written 2-3 must resolve through the merge
    g = complete_graph(3)
    res = apply_script(g, ReductionScript([ContractEdge(1, 2), DeleteEdge(2, 3)]))
    assert res.graph.edge_count == 1


def test_edge_list_round_trip():
    g = from_pairs([(1, 2), (2, 3), (3, 3)])
    text = format_edge_list(g, comment="sample")
    h = parse_edge_list(text)
    assert sorted(h.vertices) == sorted(g.vertices)
    assert sorted(tuple(sorted((u, v))) for _, u, v in h.edges) == sorted(
        tuple(sorted((u, v))) for _, u, v in g.edges
    )


def test_edge_list_isolated_vertex_line():
    text = "vertices 3\n1 2\nvertex 3\n"
    g = parse_edge_list(text)
    assert sorted(g.vertices) == [1, 2, 3]
    assert g.degree(3) == 0


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("vertices 2\n1 2 3 4\n")
