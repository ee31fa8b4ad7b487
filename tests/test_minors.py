"""Minor search, script verification, model validation, and cycle lifting
through models."""

import hashlib

import pytest

from spatialgraphs import minors
from spatialgraphs.canon import is_isomorphic
from spatialgraphs.catalog import (
    d4_in_n9_model,
    family_member,
    fixture,
    reduction_scripts,
)
from spatialgraphs.cycles import (
    MinorModel,
    all_cycles,
    cycle_walk,
    disjoint_cycle_tuples,
    lift_cycle,
    lift_cycles,
    parse_cycle,
)
from spatialgraphs.minors import has_minor, one_step_reductions, verify_minor_script
from spatialgraphs.multigraph import (
    ContractEdge,
    DeleteEdge,
    GraphError,
    MultiGraph,
    ReductionScript,
    UnknownVertexError,
    complete_graph,
    from_pairs,
)


def lift_image(host, src_name, tgt_name, script):
    model = verify_minor_script(fixture(src_name), script, family_member(tgt_name))
    assert model is not None
    tuples = disjoint_cycle_tuples(model.pattern, 2)
    return set(lift_cycles(model, tuples).values())


def pairs(host, table):
    return {
        frozenset({parse_cycle(host, a), parse_cycle(host, b)}) for a, b in table
    }


def test_one_step_reductions_dedup_by_class():
    rows = one_step_reductions(complete_graph(4))
    # edge deletion is one class; contraction and vertex deletion both give K3
    assert [kind for kind, *_ in rows] == ["delete edge", "contract edge"]
    shapes = sorted((g.vertex_count, g.edge_count) for *_, g in rows)
    assert shapes == [(3, 3), (4, 5)]


def test_has_minor_positive_cases():
    k7 = complete_graph(7)
    for target in (complete_graph(6), family_member("P7")):
        model = has_minor(k7, target)
        assert model is not None
        model.validate()


def test_has_minor_negative_case():
    assert has_minor(complete_graph(6), family_member("P10")) is None


def test_has_minor_budget_error_says_how_far_it_got(monkeypatch):
    monkeypatch.setattr(minors, "_MAX_STATES", 3)
    with pytest.raises(GraphError) as err:
        has_minor(fixture("PetersenRef"), complete_graph(5))
    assert str(err.value) == (
        "minor search exceeded its state budget: 3 of 3 states expanded, "
        "host 10 vertices and 15 edges, pattern 5 vertices and 10 edges"
    )


def test_all_catalogued_scripts_verify():
    rows = reduction_scripts()
    assert len(rows) == 10
    assert len(reduction_scripts(primary_only=True)) == 6
    for src, tgt, script in rows:
        model = verify_minor_script(fixture(src), script, family_member(tgt))
        assert model is not None, (src, tgt)
        model.validate()


def test_wrong_script_reports_not_ok(n9):
    bad = ReductionScript([DeleteEdge(1, 2), DeleteEdge(1, 3), ContractEdge(4, 5)])
    assert verify_minor_script(n9, bad, complete_graph(6)) is None


def test_script_result_is_isomorphic_to_target(n9):
    src, tgt, script = reduction_scripts()[0]
    model = verify_minor_script(fixture(src), script, family_member(tgt))
    assert is_isomorphic(model.pattern, family_member(tgt)) is not None


def test_lift_image_n9_to_k6(n9):
    img = lift_image(n9, "N9", "K6", reduction_scripts()[0][2])
    assert len(img) == 10
    expected = pairs(n9, [("[1 7 4 3]", "[2 6 5 8]"), ("[1 2 3]", "[4 5 6]")])
    assert expected <= img


def test_lift_image_n9_to_p7(n9):
    img = lift_image(n9, "N9", "P7", reduction_scripts()[1][2])
    expected = pairs(
        n9,
        [
            ("[3 4 5]", "[1 2 8 7]"),
            ("[1 5 4 7]", "[2 3 9 8]"),
            ("[2 8 5 4]", "[3 1 7 9]"),
            ("[1 2 4 7]", "[3 5 8 9]"),
            ("[1 2 3]", "[4 7 8 5]"),
            ("[1 2 8 5]", "[3 4 7 9]"),
            ("[2 3 4]", "[1 5 8 7]"),
            ("[7 8 9]", "[1 2 4 5]"),
            ("[1 5 3]", "[2 8 7 4]"),
        ],
    )
    assert img == expected


def test_lift_image_n9_to_p9(n9):
    img = lift_image(n9, "N9", "P9", reduction_scripts()[2][2])
    assert len(img) == 7
    expected = pairs(n9, [("[1 5 8 7]", "[2 6 9 3 4]"), ("[7 8 9]", "[1 5 3 4 2 6]")])
    assert expected <= img


def test_lift_image_np10_to_p7(np10):
    img = lift_image(np10, "N'10", "P7", reduction_scripts()[3][2])
    assert len(img) == 9
    expected = pairs(
        np10,
        [
            ("[1 7 4 5]", "[2 10 3 9 6]"),
            ("[2 4 5 8]", "[1 10 3 9 6]"),
            ("[3 10 8 5]", "[1 6 2 4 7]"),
            ("[3 4 5]", "[1 10 2 6]"),
            ("[2 8 10]", "[1 6 9 3 4 7]"),
        ],
    )
    assert expected <= img


def test_lift_image_np10_to_p9_first_case(np10):
    img = lift_image(np10, "N'10", "P9", reduction_scripts()[4][2])
    expected = pairs(
        np10,
        [
            ("[3 10 8 9]", "[1 6 2 4 7]"),
            ("[1 7 8 10]", "[2 4 3 9 6]"),
            ("[1 10 2 6]", "[3 4 7 8 9]"),
            ("[2 4 3 10]", "[1 7 8 9 6]"),
            ("[2 4 7 8]", "[1 10 3 9 6]"),
            ("[2 8 9 6]", "[1 10 3 4 7]"),
            ("[2 8 10]", "[1 6 9 3 4 7]"),
        ],
    )
    assert img == expected


def test_lift_image_np10_to_p9_second_case(np10):
    img = lift_image(np10, "N'10", "P9", reduction_scripts()[5][2])
    expected = pairs(
        np10,
        [
            ("[1 6 9 7]", "[2 4 5 3 10]"),
            ("[1 7 4 5]", "[2 10 3 9 6]"),
            ("[3 5 6 9]", "[1 10 2 4 7]"),
            ("[1 5 3 10]", "[2 4 7 9 6]"),
            ("[1 10 2 6]", "[3 9 7 4 5]"),
            ("[1 5 6]", "[2 4 7 9 3 10]"),
            ("[2 4 5 6]", "[1 10 3 9 7]"),
        ],
    )
    assert img == expected


def test_d4_model_lift(n9):
    model = d4_in_n9_model()
    model.validate()
    tuples = disjoint_cycle_tuples(model.pattern, 2)
    assert len(tuples) == 2
    img = set(lift_cycles(model, tuples).values())
    expected = pairs(n9, [("[1 3 4 7]", "[2 6 5 8]"), ("[1 2 3]", "[4 5 8 7]")])
    assert img == expected


def model_digest(model):
    """sha256 of a model's branch sets and edge map, in sorted order."""
    key = (
        sorted((pv, sorted(bs)) for pv, bs in model.branch_sets.items()),
        sorted(model.edge_map.items()),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _graph(name):
    if name in ("K5", "K6"):
        return complete_graph(int(name[1:]))
    return family_member(name) if name in ("P7", "P10") else fixture(name)


# model digests recorded from the search that built each child with
# contract_edge or delete_edge before trimming it; None: no such minor
HAS_MINOR_PINS = {
    ("K7", "K6"): "51c2b959e706a17ca15570ac92536e55b3208017d469a3f23302698b8b7a701b",
    ("K7", "P7"): "13b103960617e7f70514ccba776b88933ba57aebae0ff42c857074fe851b87ed",
    ("N9", "D4"): "3b0ed75e2b034db5a48ca50558010dd6474d0aa77c501c2b9a2b1d949bd5f536",
    ("N'10", "D4"): "3c5ec5de309cb037b73391a1a4565c10cfb3f911809f0953f3e7f1f29728c3c2",
    ("K6", "P10"): None,
    ("PetersenRef", "K5"): "843081663687f96742c30efdb3efb3da0d00e973eebe2b83e34b1b5fc16b4049",
    ("K3311", "K6"): "67cf56c83f3fa7a196a804e15551ce9681f3b80a2bd7beb810a7f13c814c00ea",
}

# model digests of reduction_scripts(), in order, recorded when a script's
# result was simplified and then stripped of its isolated vertices, in two
# constructions where one trim now makes one
SCRIPT_PINS = [
    "0ecc6ab8f47996fe90e24e3c2c44d2aede0e6227768dfcb96945f07f2aeefc97",
    "4344c2de44e17c347b0aad396c6b8b683854035ed017acd80472e43708b30f41",
    "1b2408b9186e637a5ad3bbbdc0480c708dd76a4b8a5b978c61fc6e793aba818d",
    "35fa55d99432c81b1443a2bd53a141550b9b4f38e0fca23afcabee6a3f9eb1bd",
    "6955536d26b7b6f61a45d4b5d25320d789a3ffff4c79964c28bf47ec8cf4ea35",
    "75acecd8b4166a9fca6432fa3611e1d1c32ab612dab918ea209e422307acdf94",
    "637f54b5fd464342ae358da74757202e69b8717731aaba4eb7c7fb065fba7d2e",
    "579881c0aceb9bada8e13ef8f350f76606515684fe48b5538e6281475475c199",
    "d108cf3aa5af8a6d51e71bfa3589392a36a9191fac61f3dcd2aa3b322eed8098",
    "91b1a6a06adb4b974f25acf91de05cd8ed103ce12f3f1821a828eeffc0d655ce",
]


def test_has_minor_models_are_pinned():
    for (host, pattern), pin in HAS_MINOR_PINS.items():
        model = has_minor(_graph(host), _graph(pattern))
        assert (model and model_digest(model)) == pin, (host, pattern)


# the fewest states has_minor must be allowed to expand to find each positive
# HAS_MINOR_PINS model, recorded from the recursive search the loop replaced
HAS_MINOR_STATES = {
    ("K7", "K6"): 1,
    ("K7", "P7"): 6,
    ("N9", "D4"): 137,
    ("N'10", "D4"): 679,
    ("K3311", "K6"): 56,
    ("PetersenRef", "K5"): 338,
}


def test_has_minor_work_is_pinned(monkeypatch):
    assert set(HAS_MINOR_STATES) == {case for case, pin in HAS_MINOR_PINS.items() if pin}
    for (host, pattern), states in HAS_MINOR_STATES.items():
        g, h = _graph(host), _graph(pattern)
        monkeypatch.setattr(minors, "_MAX_STATES", states)
        assert model_digest(has_minor(g, h)) == HAS_MINOR_PINS[host, pattern]
        monkeypatch.setattr(minors, "_MAX_STATES", states - 1)
        with pytest.raises(GraphError, match=f"{states - 1:,} of {states - 1:,} states"):
            has_minor(g, h)


def test_script_models_are_pinned():
    digests = [
        model_digest(verify_minor_script(fixture(src), script, family_member(tgt)))
        for src, tgt, script in reduction_scripts()
    ]
    assert digests == SCRIPT_PINS


# a triangle with a loop at 0, inside a four-cycle 0-1-2-3 with a pendant
# edge 1-5, a second 0-1 edge and an isolated vertex 4; host edge ids follow
# the pairs' order.  The loop's image, edge 0, closes through edge 5: without
# it the loop would be the edge holding branch set {0, 1} together
_HOST = from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (1, 5), (0, 1)], vertices=[4])
_PATTERN = from_pairs([(0, 1), (1, 2), (0, 2), (0, 0)])
_BRANCH_SETS = {0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({3})}
_EDGE_MAP = {0: 1, 1: 2, 2: 3, 3: 0}


def test_validate_accepts_the_base_model():
    MinorModel(_HOST, _PATTERN, _BRANCH_SETS, _EDGE_MAP).validate()


@pytest.mark.parametrize(
    "branch_sets, edge_map, message",
    [
        pytest.param({0: _BRANCH_SETS[0], 1: _BRANCH_SETS[1]}, _EDGE_MAP,
                     "one per pattern vertex", id="branch-set-dropped"),
        pytest.param({**_BRANCH_SETS, 7: frozenset({4})}, _EDGE_MAP,
                     "one per pattern vertex", id="extra-branch-set"),
        pytest.param(_BRANCH_SETS, {0: 1, 1: 2, 2: 3},
                     "one image per pattern edge", id="edge-image-dropped"),
        pytest.param(_BRANCH_SETS, {**_EDGE_MAP, 9: 4},
                     "one image per pattern edge", id="extra-edge-image"),
        pytest.param({**_BRANCH_SETS, 1: frozenset({1, 2})}, _EDGE_MAP,
                     "overlap", id="overlapping-sets"),
        pytest.param({**_BRANCH_SETS, 0: frozenset({0, 4})}, _EDGE_MAP,
                     "branch set of 0 is not connected", id="disconnected-set"),
        pytest.param(_BRANCH_SETS, {**_EDGE_MAP, 0: 2},
                     "not injective", id="non-injective-edge-map"),
        pytest.param(_BRANCH_SETS, {**_EDGE_MAP, 0: 2, 1: 1},
                     "edge image 2 joins the wrong branch sets", id="image-joins-wrong-sets"),
        pytest.param(_BRANCH_SETS, {**_EDGE_MAP, 3: 4},
                     "loop image 4 leaves its branch set", id="loop-image-leaves-its-set"),
    ],
)
def test_validate_refuses_a_broken_model(branch_sets, edge_map, message):
    with pytest.raises(GraphError, match=message):
        MinorModel(_HOST, _PATTERN, branch_sets, edge_map).validate()


def test_validate_names_a_vertex_the_host_lacks():
    # also when it is not the smallest of its set, where a search from the
    # smallest would only find the set disconnected
    for bs in (frozenset({9}), frozenset({3, 9})):
        with pytest.raises(UnknownVertexError, match="no vertex 9"):
            MinorModel(_HOST, _PATTERN, {**_BRANCH_SETS, 2: bs}, _EDGE_MAP).validate()


# a one-vertex pattern with a loop, edge 0
_LOOP = MultiGraph([1], [(0, 1, 1)])


def test_validate_refuses_a_loop_that_holds_its_branch_set_together():
    # the loop's image is the only edge joining branch set {1, 3}, so
    # contracting that set would leave no loop
    model = MinorModel(from_pairs([(1, 3)]), _LOOP, {1: frozenset({1, 3})}, {0: 0})
    with pytest.raises(GraphError, match="branch set of 1 is not connected"):
        model.validate()
    with pytest.raises(GraphError, match="no path 3 -> 1"):
        lift_cycle(model, frozenset({0}))


def test_a_loop_lifts_through_its_branch_set():
    model = MinorModel(from_pairs([(1, 2), (2, 3), (1, 3)]), _LOOP, {1: frozenset({1, 2, 3})}, {0: 2})
    model.validate()
    # the loop's image, edge 2 (1-3), closes through 3-2-1
    assert lift_cycle(model, frozenset({0})) == frozenset({0, 1, 2})


@pytest.mark.parametrize("host, pattern, found", [
    (from_pairs([(1, 2), (2, 3), (1, 3)]), _LOOP, True),
    (complete_graph(4), MultiGraph([1, 2], [(0, 1, 1), (1, 1, 2)]), True),
    (complete_graph(4), MultiGraph([1], [(0, 1, 1), (1, 1, 1)]), True),
    (from_pairs([(1, 3)]), _LOOP, False),
], ids=["triangle has a loop", "K4 has a loop and an edge", "K4 has two loops at a vertex",
        "an edge has no loop"])
def test_has_minor_finds_loop_patterns(host, pattern, found):
    # a loop needs a parallel copy beside the edge whose contraction makes it
    model = has_minor(host, pattern)
    assert (model is not None) == found
    if model is not None:
        model.validate()
        for c in all_cycles(pattern):
            cycle_walk(host, lift_cycle(model, c))
