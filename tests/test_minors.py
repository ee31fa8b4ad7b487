"""Minor search, script verification, and cycle lifting through models."""

import pytest

from spatialgraphs import minors
from spatialgraphs.canon import is_isomorphic
from spatialgraphs.catalog import (
    d4_in_n9_model,
    family_member,
    fixture,
    reduction_scripts,
)
from spatialgraphs.cycles import disjoint_cycle_tuples, lift_cycles, parse_cycle
from spatialgraphs.minors import has_minor, one_step_reductions, verify_minor_script
from spatialgraphs.multigraph import (
    ContractEdge,
    DeleteEdge,
    GraphError,
    ReductionScript,
    complete_graph,
)


def lift_image(host, src_name, tgt_name, script):
    chk = verify_minor_script(fixture(src_name), script, family_member(tgt_name))
    assert chk.ok
    tuples = disjoint_cycle_tuples(chk.model.pattern, 2)
    return set(lift_cycles(chk.model, tuples).values())


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
        chk = verify_minor_script(fixture(src), script, family_member(tgt))
        assert chk.ok, (src, tgt)
        chk.model.validate()


def test_wrong_script_reports_not_ok(n9):
    bad = ReductionScript([DeleteEdge(1, 2), DeleteEdge(1, 3), ContractEdge(4, 5)])
    chk = verify_minor_script(n9, bad, complete_graph(6))
    assert not chk.ok


def test_script_result_is_isomorphic_to_target(n9):
    src, tgt, script = reduction_scripts()[0]
    chk = verify_minor_script(fixture(src), script, family_member(tgt))
    assert is_isomorphic(chk.model.pattern, family_member(tgt)) is not None


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
