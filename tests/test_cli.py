"""Command line interface, run in process."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatialgraphs
from spatialgraphs import claims, cli
from spatialgraphs.catalog import fixture, fixture_names
from spatialgraphs.cycles import parse_cycle
from spatialgraphs.invariants import parse_gauss
from spatialgraphs.multigraph import GraphError, complete_graph, format_edge_list, parse_edge_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_families_census_lines(capsys):
    code, out, _ = run(capsys, "families", "--seed", "K6")
    assert code == 0
    assert "7 classes" in out
    code, out, _ = run(capsys, "families", "--seed", "K7")
    assert code == 0
    assert "20 classes" in out


def test_families_triangle_to_star_only(capsys):
    code, out, _ = run(capsys, "families", "--seed", "K7", "--moves", "dy")
    assert code == 0
    assert "14 classes" in out


def test_families_rejects_unknown_move(capsys):
    code, _, err = run(capsys, "families", "--seed", "K6", "--moves", "xy")
    assert code == 2
    assert "unknown move" in err


def test_families_manifest_output(capsys, tmp_path):
    out_dir = tmp_path / "pet"
    code, _, _ = run(capsys, "families", "--seed", "K6", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["collapse_convention"] == "skip"
    names = {m["name"] for m in manifest["members"]}
    assert names == {"K6", "P7", "Y7", "K44me", "P8", "P9", "P10"}
    for name in names:
        g = parse_edge_list((out_dir / f"{name}.edges").read_text())
        assert g.edge_count == 15


def test_families_json_format(capsys):
    names = {}
    for moves in ("dy,yd", "yd,dy"):
        code, out, _ = run(capsys, "families", "--seed", "K6", "--moves", moves, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["members"]) == 7
        assert payload["moves"] == moves.split(",")
        names[moves] = [m["name"] for m in payload["members"]]
    # the move set names the catalog family in either order
    assert names["yd,dy"] == names["dy,yd"]
    assert None not in names["dy,yd"]


def test_manifest_moves_are_the_kinds_run_in_order(capsys, tmp_path):
    # the report echoes --moves as given; the manifest names the closure run
    seed = tmp_path / "k6.edges"
    seed.write_text(format_edge_list(fixture("K6")))
    for argv, out_dir in ((["--seed", "K6", "--moves", "yd,dy"], tmp_path / "catalog"),
                          (["--seed", str(seed), "--moves", "yd,dy,yd"], tmp_path / "file")):
        code, _, _ = run(capsys, "families", *argv, "--out", str(out_dir))
        assert code == 0
        assert json.loads((out_dir / "manifest.json").read_text())["moves"] == ["dy", "yd"]


# claim id -> the fixtures whose certificates its report carries, in
# `verify list` order
CLAIM_INPUTS = {
    "petersen-family": ("K6", "PetersenRef"),
    "heawood-family": ("K7",),
    "k3311-counts": ("K3311",),
    "theorem1-equivalence": ("K7",),
    "prop24-phi": ("K7", "N9"),
    "minor-scripts": ("N9", "N'10", "K6"),
    "apex-proper-minors": ("K7",),
    "c14-identification": ("K7", "HeawoodRef"),
    "invariant-oracle": ("Trefoil", "Fig8", "Hopf"),
    "conway-gordon": ("K6", "K7"),
    "conway-gordon-k6": ("K6",),
    "conway-gordon-k7": ("K7",),
    "petersen-lk": ("K6",),
    "d4-lemma": ("D4", "N9"),
    "n9fn-dichotomy": ("N9", "N'10"),
}


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "list")
    assert code == 0
    assert out == "".join(f"{cid}\n" for cid in CLAIM_INPUTS)


def test_claim_inputs_are_declared_fixtures():
    assert {cid: fn.inputs for cid, fn in claims.CLAIMS.items()} == CLAIM_INPUTS
    names = set(fixture_names())
    assert all(set(inputs) <= names for inputs in CLAIM_INPUTS.values())


def test_verify_pass_and_report(capsys):
    code, out, _ = run(
        capsys, "verify", "petersen-family", "--format", "json", "--seed", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "PASS"
    assert report["claim"] == "petersen-family"
    assert report["seed"] == 0
    assert "version" in report and "python" in report
    assert report["inputs"]  # pinned input certificates travel with the verdict


@pytest.mark.parametrize("argv, lines", [
    # evidence of nested dicts
    (["verify", "invariant-oracle", "--trials", "2"],
     ["claim: invariant-oracle", "  trefoil:", "    conway:", "      2: 1", "  mismatches: []"]),
    # a list of tuples
    (["verify", "heawood-family"],
     ["result: PASS", "  members:", "    - ('C11', 11)", "    - (\"N'10\", 10)"]),
    # a list of rows, printed as a table
    (["spatial", "--graph", "K6", "--check", "cg-k6", "--trials", "2"],
     ["check: cg-k6", "    all_odd_parity: True", "    trial  parity  odd_witnesses",
      "    1      1       3"]),
], ids=["nested dicts", "list", "table"])
def test_text_format_is_the_default(capsys, argv, lines):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    printed = [line.rstrip() for line in out.splitlines()]
    assert all(line in printed for line in lines), out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "petersen-families")
    assert code == 2
    assert "unknown claim" in err


def test_spatial_d4_enumeration(capsys):
    code, out, _ = run(
        capsys, "spatial", "--graph", "D4", "--check", "d4-lemma",
        "--enumerate", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["evidence"]["verdict"]["both_odd_cases"] == 128
    assert report["evidence"]["verdict"]["all_alpha_one"] is True


def test_spatial_shape_guard(capsys):
    code, _, err = run(capsys, "spatial", "--graph", "K6", "--check", "n9fn")
    assert code == 2
    assert "must be one of" in err


@pytest.mark.parametrize("graph,check,trials", [
    ("K6", "cg-k6", "12"),
    ("N9", "n9fn", "4"),
    ("PetersenRef", "petersen-lk", "4"),
], ids=["cg-k6", "n9fn", "petersen-lk"])
def test_spatial_jobs_deterministic(capsys, graph, check, trials):
    argv = ["spatial", "--graph", graph, "--check", check,
            "--trials", trials, "--seed", "9", "--format", "json"]
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def _times(ctx, i):
    return ctx * i


@pytest.mark.parametrize("jobs,trials,cpus,workers", [
    (1000, 1000, 4, 4),
    (3, 2, 4, 2),
    (3, 12, None, None),
    (1, 12, 4, None),
])
def test_pool_is_bounded_by_the_machine(monkeypatch, jobs, trials, cpus, workers):
    started = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(i) for i in items]

    monkeypatch.setattr(claims.mp, "Pool", SerialPool)
    monkeypatch.setattr(claims.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(claims, "_worker_task", None)
    assert claims._map_trials(_times, 3, trials, jobs) == [3 * i for i in range(trials)]
    assert started == ([] if workers is None else [workers])


def _without_run_fields(report):
    return {k: v for k, v in report.items() if k not in ("elapsed_s", "jobs")}


def _assert_spawned_jobs_match_serial(capsys, argv):
    code, out, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 0
    serial = json.loads(out)
    script = (
        "import multiprocessing, sys\n"
        "from spatialgraphs import cli\n"
        "multiprocessing.set_start_method('spawn')\n"
        f"sys.exit(cli.main({argv + ['--jobs', '2']!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(spatialgraphs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spawned = json.loads(proc.stdout)
    assert _without_run_fields(spawned) == _without_run_fields(serial)
    return spawned


def test_verify_jobs_under_spawn_matches_serial(capsys):
    spawned = _assert_spawned_jobs_match_serial(
        capsys, ["verify", "conway-gordon-k6", "--trials", "4", "--seed", "1", "--format", "json"])
    assert spawned["jobs"] == 2


def test_cli_runs_without_networkx():
    # networkx is a test oracle only: with its import blocked, a fresh
    # interpreter still imports the CLI and passes the planarity claim
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from spatialgraphs import cli\n"
        "assert [m for m in sys.modules if m.startswith('networkx')] == ['networkx']\n"
        "sys.exit(cli.main(['verify', 'apex-proper-minors', '--format', 'json']))\n"
    )
    src = os.path.dirname(os.path.dirname(spatialgraphs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == "PASS"


def test_spatial_a2_jobs_under_spawn_matches_serial(capsys):
    # each worker unpickles the projection and fills its own copy of the
    # memo; cg-k6 reads only cycle walks, cg-k7 also a2 forms
    _assert_spawned_jobs_match_serial(
        capsys, ["spatial", "--graph", "K7", "--check", "cg-k7", "--trials", "4", "--format", "json"])


# sha256 of each JSON report with its wall-clock and interpreter-version
# fields dropped.  The first five were recorded before the trial loops of
# `verify` and `spatial` were merged into one engine; the cg-k7, d4-lemma,
# prop24-phi and apex-proper-minors pins before the cycle walks, the
# disjoint-cycle searches and the parity trials were each merged into one;
# the invariant-oracle pin, the one report written from extract_gauss's
# codes, before the crossing signs were read off per-cycle masks
PINNED_REPORTS = {
    "spatial --graph PetersenRef --check petersen-lk --trials 3 --seed 5":
        "44eed743555043b87040f7037d818af3366017ca9a9b7b85f69247df3037c0bd",
    "spatial --graph D4 --check d4-lemma --trials 20 --seed 3":
        "af6dfee7322952bb887686186641d31b0e6b07b08fcefe64410be8a02eefbdfe",
    # no trial meets the premise: a FAIL, as verify reads no row at all
    "spatial --graph D4 --check d4-lemma --trials 1 --seed 0":
        "d736ef8cfa4943b28c87b06bb5c56d077e774eca4f57840f2d65c87f3bb12146",
    "spatial --graph N9 --check n9fn --trials 3 --seed 2":
        "4b470a724a99e797b356f2f444d19747a224777031b6bc7ae9f8cac4ae7a88cc",
    "verify conway-gordon-k6 --trials 4 --seed 1":
        "bf9f6bcf809bbf0edf3de8af00083b4a64724d76dc7d778380171c9fda309387",
    "verify n9fn-dichotomy --trials 2 --seed 4":
        "7248362c8f866303555725932804c5227eab56f7dca6426f23be7c260632ecb6",
    "spatial --graph K7 --check cg-k7 --trials 2 --seed 1":
        "3f717f6ce93a34135e899c4984e3d4c3e0330b55ef4dc9ecc0401f6030d30f31",
    "verify d4-lemma --trials 4 --seed 0":
        "d108d10453b9b6eeba03b99ca6b72287151ef3775b629c9c2ec4aa4cc3c75263",
    "verify prop24-phi --seed 0":
        "ba687b7daaa63fd32fc29e30365dc3402c822fb257e9a5a398b7dfd18705b87a",
    "verify apex-proper-minors --seed 0":
        "ff153071f451320ca8279c0c124468d526fc63e4e3b4d1ffa2ad459773bbae12",
    "verify invariant-oracle --trials 5 --seed 1":
        "b3ef9bc7979c04fad2e84b36b213d1113df0acfead392583ad72e75ae251bddc",
}

# sha256 of the manifest.json written by `families --seed K6 --out`
PINNED_K6_MANIFEST = "7d89872b20723568e8d6d3953d13727dafd7a186cd097f35e27ae2b6ef2b5b2c"

# sha256 of the stdout of `families` runs outside the cached catalog
# families, and of the manifest written for an edge-list file of N9 (the
# report would carry the file's path), recorded while the flags came from a
# separate triangle-to-star-only closure
PINNED_FAMILIES = {
    "families --seed K7 --moves dy --format json":
        "5c3589d5a3cd6ff2bb90dce1e6d9f73fd595f5f7cdf2fb951df7d865b40bde0f",
    "families --seed K6 --moves yd --format json":
        "596070df76cae10b26052bfddc034782f47201478be8dc1e0689e0a017db1c57",
}
PINNED_N9_FILE_MANIFEST = "93a3cff3ca617622d37c9a080a0dc73fe519d67c1b13d5bf751512b1df854243"


@pytest.mark.parametrize("call", sorted(PINNED_REPORTS))
def test_reports_match_pins(capsys, call):
    code, out, _ = run(capsys, *call.split(), "--format", "json")
    report = {k: v for k, v in json.loads(out).items() if k not in ("elapsed_s", "python")}
    assert code == {"PASS": 0, "FAIL": 1}[report["result"]]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_REPORTS[call]


def test_manifest_matches_pin(capsys, tmp_path):
    code, _, _ = run(capsys, "families", "--seed", "K6", "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == PINNED_K6_MANIFEST


@pytest.mark.parametrize("call", sorted(PINNED_FAMILIES))
def test_families_match_pins(capsys, call):
    code, out, _ = run(capsys, *call.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FAMILIES[call]


def test_file_seed_manifest_matches_pin(capsys, tmp_path):
    seed = tmp_path / "n9.edges"
    seed.write_text(format_edge_list(fixture("N9")))
    code, _, _ = run(capsys, "families", "--seed", str(seed), "--out", str(tmp_path / "fam"))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "fam" / "manifest.json").read_bytes()).hexdigest()
    assert digest == PINNED_N9_FILE_MANIFEST


@pytest.mark.parametrize("labels", [
    [-6, -5, -4, -3, -2, -1],
    [10**12 + i for i in range(6)],
], ids=["negative", "large"])
def test_spatial_takes_any_vertex_labels(capsys, tmp_path, labels):
    graph = tmp_path / "k6.edges"
    graph.write_text(format_edge_list(complete_graph(6, labels)))
    code, out, err = run(capsys, "spatial", "--graph", str(graph), "--check", "cg-k6",
                         "--trials", "3", "--seed", "1", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["result"] == "PASS"
    assert report["evidence"]["verdict"]["trials"] == 3


NO_TRIAL_CLAIMS = ("petersen-family", "heawood-family", "k3311-counts", "theorem1-equivalence",
                   "prop24-phi", "minor-scripts", "apex-proper-minors", "c14-identification")


def test_trial_claims_are_the_sampling_claims():
    trial_claims = {cid for cid, fn in claims.CLAIMS.items() if fn.takes_trials}
    assert trial_claims == set(claims.CLAIMS) - set(NO_TRIAL_CLAIMS)


@pytest.mark.parametrize("argv", [
    ["spatial", "--graph", "K6", "--check", "cg-k6", "--trials", "-3"],
    ["spatial", "--graph", "K6", "--check", "cg-k6", "--trials", "0"],
    ["spatial", "--graph", "D4", "--check", "d4-lemma", "--enumerate", "--trials", "0"],
    ["spatial", "--graph", "K6", "--check", "cg-k6", "--trials", "2", "--jobs", "0"],
    ["spatial", "--graph", "K6", "--check", "cg-k6", "--enumerate", "--trials", "2"],
    ["spatial", "--graph", "K6", "--check", "cg-k6", "--enumerate"],
    ["spatial", "--graph", "D4", "--check", "d4-lemma", "--enumerate", "--trials", "5"],
    ["verify", "petersen-lk", "--trials", "-1"],
    ["verify", "n9fn-dichotomy", "--trials", "-2"],
    ["verify", "conway-gordon-k6", "--trials", "-1"],
    ["verify", "conway-gordon-k6", "--trials", "0"],
    ["verify", "invariant-oracle", "--trials", "0"],
    ["verify", "petersen-family", "--trials", "0"],
    ["verify", "conway-gordon-k6", "--trials", "2", "--jobs", "-1"],
    # a claim that runs no trials takes no --trials, though it takes --jobs
    *(["verify", claim, "--trials", "5", "--jobs", "1"] for claim in NO_TRIAL_CLAIMS),
    # Gauss-code fixtures are not graphs
    ["spatial", "--graph", "Hopf", "--check", "cg-k6"],
    ["families", "--seed", "Trefoil"],
    ["families", "--seed", "K6", "--jobs", "0"],
], ids=" ".join)
def test_bad_trial_or_job_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_knot_seed_env_is_default(capsys, monkeypatch):
    monkeypatch.setenv("KNOT_SEED", "31")
    code, out, _ = run(capsys, "verify", "petersen-family", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 31


def test_bad_knot_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("KNOT_SEED", "abc")
    code, out, err = run(capsys, "verify", "petersen-family")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "KNOT_SEED" in err


def test_unknown_claim_with_bad_knot_seed_exits_2(capsys, monkeypatch):
    # the seed is read before the claim is looked up, so its error wins
    monkeypatch.setenv("KNOT_SEED", "abc")
    code, out, err = run(capsys, "verify", "petersen-families")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "KNOT_SEED" in err


@pytest.mark.parametrize("content,message", [
    (b"vertices 2\n1 x\n", "line 2: vertex label 'x' is not an integer"),
    (b"vertices 1\nvertex y\n", "line 2: vertex label 'y' is not an integer"),
    (b"vertices 2\n0 1 # \xff\n", "not a UTF-8 text file"),
    ("vertices \u00b2\n".encode(), "line 1: expected 'vertices <n>'"),
], ids=["edge", "vertex", "not-utf8", "header"])
@pytest.mark.parametrize("command", [
    ["families", "--seed"],
    ["spatial", "--check", "cg-k6", "--graph"],
], ids=["families", "spatial"])
def test_bad_edge_list_file_exits_2(capsys, tmp_path, content, message, command):
    graph = tmp_path / "bad.edges"
    graph.write_bytes(content)
    code, out, err = run(capsys, *command, str(graph))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# lines of up to three tokens from the edge-list, cycle and Gauss code
# notations and some that fit none of them
_TOKEN_SOUP = st.lists(
    st.lists(st.sampled_from([
        "vertices", "vertex", "0", "1", "2", "-1", "-", "--1", "x", "\u00b2",
        "c1o+", "c1u-", "c2", "/", "[", "]", "[1", "2]", "#",
    ]), max_size=3).map(" ".join),
    max_size=4,
).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(_TOKEN_SOUP)
def test_outside_input_parsers_raise_only_graph_error(text):
    k4 = complete_graph(4)
    for parse in (parse_edge_list, parse_gauss, lambda t: parse_cycle(k4, t),
                  lambda t: parse_cycle(k4, f"[{t}]")):
        try:
            parse(text)
        except GraphError:
            pass


def test_missing_graph_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "families", "--seed", str(tmp_path / "nope.edges"))
    assert code == 2
    assert "error" in err
