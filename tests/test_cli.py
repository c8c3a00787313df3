from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oneplanar import (
    gen_random_oneplanar,
    named_instance,
    save_drawing,
    write_drawing_json,
    write_graph6,
)
from oneplanar.cli import GEN_N_MAX, main
from oneplanar.model import AbstractGraph

from conftest import without_uncrossed_edges


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "oneplanar", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def octa_file(tmp_path):
    p = tmp_path / "octa.drawing.json"
    save_drawing(named_instance("octahedron"), p)
    return p


def test_gen_and_validate(tmp_path):
    out = tmp_path / "d.json"
    r = run_cli("gen", "--kind", "random_oneplanar", "--n", "25", "--seed", "4",
                "--fraction", "1/4", "-o", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["n"] == 25
    r2 = run_cli("validate", str(out))
    assert r2.returncode == 0
    rep = json.loads(r2.stdout)
    assert rep["valid"] and rep["edge_bound"]["passed"]


def test_gen_named(tmp_path):
    out = tmp_path / "k6.json"
    r = run_cli("gen", "--kind", "named", "--name", "k6_1planar", "-o", str(out))
    assert r.returncode == 0
    assert json.loads(r.stdout)["crossings"] == 3


def test_validate_reports_failure(tmp_path):
    kite = named_instance("kite")
    doc = json.loads(write_drawing_json(kite))
    doc["rotation"]["4"] = [doc["rotation"]["4"][i] for i in (0, 2, 1, 3)]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("validate", str(p))
    assert r.returncode == 1
    assert not json.loads(r.stdout)["valid"]


def test_triangulate_roundtrip(tmp_path):
    src = tmp_path / "kite.json"
    save_drawing(named_instance("kite"), src)
    out = tmp_path / "kite_t.json"
    prov = tmp_path / "prov.json"
    r = run_cli("triangulate", str(src), "-o", str(out), "--provenance", str(prov))
    assert r.returncode == 0
    assert json.loads(r.stdout)["canonical"]
    assert json.loads(prov.read_text())["added_kite_edges"]
    r2 = run_cli("validate", str(out))
    assert r2.returncode == 0


def _assert_triangulate_refused(tmp_path, d, message):
    src = tmp_path / "refused.json"
    save_drawing(d, src)
    r = run_cli("triangulate", str(src), "-o", str(tmp_path / "out.json"))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "TriangulationError", "message": message}
    assert not (tmp_path / "out.json").exists()


def test_triangulate_refusal_is_one_json_line(tmp_path):
    from test_triangulation import QUAD_LOST_MESSAGE, STEP2_QUAD_LOST

    _assert_triangulate_refused(tmp_path, STEP2_QUAD_LOST, QUAD_LOST_MESSAGE)


def test_triangulate_refuses_a_disconnecting_deletion(tmp_path):
    from test_triangulation import DISCONNECTS_MESSAGE, STEP2_DISCONNECTS

    _assert_triangulate_refused(tmp_path, STEP2_DISCONNECTS, DISCONNECTS_MESSAGE)


def test_census(octa_file):
    r = run_cli("census", str(octa_file), "--vertex", "0")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["labels"] == ["normal"] * 4
    assert doc["crossing_count"] == 0


# sha256 of "<exit code>\n<stdout>" of `census --vertex v` for every vertex v in
# order, per input and format; the thinned copy is not canonical, so its
# census runs on the triangulated graph
CENSUS_PINS = {
    "k6_1planar": (
        "93d2cb8f8fdc157ef39ac696165f718709afc96a8579c26d654a70eddf013647",
        "9dd35af7f6546a5b172547242fbd110e9f52365ede4af71c2d34de4f6f8f42e0",
    ),
    "gen-40-1/2-3": (
        "16ab00d462fbf5aed2650b382bc1f270b72b1178bdfe52f2daf007e57730f83a",
        "672c0681fe9ade244b37fac812a6f2feac976a24a4adb5ef2065f2c7934c3dbc",
    ),
    "thinned-40-1/2-3": (
        "d3f5628d749a26e3ffc5f23d7390e1c9a1b08b82c1f5f8da00cb4bf83961fd28",
        "42bec4c16d55e6dda584c330f08f2d338a0081faa9f81353bc5df5a8c5867dea",
    ),
}


def _census_input(name: str):
    if name == "k6_1planar":
        return named_instance(name)
    d = gen_random_oneplanar(40, Fraction(1, 2), 3)
    return without_uncrossed_edges(d, 2) if name.startswith("thinned") else d


@pytest.mark.parametrize("name", sorted(CENSUS_PINS))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_census_output_pinned(tmp_path, capsys, name, fmt):
    d = _census_input(name)
    path = tmp_path / "d.json"
    save_drawing(d, path)
    h = hashlib.sha256()
    for v in range(d.n):
        code = main(["census", str(path), "--vertex", str(v), "--format", fmt])
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == CENSUS_PINS[name][fmt == "text"]


def test_find_config_drawing_and_g6(tmp_path, octa_file):
    r = run_cli("find-config", str(octa_file))
    assert r.returncode == 0 and json.loads(r.stdout)["kind"] == "C3"
    g6 = tmp_path / "k9.g6"
    k9 = AbstractGraph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    g6.write_text(write_graph6(k9) + "\n", encoding="utf-8")
    r2 = run_cli("find-config", str(g6))
    assert r2.returncode == 1
    assert "ConfigurationNotFound" in r2.stderr


def test_light(octa_file):
    r = run_cli("light", "--shape", "p3", str(octa_file))
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["path"]) == 3
    r2 = run_cli("light", "--shape", "s3", str(octa_file))
    assert r2.returncode == 1  # min degree 4 < 5


def test_discharge(octa_file, tmp_path):
    tr = tmp_path / "transcript.json"
    r = run_cli("discharge", str(octa_file), "--transcript", str(tr))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["final_total"] == "-8" and doc["total_is_minus8"]
    assert doc["vertex_charges"]["0"] == "-4/3"
    assert len(json.loads(tr.read_text())) == doc["transfers"]


def test_color_verify_oracle(octa_file, tmp_path):
    col = tmp_path / "coloring.json"
    r = run_cli("color", str(octa_file), "-o", str(col))
    assert r.returncode == 0 and json.loads(r.stdout)["verified"]
    r2 = run_cli("verify", str(octa_file), str(col))
    assert r2.returncode == 0 and json.loads(r2.stdout)["ok"]
    r3 = run_cli("oracle", str(octa_file), "--limit", "10")
    assert r3.returncode == 0 and json.loads(r3.stdout)["chi_a"] == 6
    # corrupt the coloring: verify must fail
    doc = json.loads(col.read_text())
    doc["edges"][0][2] = doc["edges"][1][2]
    col.write_text(json.dumps(doc), encoding="utf-8")
    r4 = run_cli("verify", str(octa_file), str(col))
    assert r4.returncode == 1


def test_missing_file_is_usage_error():
    r = run_cli("validate", "no-such-file.json")
    assert r.returncode == 2


ALL_CHECKS = ["validate", "edge-bound", "triangulate", "find-config", "light-p3", "light-s3",
              "discharge", "color", "oracle"]


def test_run_suite(tmp_path):
    k6 = AbstractGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    k9 = AbstractGraph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    manifest = {
        "entries": [
            {"name": "octahedron", "input": {"kind": "named", "name": "octahedron"},
             "checks": ALL_CHECKS},
            {"name": "k6", "input": {"kind": "g6", "text": write_graph6(k6)},
             "checks": ALL_CHECKS},
            {"name": "k9", "input": {"kind": "g6", "text": write_graph6(k9)},
             "checks": ["find-config"]},
        ]
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    r = run_cli("run-suite", str(mpath), "--report", str(tmp_path / "rep.json"))
    assert r.returncode == 1  # recorded failures
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert r.stdout == json.dumps(rep, sort_keys=True, indent=2) + "\n"
    got = {
        e["name"]: (e["input_digest"], [(c["check"], c["status"], c["detail"]) for c in e["results"]])
        for e in rep["entries"]
    }
    assert got["octahedron"] == (
        "b7f5c936a128e4e1b792c56e28383073a6dc9ff411e00ceee11ee5db023bba45",
        [
            ("validate", "pass", {"violations": []}),
            ("edge-bound", "pass", {"e": 12, "bound": 16}),
            ("triangulate", "pass", {"canonical": True, "idempotent": True}),
            ("find-config", "pass", {"kind": "C3", "center": 0}),
            ("light-p3", "pass", {"path": [1, 0, 2]}),
            ("light-s3", "fail", {"error": "light 3-star needs minimum degree 5, got 4"}),
            ("discharge", "pass", {"total": "-8", "negatives": 6}),
            ("color", "pass", {"colors_used": 8, "L": 87}),
            ("oracle", "pass", {"chi_a": 6, "limit": 87}),
        ],
    )
    no_drawing = ("fail", {"error": "check needs a drawing input"})
    assert got["k6"] == (
        "e121f3992397cffbc3605e987622659508b857c1b5229ea8c37f819d76ca0ce2",
        [
            ("validate", *no_drawing),
            ("edge-bound", *no_drawing),
            ("triangulate", *no_drawing),
            ("find-config", "pass", {"kind": "C4", "center": 0}),
            ("light-p3", "pass", {"path": [1, 0, 2]}),
            ("light-s3", "pass", {"center": 0, "leaves": [1, 2, 3]}),
            ("discharge", *no_drawing),
            ("color", "pass", {"colors_used": 11, "L": 88}),
            ("oracle", "pass", {"chi_a": 7, "limit": 88}),
        ],
    )
    assert got["k9"][1] == [
        ("find-config", "fail",
         {"error": "no vertex matches any configuration; the input is not 1-planar (or a bug)"}),
    ]
    assert rep["failures"] == 6


OCTAHEDRON_DOCS = {
    ("validate",): {
        "valid": True,
        "violations": [],
        "stats": {"components": 1, "crossings": 0, "e": 12, "e_planarization": 12, "faces": 8,
                  "genus": 0, "n": 6},
        "edge_bound": {"passed": True, "vacuous": False, "e": 12, "bound": 16},
    },
    ("find-config",): {
        "kind": "C3", "center": 0, "neighbors": [1, 2, 3, 5], "neighbor_degrees": [4, 4, 4, 4],
    },
    ("light", "--shape", "p3"): {"shape": "p3", "path": [1, 0, 2], "degrees": [4, 4, 4]},
    ("discharge",): {
        "initial_total": "-8",
        "final_total": "-8",
        "total_is_minus8": True,
        "special_faces": 0,
        "transfers": 24,
        "negatives": [f"v{v}" for v in range(6)],
        "vertex_charges": {str(v): "-4/3" for v in range(6)},
    },
    ("oracle",): {"limit": 87, "chi_a": 6, "exceeded": False},
}


@pytest.mark.parametrize("command", list(OCTAHEDRON_DOCS), ids=" ".join)
def test_subcommand_documents(octa_file, command):
    r = run_cli(*command, str(octa_file))
    assert r.returncode == 0, r.stderr
    assert r.stdout == json.dumps(OCTAHEDRON_DOCS[command], sort_keys=True, indent=2) + "\n"


def test_run_suite_empty_manifest(tmp_path):
    mpath = tmp_path / "empty.json"
    mpath.write_text('{"entries": []}', encoding="utf-8")
    r = run_cli("run-suite", str(mpath))
    assert r.returncode == 0
    assert json.loads(r.stdout)["failures"] == 0


def test_run_suite_thread_cap_preserves_report(tmp_path):
    import os

    manifest = {
        "entries": [
            {"name": f"g{i}", "input": {"kind": "gen", "generator": "random_oneplanar",
                                        "n": 20 + i, "seed": i, "fraction": "1/4"},
             "checks": ["validate", "color"]}
            for i in range(4)
        ]
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k != "elapsed_s"}
        if isinstance(o, list):
            return [strip(x) for x in o]
        return o

    env = dict(os.environ)
    env["ONEPLANAR_THREADS"] = "3"
    r_par = subprocess.run(
        [sys.executable, "-m", "oneplanar", "run-suite", str(mpath)],
        capture_output=True, text=True, env=env,
    )
    r_seq = run_cli("run-suite", str(mpath))
    assert r_par.returncode == r_seq.returncode == 0
    a, b = json.loads(r_par.stdout), json.loads(r_seq.stdout)
    assert strip(a) == strip(b)
    assert [e["name"] for e in a["entries"]] == [f"g{i}" for i in range(4)]


def test_run_suite_missing_input_recorded(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(
        json.dumps({"entries": [{"name": "gone", "input": {"kind": "file", "path": "nope.json"},
                                 "checks": ["validate"]}]}),
        encoding="utf-8",
    )
    r = run_cli("run-suite", str(mpath))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["entries"][0]["results"][0]["status"] == "error"


def _assert_input_error(r):
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and "message" in json.loads(lines[0])


def test_incomplete_drawing_is_unusable_input(tmp_path):
    p = tmp_path / "short.json"
    p.write_text('{"n": 2}', encoding="utf-8")
    _assert_input_error(run_cli("validate", str(p)))


def test_refused_token_is_unusable_input(tmp_path):
    doc = json.loads(write_drawing_json(named_instance("kite")))
    doc["rotation"]["0"][0] = [0, 1, "whole"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("validate", str(p))
    _assert_input_error(r)
    assert "rotation.0[0]" in json.loads(r.stderr)["message"]


def _run_capped(*args):
    # under an address-space cap, a regression that allocates for a huge n
    # ends in a quick MemoryError (exit 1) instead of a 20 GB allocation
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "oneplanar", *args],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_huge_vertex_count_is_unusable_input(tmp_path):
    # the rotation size is compared with n before anything is allocated for
    # n vertices
    p = tmp_path / "huge.json"
    p.write_text('{"n": 100000000, "edges": [], "crossings": [], "rotation": {}}', encoding="utf-8")
    r = _run_capped("validate", str(p))
    _assert_input_error(r)
    assert "rotation" in json.loads(r.stderr)["message"]


def test_short_coloring_record_is_unusable_input(octa_file, tmp_path):
    col = tmp_path / "coloring.json"
    col.write_text(json.dumps({"L": 6, "edges": [[0, 1]]}), encoding="utf-8")
    _assert_input_error(run_cli("verify", str(octa_file), str(col)))


@pytest.mark.parametrize("kind", ["random_oneplanar", "plane_triangulation"])
def test_gen_over_the_size_cap_is_unusable_input(tmp_path, kind):
    out = tmp_path / "d.json"
    for n in (GEN_N_MAX + 1, 100_000_000):
        r = _run_capped("gen", "--kind", kind, "--n", str(n), "-o", str(out))
        _assert_input_error(r)
        assert str(GEN_N_MAX) in json.loads(r.stderr)["message"]
        assert not out.exists()


def test_run_suite_records_an_over_cap_entry_only(tmp_path):
    huge = {"name": "huge", "input": {"kind": "gen", "n": 10**30, "seed": 1},
            "checks": ["validate"]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"entries": [huge, GOOD_ENTRY]}), encoding="utf-8")
    r = _run_capped("run-suite", str(mpath))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    rep = json.loads(r.stdout)
    assert rep["failures"] == 1
    huge_entry, good_entry = rep["entries"]
    assert huge_entry["results"][0]["check"] == "input"
    assert huge_entry["results"][0]["status"] == "error"
    assert str(GEN_N_MAX) in huge_entry["results"][0]["detail"]["message"]
    assert good_entry["results"][0]["status"] == "pass"


GOOD_ENTRY = {"name": "good", "input": {"kind": "named", "name": "octahedron"},
              "checks": ["validate"]}


@pytest.mark.parametrize("bad", [
    {"name": "bad", "input": {"kind": "gen", "n": "ten", "seed": 1}, "checks": ["validate"]},
    {"name": "bad", "input": {"kind": "g6", "text": 5}, "checks": ["find-config"]},
    "oops",
    {"name": "bad", "input": {"kind": "file", "path": "a\u0000b.json"}, "checks": ["validate"]},
    {"name": "bad", "input": {"kind": "named", "name": "k4"}, "checks": ["oracle"],
     "oracle_limit": "9"},
    {"name": "bad", "input": {"kind": "gen", "n": 10, "seed": 1, "fraction": True},
     "checks": ["validate"]},
], ids=["gen-n-string", "g6-text-int", "entry-string", "path-nul", "oracle-limit-string",
        "gen-fraction-bool"])
def test_run_suite_wrong_typed_entry_is_recorded(tmp_path, bad):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"entries": [bad, GOOD_ENTRY]}), encoding="utf-8")
    r = run_cli("run-suite", str(mpath))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    rep = json.loads(r.stdout)
    assert rep["failures"] == 1
    bad_entry, good_entry = rep["entries"]
    assert bad_entry["input_digest"] is None
    assert [c["check"] for c in bad_entry["results"]] == ["input"]
    assert bad_entry["results"][0]["status"] == "error"
    assert good_entry["results"] == [{"check": "validate", "status": "pass",
                                      "detail": {"violations": []}}]


@pytest.mark.parametrize("manifest", [[], {"entries": {"name": "x"}}], ids=["list", "entries-dict"])
def test_malformed_manifest_is_unusable_input(tmp_path, manifest):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    _assert_input_error(run_cli("run-suite", str(mpath)))


@pytest.mark.parametrize("fraction", ["abc", "1/0"])
def test_gen_bad_fraction_is_unusable_input(tmp_path, fraction):
    out = tmp_path / "d.json"
    _assert_input_error(run_cli("gen", "--kind", "random_oneplanar", "--n", "10",
                                "--fraction", fraction, "-o", str(out)))
    assert not out.exists()


def test_census_vertex_out_of_range_is_unusable_input(octa_file):
    _assert_input_error(run_cli("census", str(octa_file), "--vertex", "99"))


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_repeated_coloring_record_is_unusable_input(tmp_path, first):
    k4 = tmp_path / "k4.json"
    save_drawing(named_instance("k4"), k4)
    col = tmp_path / "coloring.json"
    assert run_cli("color", str(k4), "-o", str(col)).returncode == 0
    doc = json.loads(col.read_text())
    color_02 = next(c for u, v, c in doc["edges"] if (u, v) == (0, 2))
    # edge 0-1 again, reversed, with a color that clashes at vertex 0
    extra = [1, 0, color_02]
    doc["edges"] = [extra, *doc["edges"]] if first else [*doc["edges"], extra]
    col.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("verify", str(k4), str(col))
    _assert_input_error(r)
    index = 0 if first else len(doc["edges"]) - 1
    assert f"edges[{index}]" in json.loads(r.stderr)["message"]


def test_repeated_list_record_is_unusable_input(tmp_path):
    k4 = tmp_path / "k4.json"
    save_drawing(named_instance("k4"), k4)
    records = [[u, v, list(range(90))] for u in range(4) for v in range(u + 1, 4)]
    lists = tmp_path / "lists.json"
    extra = [3, 2, list(range(5, 95))]  # edge 2-3 again, reversed, with another usable list
    lists.write_text(json.dumps({"edges": [*records, extra]}), encoding="utf-8")
    r = run_cli("color", str(k4), "--lists", str(lists))
    _assert_input_error(r)
    assert f"edges[{len(records)}]" in json.loads(r.stderr)["message"]


@pytest.fixture()
def deep_json(tmp_path):
    # json.loads gives up on this nesting with RecursionError, not JSONDecodeError
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return p


@pytest.mark.parametrize("command", ["validate", "run-suite", "verify", "color-lists"])
def test_deeply_nested_json_is_unusable_input(octa_file, deep_json, command):
    args = {
        "validate": ["validate", deep_json],
        "run-suite": ["run-suite", deep_json],
        "verify": ["verify", octa_file, deep_json],
        "color-lists": ["color", octa_file, "--lists", deep_json],
    }[command]
    r = run_cli(*map(str, args))
    _assert_input_error(r)
    assert "not valid JSON" in json.loads(r.stderr)["message"]


def test_run_suite_records_a_deeply_nested_file_entry(tmp_path, deep_json):
    deep = {"name": "deep", "input": {"kind": "file", "path": str(deep_json)},
            "checks": ["validate"]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"entries": [deep, GOOD_ENTRY]}), encoding="utf-8")
    r = run_cli("run-suite", str(mpath))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    deep_entry, good_entry = json.loads(r.stdout)["entries"]
    assert [(c["check"], c["status"]) for c in deep_entry["results"]] == [("input", "error")]
    assert "not valid JSON" in deep_entry["results"][0]["detail"]["message"]
    assert good_entry["results"][0]["status"] == "pass"


def test_oracle_on_a_graph_with_more_edges_than_the_recursion_limit(tmp_path):
    out = tmp_path / "pt.json"
    r = run_cli("gen", "--kind", "plane_triangulation", "--n", "400", "--seed", "3", "-o", str(out))
    assert r.returncode == 0 and json.loads(r.stdout)["e"] == 1194
    r = run_cli("oracle", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"chi_a": 58, "exceeded": False, "limit": 141}
