from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import (
    AbstractGraph,
    Crossing,
    Graph6Error,
    DrawingFormatError,
    MalformedDrawingError,
    OnePlanarDrawing,
    OnePlanarError,
    XorShift64Star,
    edge_bound_check,
    gen_plane_triangulation,
    gen_random_oneplanar,
    named_instance,
    parse_graph6,
    read_drawing_json,
    trace_faces,
    validate_drawing,
    write_drawing_json,
    write_graph6,
)
from oneplanar.corpus import NAMED_INSTANCES, GenerationError

from conftest import CORPUS_FRACTIONS, without_uncrossed_edges

DATA = Path(__file__).parent / "data"


def test_xorshift_recurrence_golden():
    # frozen first outputs of xorshift64* for seed 1; guards the recurrence
    rng = XorShift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    x = 1
    expect = []
    m = (1 << 64) - 1
    for _ in range(3):
        x ^= x >> 12
        x = (x ^ (x << 25)) & m
        x ^= x >> 27
        expect.append((x * 0x2545F4914F6CDD1D) & m)
    assert first == expect
    assert XorShift64Star(0).state != 0


def test_gen_plane_triangulation_k3_k4():
    d3 = gen_plane_triangulation(3, 0)
    assert d3.n == 3 and d3.base.num_edges == 3
    assert len(trace_faces(d3.rotation).faces) == 2
    d4 = gen_plane_triangulation(4, 123)
    assert d4.base.num_edges == 6  # the unique maximal planar graph on 4 vertices


def test_gen_plane_triangulation_counts_and_faces():
    d = gen_plane_triangulation(50, 7)
    assert d.base.num_edges == 144 == 3 * 50 - 6
    fl = trace_faces(d.rotation)
    assert all(len(f) == 3 for f in fl.faces)
    assert validate_drawing(d).valid


def test_gen_plane_triangulation_rejects_small():
    with pytest.raises(GenerationError):
        gen_plane_triangulation(2, 0)


@pytest.mark.parametrize("fraction", [True, False])
def test_gen_random_oneplanar_refuses_a_bool_fraction(fraction):
    with pytest.raises(GenerationError) as exc:
        gen_random_oneplanar(20, fraction, 1)
    assert str(fraction) in str(exc.value)


def test_gen_random_oneplanar_fraction_zero_is_planar():
    d = gen_random_oneplanar(30, 0, 5)
    assert d.num_crossings == 0
    assert validate_drawing(d).valid


def test_gen_random_oneplanar_n4_is_k4():
    # K4 is complete: no non-adjacent pair exists, so no crossing can be
    # inserted and the simple-graph cap of 6 edges already binds
    d = gen_random_oneplanar(4, Fraction(1, 2), 3)
    assert d.base.num_edges == 6 and d.num_crossings == 0


def test_gen_random_oneplanar_validates():
    d = gen_random_oneplanar(100, Fraction(1, 4), 42)
    assert validate_drawing(d).valid
    assert edge_bound_check(d).passed
    assert d.num_crossings > 0
    for c in d.crossings:
        assert len(set(c.endpoints())) == 4


def test_generator_determinism_bytes():
    a = write_drawing_json(gen_random_oneplanar(60, Fraction(1, 4), 9))
    b = write_drawing_json(gen_random_oneplanar(60, Fraction(1, 4), 9))
    assert a == b
    c = write_drawing_json(gen_random_oneplanar(60, Fraction(1, 4), 10))
    assert a != c


def test_named_instance_counts():
    expect = {
        "k3": (3, 3, 0),
        "k4": (4, 6, 0),
        "octahedron": (6, 12, 0),
        "icosahedron": (12, 30, 0),
        "k6_1planar": (6, 15, 3),
        "kite": (4, 2, 1),
    }
    for name, (n, e, x) in expect.items():
        d = named_instance(name)
        assert (d.n, d.base.num_edges, d.num_crossings) == (n, e, x)
        assert validate_drawing(d).valid


def test_icosahedron_is_five_regular():
    g = named_instance("icosahedron").base
    assert set(g.degrees()) == {5}
    assert len(trace_faces(named_instance("icosahedron").rotation).faces) == 20


def test_unknown_named_instance():
    with pytest.raises(OnePlanarError):
        named_instance("dodecahedron")


def test_graph6_k3():
    k3 = AbstractGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert write_graph6(k3) == "Bw"
    assert parse_graph6("Bw") == k3


def test_graph6_header_and_whitespace():
    k3 = AbstractGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert parse_graph6(">>graph6<<Bw\n") == k3


def test_graph6_roundtrip_named():
    for name in NAMED_INSTANCES:
        g = named_instance(name).base
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_long_form():
    g = AbstractGraph(100, [(i, i + 1) for i in range(99)])
    s = write_graph6(g)
    assert s.startswith(chr(126))
    assert parse_graph6(s) == g


def test_graph6_truncated_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("Bwx")  # extra payload
    with pytest.raises(Graph6Error):
        parse_graph6(chr(63 + 10))  # n=10 with no payload
    with pytest.raises(Graph6Error):
        parse_graph6("")


@given(st.integers(min_value=0, max_value=40), st.data())
@settings(max_examples=60, deadline=None)
def test_graph6_roundtrip_random(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = AbstractGraph(n, [e for e, keep in zip(pairs, mask) if keep])
    assert parse_graph6(write_graph6(g)) == g


def test_drawing_json_roundtrip_bytes():
    for name in NAMED_INSTANCES:
        d = named_instance(name)
        s = write_drawing_json(d)
        d2 = read_drawing_json(s)
        assert d2 == d
        assert write_drawing_json(d2) == s


def test_drawing_json_golden_k6():
    golden = (DATA / "k6_1planar.drawing.json").read_text(encoding="utf-8")
    d = read_drawing_json(golden)
    assert d == named_instance("k6_1planar")
    assert write_drawing_json(d) == golden
    assert validate_drawing(d).valid


def test_drawing_json_unknown_field_rejected():
    s = write_drawing_json(named_instance("kite"))
    doc = json.loads(s)
    doc["comment"] = "hello"
    with pytest.raises(DrawingFormatError) as exc:
        read_drawing_json(json.dumps(doc))
    assert "comment" in str(exc.value)


def test_drawing_json_missing_rotation_key_is_refused():
    doc = json.loads(write_drawing_json(named_instance("kite")))
    del doc["rotation"]["4"]
    with pytest.raises(DrawingFormatError) as exc:
        read_drawing_json(json.dumps(doc))
    assert "rotation" in str(exc.value)


# (instance, vertex-0 slot, token); at vertex 0 of K6, edge 0-1 is uncrossed
# and edge 0-4 is crossed; in the kite, edge 0-1 is crossed
REFUSED_TOKENS = {
    "string": ("k6_1planar", 0, "0-1"),
    "int": ("k6_1planar", 0, 5),
    "length-2": ("k6_1planar", 0, [0, 1]),
    "bool-end": ("k6_1planar", 0, [True, 1, "whole"]),
    "float-end": ("k6_1planar", 0, [0.0, 1, "whole"]),
    "half3": ("k6_1planar", 0, [0, 1, "half3"]),
    "unhashable-slot": ("k6_1planar", 0, [0, 1, ["whole"]]),
    "loop": ("k6_1planar", 0, [0, 0, "whole"]),
    "nonexistent-edge": ("k6_1planar", 0, [0, 9, "whole"]),
    "whole-on-crossed": ("k6_1planar", 0, [0, 4, "whole"]),
    "half1-on-uncrossed": ("k6_1planar", 0, [0, 1, "half1"]),
    "not-at-w": ("k6_1planar", 0, [3, 5, "whole"]),
    "nonexistent-edge-second-slot": ("k3", 1, [0, 9, "whole"]),
    "half3-on-kite": ("kite", 0, [0, 1, "half3"]),
    "whole-on-crossed-kite": ("kite", 0, [0, 1, "whole"]),
}


@pytest.mark.parametrize("case", REFUSED_TOKENS.values(), ids=REFUSED_TOKENS)
def test_drawing_json_refused_token_names_its_field(case):
    name, slot, token = case
    doc = json.loads(write_drawing_json(named_instance(name)))
    doc["rotation"]["0"][slot] = token
    with pytest.raises(DrawingFormatError) as exc:
        read_drawing_json(json.dumps(doc))
    assert f"rotation.0[{slot}]" in str(exc.value)


def test_drawing_json_misnamed_rotation_key_is_refused():
    doc = json.loads(write_drawing_json(named_instance("k6_1planar")))
    doc["rotation"]["x"] = doc["rotation"].pop("5")
    with pytest.raises(DrawingFormatError) as exc:
        read_drawing_json(json.dumps(doc))
    assert "rotation" in str(exc.value) and "5" in str(exc.value)


def test_drawing_json_loop_crossing_record_is_refused():
    doc = json.loads(write_drawing_json(named_instance("kite")))
    doc["crossings"][0]["e1"] = [3, 3]
    with pytest.raises(DrawingFormatError) as exc:
        read_drawing_json(json.dumps(doc))
    assert "crossings[0].e1" in str(exc.value)


# each would write a file that read_drawing_json refuses
UNWRITABLE = {
    "rotation-lists-non-edge": OnePlanarDrawing(
        AbstractGraph(3, [(0, 1), (1, 2)]), [], [[1, 2], [0, 2], [1, 0]]
    ),
    "edge-crossed-twice": OnePlanarDrawing(
        AbstractGraph(6, [(0, 1), (2, 3), (4, 5)]),
        [Crossing((0, 1), (2, 3)), Crossing((0, 1), (4, 5))],
        [[6, 7], [6, 7], [6], [6], [7], [7], [0, 2, 1, 3], [0, 4, 1, 5]],
    ),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_writer_refuses_an_entry_that_is_no_link(name):
    with pytest.raises(MalformedDrawingError) as exc:
        write_drawing_json(UNWRITABLE[name])
    assert "rotation[0]" in str(exc.value)


@given(
    n=st.integers(4, 300),
    fraction=st.sampled_from(CORPUS_FRACTIONS),
    seed=st.integers(0, 2**32),
    every=st.sampled_from([None, 2, 3, 5]),
)
@settings(max_examples=60, deadline=None)
def test_drawing_json_roundtrip_generated(n, fraction, seed, every):
    d = gen_random_oneplanar(n, fraction, seed)
    if every is not None:
        d = without_uncrossed_edges(d, every)
    s = write_drawing_json(d)
    d2 = read_drawing_json(s)
    assert d2 == d
    assert write_drawing_json(d2) == s

# sha256 of write_drawing_json for each generator output: "random-n-fraction-
# seed" is gen_random_oneplanar(n, fraction, seed), "plane-n-seed" is
# gen_plane_triangulation(n, seed), "named-<name>" a named instance
GEN_PINS = {
    "random-300-0-5": "044dbe495a221a4006f513f6824dcd05b81171242d6ad2988e870a6aa3e7f0c6",
    "random-300-1/4-5": "ec4d4a0925bee5a08f276ae98ab988a403a18a1534f39b9c3a54482bbe819d2c",
    "random-300-1/2-5": "dd342d2bdb33ecf6e8fe6e7af5fbcd1bd62b0f165bf236e0c11a296ece08e8a0",
    "random-300-1-5": "e65a1cfcbf6385536a64304a4d10b3ef4b3dc097d69fdd4423174a3503a271a2",
    "random-60-1-2": "4effec32a855662287168f235df8d9843bacce9873466a15cdcfacced5319d7a",
    "plane-300-6": "88e36b18cf04f7c880bd3ea6db0e3303e7b518f06329778320bb685ef6b569af",
    "named-icosahedron": "3b97f4b2824d80d9371f9253f9b09a0167fb956cbbe65b22831ab1f55e177cad",
    "named-k3": "bc249c73691ff28ca189944b50a3331bb026af227afc472ebacf7bc846861c7f",
    "named-k4": "7103e5481b69813e61401fb13fc06144c00d806bf271621c014b23b1f38d6336",
    "named-k6_1planar": "45fa10eee4631aedf893c2843fdbad5d6ed9f7759e88919d2eaf190e3d83049c",
    "named-kite": "0919091d64cf18d2f52d500a9426ac40945d1901cc7069369ed15e1b1410ac49",
    "named-octahedron": "b7f5c936a128e4e1b792c56e28383073a6dc9ff411e00ceee11ee5db023bba45",
}


def _generated(name: str):
    kind, _, rest = name.partition("-")
    if kind == "named":
        return named_instance(rest)
    args = rest.split("-")
    if kind == "plane":
        return gen_plane_triangulation(int(args[0]), int(args[1]))
    return gen_random_oneplanar(int(args[0]), Fraction(args[1]), int(args[2]))


@pytest.mark.parametrize("name", sorted(GEN_PINS))
def test_generator_output_pinned(name):
    text = write_drawing_json(_generated(name))
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_PINS[name]
