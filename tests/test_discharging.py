from __future__ import annotations

from fractions import Fraction

import pytest

from oneplanar import (
    AbstractGraph,
    OnePlanarDrawing,
    apply_rules,
    audit,
    canonical_triangulate,
    gen_random_oneplanar,
    initial_charges,
    named_instance,
    special_faces,
)
from oneplanar.discharging import DischargingError

from reference_discharging import reference_replay

ALLOWED_AMOUNTS = {
    Fraction(1, 3), Fraction(1, 2), Fraction(1, 21), Fraction(1, 18), Fraction(1, 6),
    Fraction(1, 15), Fraction(1, 5), Fraction(4, 15), Fraction(1, 12), Fraction(1, 4),
    Fraction(5, 12), Fraction(1, 9), Fraction(4, 9), Fraction(5, 9), Fraction(2, 3),
}


def _full_run(name):
    T = canonical_triangulate(named_instance(name))
    led0 = initial_charges(T)
    return T, led0, apply_rules(T, led0)


def test_octahedron_charges():
    T, led0, led1 = _full_run("octahedron")
    assert led0.total() == -8
    assert set(led0.vertex_charges().values()) == {Fraction(0)}
    assert set(led0.face_charges().values()) == {Fraction(-1)}
    assert led1.total() == -8
    assert set(led1.vertex_charges().values()) == {Fraction(-4, 3)}
    assert set(led1.face_charges().values()) == {Fraction(0)}


def test_icosahedron_charges():
    _, led0, led1 = _full_run("icosahedron")
    assert set(led0.vertex_charges().values()) == {Fraction(1)}
    assert set(led1.vertex_charges().values()) == {Fraction(-2, 3)}
    assert led1.total() == -8


def test_k6_charges_and_special_faces():
    T, led0, led1 = _full_run("k6_1planar")
    assert led0.total() == led1.total() == -8
    assert set(led1.face_charges().values()) == {Fraction(0)}
    sp = special_faces(T)
    assert len(sp) == 4 * T.drawing.num_crossings == 12
    # every special face is paid exactly twice, by its two real vertices
    for i in sp:
        payers = [t for t in led1.transcript if t.rule == "crossing-triangle" and t.target == ("face", i)]
        assert len(payers) == 2 and all(t.amount == Fraction(1, 2) for t in payers)


def test_special_faces_empty_for_plane():
    T = canonical_triangulate(named_instance("octahedron"))
    assert special_faces(T) == ()


def test_amounts_from_fixed_rational_set():
    _, _, led1 = _full_run("k6_1planar")
    assert {t.amount for t in led1.transcript} <= ALLOWED_AMOUNTS


def test_conservation_under_every_prefix():
    T, led0, led1 = _full_run("k6_1planar")
    charges = dict(led0.charges)
    total0 = sum(charges.values())
    for t in led1.transcript:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
        assert sum(charges.values()) == total0 == -8


def test_replay_reproduces_final_ledger():
    T, led0, led1 = _full_run("k6_1planar")
    led2 = reference_replay(led0, led1.transcript)
    assert led2.charges == led1.charges
    assert led2.transcript == led1.transcript


def test_audit_pigeonhole():
    for name in ("octahedron", "icosahedron", "k3", "kite", "k6_1planar"):
        _, _, led1 = _full_run(name)
        rep = audit(led1)
        assert rep.total_is_minus8 and rep.has_negative
        assert all(led1.charges[k] < 0 for k in rep.negatives)


def test_audit_octahedron_negatives_are_vertices():
    _, _, led1 = _full_run("octahedron")
    rep = audit(led1)
    assert rep.negatives == tuple(range(6))


def test_disconnected_rejected():
    g = AbstractGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d = OnePlanarDrawing(g, [], [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]])
    from oneplanar.triangulation import CanonicalTriangulation

    with pytest.raises(DischargingError):
        initial_charges(CanonicalTriangulation(d, (), (), (), ()))


def test_non_canonical_rejected():
    with pytest.raises(DischargingError):
        from oneplanar.triangulation import CanonicalTriangulation

        initial_charges(CanonicalTriangulation(named_instance("kite"), (), (), (), ()))


def test_crossing_vertices_carry_no_entry():
    T, led0, _ = _full_run("k6_1planar")
    n = T.drawing.n
    for key in led0.charges:
        if isinstance(key, int):
            assert key < n


def test_corpus_discharge(corpus_canonical):
    ts, _ = corpus_canonical
    for T in ts[:80]:
        led0 = initial_charges(T)
        led1 = apply_rules(T, led0)
        assert led0.total() == -8 and led1.total() == -8
        assert set(led1.face_charges().values()) <= {Fraction(0)}
        assert audit(led1).has_negative


def test_faces_are_deterministic():
    T = canonical_triangulate(named_instance("k6_1planar"))
    again = canonical_triangulate(named_instance("k6_1planar"))
    assert T.drawing.face_list.faces == again.drawing.face_list.faces


# the vertex-to-vertex rules as the module docstring states them:
# rule -> (lowest, highest sender degree, receiver degree -> amount)
DOCSTRING_BANDS = {
    "deg9to11": (9, 11, {7: Fraction(1, 21)}),
    "deg12to14": (12, 14, {7: Fraction(1, 18), 6: Fraction(1, 6)}),
    "deg15to19": (15, 19, {7: Fraction(1, 15), 6: Fraction(1, 5), 5: Fraction(4, 15)}),
    "deg20to35": (
        20,
        35,
        {7: Fraction(1, 12), 6: Fraction(1, 4), 5: Fraction(1, 3), 4: Fraction(5, 12)},
    ),
    "deg36plus": (
        36,
        None,
        {
            7: Fraction(1, 9),
            6: Fraction(1, 3),
            5: Fraction(4, 9),
            4: Fraction(5, 9),
            3: Fraction(2, 3),
        },
    ),
}


def test_vertex_transfers_follow_the_docstring_table():
    d = gen_random_oneplanar(200, Fraction(1, 2), 1)
    T = canonical_triangulate(d)
    g = T.base
    assert g.max_degree() > 35
    led = apply_rules(T, initial_charges(T))
    got = sorted(
        (t.rule, t.source, t.target, g.degree(t.source), g.degree(t.target), t.amount)
        for t in led.transcript
        if t.rule in DOCSTRING_BANDS
    )
    want = sorted(
        (rule, v, u, g.degree(v), g.degree(u), table[g.degree(u)])
        for rule, (lo, hi, table) in DOCSTRING_BANDS.items()
        for v in range(g.n)
        if lo <= g.degree(v) and (hi is None or g.degree(v) <= hi)
        for u in g.neighbors(v)
        if g.degree(u) in table
    )
    assert got == want
    assert {t[0] for t in got} == set(DOCSTRING_BANDS)
