"""The integer-unit discharging engine against the Fraction engine in
``reference_discharging``.

The library sums every key's moves in integer units of 1/_UNIT and writes
each charge once as a ``Fraction``; the reference does one ``Fraction``
subtraction and addition per transfer.  On generated drawings of every
corpus crossing fraction, on thinned copies (which the triangulation
changes) and on the named instances, the initial and final ledgers, the
transcripts and the audit reports must be equal, and every charge a
``Fraction``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import (
    apply_rules,
    audit,
    canonical_triangulate,
    gen_random_oneplanar,
    initial_charges,
    named_instance,
    replay,
)
from oneplanar.corpus import NAMED_INSTANCES
from oneplanar.discharging import _BAND_RULES, _HALF, _THIRD, _UNIT, ChargeLedger, Transfer
from oneplanar.triangulation import TriangulationError

from conftest import CORPUS_FRACTIONS, without_uncrossed_edges
from reference_discharging import (
    reference_apply_rules,
    reference_audit,
    reference_initial_charges,
    reference_replay,
    reference_total,
)


def _same_as_reference(T) -> ChargeLedger:
    led0 = initial_charges(T)
    led1 = apply_rules(T, led0)
    ref0 = reference_initial_charges(T)
    ref1 = reference_apply_rules(T, ref0)
    assert list(led0.charges.items()) == list(ref0.charges.items())
    assert list(led1.charges.items()) == list(ref1.charges.items())
    assert led1.transcript == ref1.transcript
    assert led0.total() == reference_total(ref0.charges) == -8
    assert led1.total() == reference_total(ref1.charges) == -8
    assert audit(led0) == reference_audit(ref0)
    assert audit(led1) == reference_audit(ref1)
    for led in (led0, led1):
        assert all(type(c) is Fraction for c in led.charges.values())
    return led1


def _drawing(n: int, fi: int, seed: int, every: int):
    d = gen_random_oneplanar(n, CORPUS_FRACTIONS[fi], seed)
    return without_uncrossed_edges(d, every) if every else d


def test_engines_agree_on_generated_and_thinned_drawings():
    rules: Counter = Counter()

    @given(
        st.integers(min_value=10, max_value=300),
        st.integers(min_value=0, max_value=len(CORPUS_FRACTIONS) - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0, 2, 3, 5]),  # 0: as generated, else thinned
    )
    @settings(max_examples=40, deadline=None)
    def check(n, fi, seed, every):
        try:
            T = canonical_triangulate(_drawing(n, fi, seed, every))
        except TriangulationError:
            return
        rules.update(t.rule for t in _same_as_reference(T).transcript)

    check()
    # every drawing below is as generated or thinned, at every fraction
    for fi in range(len(CORPUS_FRACTIONS)):
        for every in (0, 3):
            T = canonical_triangulate(_drawing(200, fi, 1, every))
            rules.update(t.rule for t in _same_as_reference(T).transcript)
    assert set(rules) == {
        "triangle", "crossing-triangle",
        "deg9to11", "deg12to14", "deg15to19", "deg20to35", "deg36plus",
    }


@pytest.mark.parametrize("name", NAMED_INSTANCES)
def test_engines_agree_on_named_instances(name):
    _same_as_reference(canonical_triangulate(named_instance(name)))


def test_every_rule_amount_is_a_whole_number_of_units():
    for amount in (_THIRD, _HALF, *(a for row in _BAND_RULES for a in row)):
        assert (_UNIT * amount).denominator == 1
    assert _UNIT == 1260


def test_replay_is_exact_for_an_amount_outside_the_units():
    T = canonical_triangulate(named_instance("k4"))
    led0 = initial_charges(T)
    transcript = [Transfer("eleventh", 0, ("face", 0), Fraction(1, 11))]
    led1 = replay(led0, transcript)
    assert led1 == reference_replay(led0, transcript)
    assert led1.charges[0] == led0.charges[0] - Fraction(1, 11)
    assert led1.charges[("face", 0)] == led0.charges[("face", 0)] + Fraction(1, 11)
    assert led1.total() == -8
    assert audit(led1) == reference_audit(led1)
    # the rules applied on top of charges that are not whole numbers of units
    assert apply_rules(T, led1) == reference_apply_rules(T, led1)
