"""Test-only reference for the discharging engine: the earlier Fraction engine.

Every charge starts as a ``Fraction`` and every transfer is one ``Fraction``
subtraction and one addition, applied in transcript order; the total is a
``Fraction`` sum over all keys and the audit compares each charge with 0.
It builds the library's ``Transfer``, ``ChargeLedger`` and ``AuditReport``
records so that its results compare ``==`` with the library's.  Kept only
to cross-check the library's integer-unit engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from oneplanar.discharging import (
    AuditReport,
    ChargeKey,
    ChargeLedger,
    DischargingError,
    Transfer,
    special_faces,
)
from oneplanar.structure import CEILINGS, LIGHT_DEGREE_MAX
from oneplanar.triangulation import CanonicalTriangulation, is_canonical

BAND_RULES = (
    (Fraction(1, 21),),
    (Fraction(1, 18), Fraction(1, 6)),
    (Fraction(1, 15), Fraction(1, 5), Fraction(4, 15)),
    (Fraction(1, 12), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)),
    (Fraction(1, 9), Fraction(1, 3), Fraction(4, 9), Fraction(5, 9), Fraction(2, 3)),
)


def reference_total(charges: dict[ChargeKey, Fraction]) -> Fraction:
    return sum(charges.values(), Fraction(0))


def reference_initial_charges(T: CanonicalTriangulation) -> ChargeLedger:
    d = T.drawing
    if not is_canonical(d):
        raise DischargingError("discharging needs a canonical triangulation")
    fl = d.face_list
    if fl.components != 1:
        raise DischargingError("discharging needs a connected drawing")
    charges: dict[ChargeKey, Fraction] = {}
    for v in range(d.n):
        charges[v] = Fraction(d.base.degree(v) - 4)
    for i, f in enumerate(fl.faces):
        charges[("face", i)] = Fraction(len(f) - 4)
    if reference_total(charges) != -8:
        raise DischargingError(f"initial total is {reference_total(charges)}, expected -8")
    return ChargeLedger(charges, ())


def reference_apply_rules(T: CanonicalTriangulation, ledger: ChargeLedger) -> ChargeLedger:
    d = T.drawing
    n = d.n
    fl = d.face_list
    transcript: list[Transfer] = []
    special = set(special_faces(T))
    for i, f in enumerate(fl.faces):
        if i in special:
            continue
        for v in sorted(f):
            transcript.append(Transfer("triangle", v, ("face", i), Fraction(1, 3)))
    for i in sorted(special):
        for v in sorted(w for w in fl.faces[i] if w < n):
            transcript.append(Transfer("crossing-triangle", v, ("face", i), Fraction(1, 2)))

    degree = d.base.degree
    for c, top, amounts in zip(CEILINGS, (*CEILINGS[1:], None), BAND_RULES, strict=True):
        rule = f"deg{c + 1}to{top}" if top else f"deg{c + 1}plus"
        table = {LIGHT_DEGREE_MAX - k: a for k, a in enumerate(amounts)}
        for v in range(n):
            if degree(v) <= c or (top is not None and degree(v) > top):
                continue
            for u in sorted(d.base.neighbors(v)):
                amount = table.get(degree(u))
                if amount is not None:
                    transcript.append(Transfer(rule, v, u, amount))
    return reference_replay(ledger, transcript)


def reference_replay(initial: ChargeLedger, transcript: Iterable[Transfer]) -> ChargeLedger:
    charges = dict(initial.charges)
    applied = list(initial.transcript)
    for t in transcript:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
        applied.append(t)
    return ChargeLedger(charges, tuple(applied))


def reference_audit(ledger: ChargeLedger) -> AuditReport:
    total = reference_total(ledger.charges)
    negatives = tuple(
        k
        for k in sorted(ledger.charges, key=lambda k: (isinstance(k, tuple), k))
        if ledger.charges[k] < 0
    )
    return AuditReport(
        total=total,
        negatives=negatives,
        has_negative=bool(negatives),
        total_is_minus8=(total == -8),
    )
