"""Exact-rational discharging engine over a canonical triangulation.

Every real vertex starts with charge deg - 4 and every planarization face
with length - 4; crossing vertices carry no entry (their contribution is
identically zero).  For one connected component the grand total is exactly
-8, and the transfer rules only move charge, so the total is preserved
after every prefix of the transcript.  Arithmetic is exact, never floats:
the rules move integer counts of 1/1260 (_UNIT, the LCM of every rule
denominator), and each charge becomes a fractions.Fraction once, at the end.

Transfer rules, applied once each where triggered:

  face rules
    triangle          every face without a crossing vertex receives 1/3
                      from each of its three vertices
    crossing-triangle every face with a crossing vertex receives 1/2 from
                      each of its two non-crossing vertices
  vertex-to-vertex rules, by sender degree band (receiver degree: amount);
  the bands are cut at the configuration ceilings structure.CEILINGS
    deg9to11    7: 1/21
    deg12to14   7: 1/18   6: 1/6
    deg15to19   7: 1/15   6: 1/5   5: 4/15
    deg20to35   7: 1/12   6: 1/4   5: 1/3   4: 5/12
    deg36plus   7: 1/9    6: 1/3   5: 4/9   4: 5/9   3: 2/3
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .model import OnePlanarError
from .structure import CEILINGS, LIGHT_DEGREE_MAX
from .triangulation import CanonicalTriangulation, is_canonical

ChargeKey = Union[int, tuple[str, int]]  # vertex id, or ("face", face index)

# what a sender pays to receivers of degree 7, 6, ..., one row per sender
# degree band; band j runs from CEILINGS[j] + 1 up to CEILINGS[j + 1], and
# the last band has no upper end
_BAND_RULES = (
    (Fraction(1, 21),),
    (Fraction(1, 18), Fraction(1, 6)),
    (Fraction(1, 15), Fraction(1, 5), Fraction(4, 15)),
    (Fraction(1, 12), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)),
    (Fraction(1, 9), Fraction(1, 3), Fraction(4, 9), Fraction(5, 9), Fraction(2, 3)),
)
_THIRD, _HALF = Fraction(1, 3), Fraction(1, 2)  # the face rules' amounts
_UNIT = math.lcm(*(a.denominator for a in (_THIRD, _HALF, *sum(_BAND_RULES, ()))))


class DischargingError(OnePlanarError):
    pass


class Transfer(NamedTuple):
    rule: str
    source: ChargeKey
    target: ChargeKey
    amount: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    charges: dict[ChargeKey, Fraction]
    transcript: tuple[Transfer, ...]

    def total(self) -> Fraction:
        numerators: dict[int, int] = {}  # denominator -> sum of numerators
        for c in self.charges.values():
            a, b = c.as_integer_ratio()
            numerators[b] = numerators.get(b, 0) + a
        return sum((Fraction(a, b) for b, a in numerators.items()), Fraction(0))

    def vertex_charges(self) -> dict[int, Fraction]:
        return {k: v for k, v in self.charges.items() if isinstance(k, int)}

    def face_charges(self) -> dict[int, Fraction]:
        return {k[1]: v for k, v in self.charges.items() if isinstance(k, tuple)}


def special_faces(T: CanonicalTriangulation) -> tuple[int, ...]:
    """Indices of the 3-faces incident with a crossing vertex.

    At most one crossing per face can occur (two would need an edge between
    crossing vertices, which the drawing format cannot even express).
    """
    n = T.drawing.n
    fl = T.drawing.face_list
    return tuple(i for i, f in enumerate(fl.faces) if any(w >= n for w in f))


def initial_charges(T: CanonicalTriangulation) -> ChargeLedger:
    """Charge deg-4 on real vertices and len-4 on faces; total is exactly -8."""
    d = T.drawing
    if not is_canonical(d):
        raise DischargingError("discharging needs a canonical triangulation")
    fl = d.face_list
    if fl.components != 1:
        raise DischargingError("discharging needs a connected drawing")
    vertex = [d.base.degree(v) - 4 for v in range(d.n)]
    face = [len(f) - 4 for f in fl.faces]
    if sum(vertex) + sum(face) != -8:
        raise DischargingError(f"initial total is {sum(vertex) + sum(face)}, expected -8")
    shared = {x: Fraction(x) for x in {*vertex, *face}}
    charges: dict[ChargeKey, Fraction] = {v: shared[x] for v, x in enumerate(vertex)}
    charges.update((("face", i), shared[x]) for i, x in enumerate(face))
    return ChargeLedger(charges, ())


def apply_rules(T: CanonicalTriangulation, ledger: ChargeLedger) -> ChargeLedger:
    """Apply every rule once where triggered; deterministic transcript order."""
    d = T.drawing
    n = d.n
    fl = d.face_list
    transcript: list[Transfer] = []
    units = dict.fromkeys(ledger.charges, 0)  # what each key gains, in 1/_UNIT
    special = special_faces(T)
    plain = sorted(set(range(len(fl.faces))).difference(special))
    for rule, amount, faces in (("triangle", _THIRD, plain), ("crossing-triangle", _HALF, special)):
        paid = int(_UNIT * amount)
        for i in faces:
            for v in sorted(w for w in fl.faces[i] if w < n):
                transcript.append(Transfer(rule, v, ("face", i), amount))
                units[v] -= paid
                units[("face", i)] += paid

    degree = d.base.degree
    for c, top, amounts in zip(CEILINGS, (*CEILINGS[1:], None), _BAND_RULES, strict=True):
        rule = f"deg{c + 1}to{top}" if top else f"deg{c + 1}plus"
        table = {LIGHT_DEGREE_MAX - k: (a, int(_UNIT * a)) for k, a in enumerate(amounts)}
        for v in range(n):
            if degree(v) <= c or (top is not None and degree(v) > top):
                continue
            for u in sorted(d.base.neighbors(v)):
                paid = table.get(degree(u))
                if paid is not None:
                    transcript.append(Transfer(rule, v, u, paid[0]))
                    units[v] -= paid[1]
                    units[u] += paid[1]
    charges = dict(ledger.charges)
    for key, moved in units.items():
        a, b = charges[key].as_integer_ratio()
        charges[key] = Fraction(a * _UNIT + moved * b, b * _UNIT)
    return ChargeLedger(charges, (*ledger.transcript, *transcript))


@dataclass(frozen=True)
class AuditReport:
    total: Fraction
    negatives: tuple[ChargeKey, ...]
    has_negative: bool
    total_is_minus8: bool


def audit(ledger: ChargeLedger) -> AuditReport:
    """Report the final total and every element with negative charge.

    With total -8, at least one element must be negative; that pigeonhole
    is the whole engine of the structural argument, so its truth is part
    of the report.
    """
    total = ledger.total()
    negatives = tuple(sorted(
        (k for k, c in ledger.charges.items() if c.numerator < 0),
        key=lambda k: (isinstance(k, tuple), k),
    ))
    return AuditReport(
        total=total,
        negatives=negatives,
        has_negative=bool(negatives),
        total_is_minus8=(total == -8),
    )
