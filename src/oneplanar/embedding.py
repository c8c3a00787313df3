"""Rotation-system surgeries on bare rotations.

Two surgeries edit a rotation dict alone: ``split_face`` draws a chord
across a face walk and ``cross_edge`` draws a new edge across an old one.
The generators and the triangulation call them; the triangulation keeps its
own face table through steps 1-3 and finds a directed edge on a face walk
with ``dir_index``.

Face-walk convention throughout: having arrived at w along (u -> w), the
walk leaves along (w -> x) where x is the successor of u in rotation[w].
A face is stored as the vertex cycle [w0, w1, ..., w_{L-1}] standing for
the directed edges (w0,w1), (w1,w2), ..., (w_{L-1},w0).
"""

from __future__ import annotations

from typing import MutableMapping

from .model import OnePlanarError


class EmbeddingError(OnePlanarError):
    """A surgery was applied in a state where it is not defined."""


def split_face(
    rot: MutableMapping[int, list[int]], walk: list[int], i: int, j: int
) -> tuple[list[int], list[int]]:
    """Draw a chord across face ``walk`` between positions i < j; returns the
    two faces it leaves, walk[i..j] and then the rest, each closed by the chord.

    The caller checks that the endpoints are distinct and non-adjacent and
    that the positions are not consecutive on the face.
    """
    x, y = walk[i], walk[j]
    rx = rot[x]
    rx.insert(rx.index(walk[i - 1]) + 1, y)
    ry = rot[y]
    ry.insert(ry.index(walk[j - 1]) + 1, x)
    return walk[i : j + 1], walk[j:] + walk[: i + 1]


def dir_index(face: list[int], u: int, v: int) -> int:
    """The first position i of face with face[i] = u followed by face[i + 1] = v."""
    L = len(face)
    for i in range(L):
        if face[i] == u and face[(i + 1) % L] == v:
            return i
    raise EmbeddingError(f"directed edge ({u},{v}) not on face {face}")


def cross_edge(rot: MutableMapping[int, list[int]], b: int, d: int, z: int) -> tuple[int, int]:
    """Draw a new edge a-c across edge b-d at new vertex z; returns (a, c).

    a and c are the third corners of the faces on b->d and d->b, read off
    the rotations, so both faces must be triangles of distinct vertices with
    a != c; the caller checks that.  z takes b-d's place in the rotations
    of b and d and follows d in a's and b in c's.
    """
    rb, rd = rot[b], rot[d]
    i, j = rd.index(b), rb.index(d)
    a, c = rd[(i + 1) % len(rd)], rb[(j + 1) % len(rb)]
    ra = rot[a]
    ra.insert(ra.index(d) + 1, z)
    rc = rot[c]
    rc.insert(rc.index(b) + 1, z)
    rd[i] = rb[j] = z
    rot[z] = [a, d, c, b]
    return a, c

