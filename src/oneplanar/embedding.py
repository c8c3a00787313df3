"""Rotation-system surgeries, on bare rotations and with a face table.

Two rotation-level surgeries edit a rotation dict alone: ``split_face``
draws a chord across a face walk and ``cross_edge`` draws a new edge
across an old one.  The generators and steps 4-5 of the triangulation call
them on bare rotations.  ``MutableEmbedding`` adds a face table indexed by
directed edge, which only steps 1-3 of the triangulation read: every
surgery there (chord insertion, edge deletion, crossing removal) updates
rotations and faces locally, so a full retrace is never needed, and its
chord insertion is ``split_face`` plus the face bookkeeping.

Face-walk convention throughout: having arrived at w along (u -> w), the
walk leaves along (w -> x) where x is the successor of u in rotation[w].
A face is stored as the vertex cycle [w0, w1, ..., w_{L-1}] standing for
the directed edges (w0,w1), (w1,w2), ..., (w_{L-1},w0).
"""

from __future__ import annotations

from typing import Iterable, MutableMapping, Sequence

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


class MutableEmbedding:
    """Rotations plus their face cycles, which the caller supplies in trace
    order (``trace_faces(rotations).faces``); step 4 of the triangulation
    seeds its heap with the face ids, so they must follow that order."""

    def __init__(self, rotations: Sequence[Sequence[int]], faces: Iterable[Sequence[int]]):
        self.rot: dict[int, list[int]] = {w: list(order) for w, order in enumerate(rotations)}
        self.faces: dict[int, list[int]] = {}
        self.edge_face: dict[tuple[int, int], int] = {}
        self._next_fid = 0
        for face in faces:
            self._register_face(list(face))

    # -- construction ------------------------------------------------------

    def _set_face(self, fid: int, walk: list[int]) -> None:
        self.faces[fid] = walk
        L = len(walk)
        for i in range(L):
            self.edge_face[(walk[i], walk[(i + 1) % L])] = fid

    def _register_face(self, walk: list[int]) -> None:
        self._set_face(self._next_fid, walk)
        self._next_fid += 1

    # -- queries -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rot.get(u, ())

    def rotations(self, order: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.rot[w]) for w in order)

    # -- surgeries ---------------------------------------------------------

    def add_chord(self, fid: int, i: int, j: int) -> None:
        """Split face fid with a chord between positions i < j; the face[i..j]
        side is registered first, then the complementary side.

        The chord endpoints must be distinct, non-adjacent vertices and the
        positions must not be consecutive on the face.
        """
        face = self.faces[fid]
        L = len(face)
        if not (0 <= i < j < L):
            raise EmbeddingError(f"chord positions ({i},{j}) out of order for face of length {L}")
        x, y = face[i], face[j]
        if x == y:
            raise EmbeddingError(f"chord endpoints coincide at vertex {x}")
        if j - i < 2 or (i == 0 and j == L - 1):
            raise EmbeddingError("chord positions are consecutive on the face")
        if self.has_edge(x, y):
            raise EmbeddingError(f"chord {x}-{y} already an edge")

        del self.faces[fid]
        for walk in split_face(self.rot, face, i, j):
            self._register_face(walk)

    def _check_deletable(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise EmbeddingError(f"no edge {u}-{v}")
        if len(self.rot[u]) == 1 or len(self.rot[v]) == 1:
            raise EmbeddingError(f"deleting {u}-{v} would isolate a vertex")

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge uv, merging its two faces (or splitting one, if a bridge).

        Raises EmbeddingError, leaving the embedding untouched, when uv is
        missing or an endpoint has no other neighbor.
        """
        self._check_deletable(u, v)
        f1 = self.edge_face[(u, v)]
        f2 = self.edge_face[(v, u)]
        face1 = self.faces[f1]
        p = dir_index(face1, u, v)
        if f1 != f2:
            face2 = self.faces[f2]
            q = dir_index(face2, v, u)
            # u -> v -> A... and v -> u -> B... merge to u -> B... -> v -> A...
            a_part = face1[p + 1 :] + face1[:p]  # v, A..., (back to u)
            b_part = face2[q + 1 :] + face2[:q]  # u, B..., (back to v)
            new_faces = [b_part + a_part]
        else:
            q = dir_index(face1, v, u)
            if p > q:
                p, q = q, p
                u, v = v, u
            side_a = face1[p + 1 : q]          # v-side loop
            side_b = face1[q + 1 :] + face1[:p]  # u-side loop
            new_faces = [side_a, side_b]
        del self.edge_face[(u, v)], self.edge_face[(v, u)]
        self.rot[u].remove(v)
        self.rot[v].remove(u)
        for fid in {f1, f2}:
            del self.faces[fid]
        for face in new_faces:
            self._register_face(face)

    def remove_crossing(self, z: int, removed: tuple[int, int]) -> None:
        """Delete one of the two edges crossing at z; the other becomes whole.

        Every precondition of the two half-edge deletions and of smoothing
        z away is checked first, so a refused removal leaves the embedding
        untouched.  Smoothing z away keeps the ids of the faces it lies on.
        """
        x, y = removed
        order = self.rot[z]
        if len(order) != 4 or x not in order or y not in order:
            raise EmbeddingError(f"{removed} is not split at crossing {z}")
        self._check_deletable(x, z)
        self._check_deletable(z, y)
        u, v = (w for w in order if w not in removed)
        if self.has_edge(u, v):
            raise EmbeddingError(f"smoothing {z} would create a multi-edge {u}-{v}")
        self.delete_edge(x, z)
        self.delete_edge(z, y)
        # z is left on the path u-z-v alone: join u to v directly
        self.rot[u][self.rot[u].index(z)] = v
        self.rot[v][self.rot[v].index(z)] = u
        for fid in {self.edge_face[(u, z)], self.edge_face[(v, z)]}:
            self._set_face(fid, [w for w in self.faces[fid] if w != z])
        del self.rot[z], self.edge_face[(u, z)], self.edge_face[(z, u)]
        del self.edge_face[(v, z)], self.edge_face[(z, v)]
