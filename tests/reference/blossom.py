"""Loop-based reference for :mod:`repro.mapping.blossom`.

The primal-dual blossom solver as it was before its neighbour scan and
dual update became array code: every slack is one Python call, every
scan walks the neighbour list one edge at a time.  The differential
suite (``tests/test_array_differential.py``) requires the production
solver to return the identical pair list on every input, in both
``max_cardinality`` modes.  Not used by the program.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

_NONE = -1


def max_weight_matching(
    weights: np.ndarray,
    max_cardinality: bool = True,
    check_optimum: bool = False,
    reverse_scan: bool = False,
) -> List[Tuple[int, int]]:
    """Reference maximum-weight matching (same contract as production).

    ``reverse_scan`` walks every neighbour list backwards.  The result is
    still a maximum-weight matching, but ties may break differently; the
    differential suite uses it to prove its corpus can see tie order.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weights must be square, got shape {w.shape}")
    if not np.allclose(w, w.T):
        raise ValueError("weights must be symmetric")
    n = w.shape[0]
    edges = [
        (i, j, float(w[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    solver = _MatchingSolver(n, edges, max_cardinality, check_optimum)
    if reverse_scan:
        for nb in solver.neighbend:
            nb.reverse()
    mate = solver.solve()
    pairs = []
    for v in range(n):
        u = mate[v]
        if u != _NONE and v < u:
            pairs.append((v, u))
    return pairs


class _MatchingSolver:
    """One run of the blossom algorithm.

    Vertices are 0..n-1; blossoms get ids n..2n-1.  Edges are referred to
    by index k; *endpoints* by p = 2k or 2k+1, where ``endpoint[p]`` is the
    vertex at that side of edge k — the classical trick that lets the tree
    structure remember through which side of an edge a label arrived.
    """

    def __init__(
        self,
        n: int,
        edges: List[Tuple[int, int, float]],
        max_cardinality: bool,
        check_optimum: bool,
    ):
        self.n = n
        self.edges = edges
        self.max_cardinality = max_cardinality
        self.check = check_optimum
        m = len(edges)
        # endpoint[p] = vertex at endpoint p of edge p//2.
        self.endpoint = [edges[p // 2][p % 2] for p in range(2 * m)]
        # neighbend[v] = list of remote endpoints of edges incident to v.
        self.neighbend: List[List[int]] = [[] for _ in range(n)]
        for k, (i, j, _wt) in enumerate(edges):
            self.neighbend[i].append(2 * k + 1)
            self.neighbend[j].append(2 * k)
        self.maxweight = max((wt for (_i, _j, wt) in edges), default=0.0)
        self.maxweight = max(self.maxweight, 0.0)

        nn = n
        # mate[v] = remote endpoint of v's matched edge, or _NONE.
        self.mate = [_NONE] * nn
        # label[b] (top-level blossom b): 0 free, 1 S, 2 T, 5 breadcrumb.
        self.label = [0] * (2 * nn)
        # labelend[b] = endpoint through which the label was assigned.
        self.labelend = [_NONE] * (2 * nn)
        # inblossom[v] = top-level blossom containing vertex v.
        self.inblossom = list(range(nn))
        # Blossom structure.
        self.blossomparent = [_NONE] * (2 * nn)
        self.blossomchilds: List[Optional[List[int]]] = [None] * (2 * nn)
        self.blossombase = list(range(nn)) + [_NONE] * nn
        self.blossomendps: List[Optional[List[int]]] = [None] * (2 * nn)
        # bestedge[b] = edge index of least-slack edge to a different S-blossom.
        self.bestedge = [_NONE] * (2 * nn)
        self.blossombestedges: List[Optional[List[int]]] = [None] * (2 * nn)
        self.unusedblossoms = list(range(nn, 2 * nn))
        # Dual variables: u(v) for vertices, z(b) for blossoms.
        self.dualvar = [self.maxweight] * nn + [0.0] * nn
        # allowedge[k]: edge k has zero slack (usable for tree growth).
        self.allowedge = [False] * m
        self.queue: List[int] = []

    # -- slack -------------------------------------------------------------------

    def slack(self, k: int) -> float:
        """Dual slack of edge k (non-negative for a feasible dual)."""
        i, j, wt = self.edges[k]
        return self.dualvar[i] + self.dualvar[j] - 2 * wt

    # -- blossom traversal ----------------------------------------------------------

    def blossom_leaves(self, b: int) -> Iterator[int]:
        """Iterate the vertices inside (sub)blossom b."""
        if b < self.n:
            yield b
            return
        for child in self.blossomchilds[b]:
            if child < self.n:
                yield child
            else:
                yield from self.blossom_leaves(child)

    # -- labeling --------------------------------------------------------------------

    def assign_label(self, w: int, t: int, p: int) -> None:
        """Give vertex w's blossom label t (1=S, 2=T) via endpoint p."""
        b = self.inblossom[w]
        assert self.label[w] == 0 and self.label[b] == 0
        self.label[w] = self.label[b] = t
        self.labelend[w] = self.labelend[b] = p
        self.bestedge[w] = self.bestedge[b] = _NONE
        if t == 1:
            # S-blossom: its vertices join the scan queue.
            self.queue.extend(self.blossom_leaves(b))
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex.
            base = self.blossombase[b]
            assert self.mate[base] != _NONE
            self.assign_label(
                self.endpoint[self.mate[base]], 1, self.mate[base] ^ 1
            )

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from v and w to find their lowest common S-ancestor.

        Returns the base vertex of the common blossom, or _NONE if the two
        paths reach different tree roots (an augmenting path exists).
        """
        path = []
        base = _NONE
        while v != _NONE or w != _NONE:
            b = self.inblossom[v]
            if self.label[b] & 4:  # breadcrumb: common ancestor found
                base = self.blossombase[b]
                break
            assert self.label[b] == 1
            path.append(b)
            self.label[b] = 5
            assert self.labelend[b] == self.mate[self.blossombase[b]]
            if self.labelend[b] == _NONE:
                v = _NONE  # reached a tree root
            else:
                v = self.endpoint[self.labelend[b]]
                b = self.inblossom[v]
                assert self.label[b] == 2
                assert self.labelend[b] != _NONE
                v = self.endpoint[self.labelend[b]]
            if w != _NONE:
                v, w = w, v
        for b in path:  # remove breadcrumbs
            self.label[b] = 1
        return base

    # -- blossom shrink/expand ----------------------------------------------------------

    def add_blossom(self, base: int, k: int) -> None:
        """Shrink the cycle through edge k and base into a new blossom."""
        v, w, _wt = self.edges[k]
        bb = self.inblossom[base]
        bv = self.inblossom[v]
        bw = self.inblossom[w]
        b = self.unusedblossoms.pop()
        self.blossombase[b] = base
        self.blossomparent[b] = _NONE
        self.blossomparent[bb] = b
        path = []
        endps = []
        # Walk from v's side back to the base.
        while bv != bb:
            self.blossomparent[bv] = b
            path.append(bv)
            endps.append(self.labelend[bv])
            assert self.label[bv] == 2 or (
                self.label[bv] == 1
                and self.labelend[bv] == self.mate[self.blossombase[bv]]
            )
            assert self.labelend[bv] != _NONE
            v = self.endpoint[self.labelend[bv]]
            bv = self.inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        # Walk from w's side back to the base.
        while bw != bb:
            self.blossomparent[bw] = b
            path.append(bw)
            endps.append(self.labelend[bw] ^ 1)
            assert self.label[bw] == 2 or (
                self.label[bw] == 1
                and self.labelend[bw] == self.mate[self.blossombase[bw]]
            )
            assert self.labelend[bw] != _NONE
            w = self.endpoint[self.labelend[bw]]
            bw = self.inblossom[w]
        self.blossomchilds[b] = path
        self.blossomendps[b] = endps
        assert self.label[bb] == 1
        self.label[b] = 1
        self.labelend[b] = self.labelend[bb]
        self.dualvar[b] = 0.0
        for leaf in self.blossom_leaves(b):
            if self.label[self.inblossom[leaf]] == 2:
                # T-vertex swallowed into an S-blossom: scan it now.
                self.queue.append(leaf)
            self.inblossom[leaf] = b
        # Recompute best edges of the new blossom.
        bestedgeto = [_NONE] * (2 * self.n)
        for bv in path:
            if self.blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in self.neighbend[leaf]]
                    for leaf in self.blossom_leaves(bv)
                ]
            else:
                nblists = [self.blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    i, j, _ = self.edges[kk]
                    if self.inblossom[j] == b:
                        i, j = j, i
                    bj = self.inblossom[j]
                    if (
                        bj != b
                        and self.label[bj] == 1
                        and (
                            bestedgeto[bj] == _NONE
                            or self.slack(kk) < self.slack(bestedgeto[bj])
                        )
                    ):
                        bestedgeto[bj] = kk
            self.blossombestedges[bv] = None
            self.bestedge[bv] = _NONE
        self.blossombestedges[b] = [kk for kk in bestedgeto if kk != _NONE]
        self.bestedge[b] = _NONE
        for kk in self.blossombestedges[b]:
            if self.bestedge[b] == _NONE or self.slack(kk) < self.slack(self.bestedge[b]):
                self.bestedge[b] = kk

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Undo a blossom (zero dual at stage end, or T-blossom expansion)."""
        for s in self.blossomchilds[b]:
            self.blossomparent[s] = _NONE
            if s < self.n:
                self.inblossom[s] = s
            elif endstage and self.dualvar[s] == 0:
                self.expand_blossom(s, endstage)
            else:
                for leaf in self.blossom_leaves(s):
                    self.inblossom[leaf] = s
        if (not endstage) and self.label[b] == 2:
            # Relabel the children along the path the T-label entered by.
            assert self.labelend[b] != _NONE
            entrychild = self.inblossom[self.endpoint[self.labelend[b] ^ 1]]
            j = self.blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(self.blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = self.labelend[b]
            while j != 0:
                self.label[self.endpoint[p ^ 1]] = 0
                self.label[
                    self.endpoint[
                        self.blossomendps[b][j - endptrick] ^ endptrick ^ 1
                    ]
                ] = 0
                self.assign_label(self.endpoint[p ^ 1], 2, p)
                self.allowedge[self.blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = self.blossomendps[b][j - endptrick] ^ endptrick
                self.allowedge[p // 2] = True
                j += jstep
            bv = self.blossomchilds[b][j]
            self.label[self.endpoint[p ^ 1]] = self.label[bv] = 2
            self.labelend[self.endpoint[p ^ 1]] = self.labelend[bv] = p
            self.bestedge[bv] = _NONE
            j += jstep
            while self.blossomchilds[b][j] != entrychild:
                bv = self.blossomchilds[b][j]
                if self.label[bv] == 1:
                    j += jstep
                    continue
                for v in self.blossom_leaves(bv):
                    if self.label[v] != 0:
                        break
                else:
                    v = None
                if v is not None:
                    assert self.label[v] == 2
                    assert self.inblossom[v] == bv
                    self.label[v] = 0
                    self.label[self.endpoint[self.mate[self.blossombase[bv]]]] = 0
                    self.assign_label(v, 2, self.labelend[v])
                j += jstep
        self.label[b] = 0
        self.labelend[b] = _NONE
        self.blossomchilds[b] = None
        self.blossomendps[b] = None
        self.blossombase[b] = _NONE
        self.blossombestedges[b] = None
        self.bestedge[b] = _NONE
        self.unusedblossoms.append(b)

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched/unmatched edges along b's cycle to expose v's side."""
        t = v
        while self.blossomparent[t] != b:
            t = self.blossomparent[t]
        if t >= self.n:
            self.augment_blossom(t, v)
        i = j = self.blossomchilds[b].index(t)
        if i & 1:
            j -= len(self.blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = self.blossomchilds[b][j]
            p = self.blossomendps[b][j - endptrick] ^ endptrick
            if t >= self.n:
                self.augment_blossom(t, self.endpoint[p])
            j += jstep
            t = self.blossomchilds[b][j]
            if t >= self.n:
                self.augment_blossom(t, self.endpoint[p ^ 1])
            self.mate[self.endpoint[p]] = p ^ 1
            self.mate[self.endpoint[p ^ 1]] = p
        # Rotate the child list so the exposed child becomes the base.
        self.blossomchilds[b] = (
            self.blossomchilds[b][i:] + self.blossomchilds[b][:i]
        )
        self.blossomendps[b] = self.blossomendps[b][i:] + self.blossomendps[b][:i]
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]]
        assert self.blossombase[b] == v

    def augment_matching(self, k: int) -> None:
        """Flip matching along the augmenting path through edge k."""
        v, w, _wt = self.edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = self.inblossom[s]
                assert self.label[bs] == 1
                assert self.labelend[bs] == self.mate[self.blossombase[bs]]
                if bs >= self.n:
                    self.augment_blossom(bs, s)
                self.mate[s] = p
                if self.labelend[bs] == _NONE:
                    break  # reached a tree root
                t = self.endpoint[self.labelend[bs]]
                bt = self.inblossom[t]
                assert self.label[bt] == 2
                assert self.labelend[bt] != _NONE
                s = self.endpoint[self.labelend[bt]]
                j = self.endpoint[self.labelend[bt] ^ 1]
                assert self.blossombase[bt] == t
                if bt >= self.n:
                    self.augment_blossom(bt, j)
                self.mate[j] = self.labelend[bt]
                p = self.labelend[bt] ^ 1

    # -- optimality verification -------------------------------------------------------

    def verify_optimum(self) -> None:
        """Assert complementary slackness (tests; exact for integer weights)."""
        if self.max_cardinality:
            vdualoffset = max(0.0, -min(self.dualvar[: self.n]))
        else:
            vdualoffset = 0.0
        assert min(self.dualvar[: self.n]) + vdualoffset >= -1e-9
        assert min(self.dualvar[self.n:]) >= -1e-9
        for k, (i, j, wt) in enumerate(self.edges):
            s = self.dualvar[i] + self.dualvar[j] - 2 * wt
            iblossoms = [i]
            jblossoms = [j]
            while self.blossomparent[iblossoms[-1]] != _NONE:
                iblossoms.append(self.blossomparent[iblossoms[-1]])
            while self.blossomparent[jblossoms[-1]] != _NONE:
                jblossoms.append(self.blossomparent[jblossoms[-1]])
            iblossoms.reverse()
            jblossoms.reverse()
            for (bi, bj) in zip(iblossoms, jblossoms):
                if bi != bj:
                    break
                s += 2 * self.dualvar[bi]
            assert s >= -1e-6, f"edge ({i},{j}) has negative slack {s}"
            if self.mate[i] // 2 == k or self.mate[j] // 2 == k:
                assert self.mate[i] // 2 == k and self.mate[j] // 2 == k
                assert abs(s) < 1e-6, f"matched edge ({i},{j}) not tight: {s}"
        for v in range(self.n):
            assert (
                self.mate[v] != _NONE
                or self.dualvar[v] + vdualoffset < 1e-6
            ), f"free vertex {v} has positive dual"

    # -- main loop ---------------------------------------------------------------------

    def solve(self) -> List[int]:
        """Run the stages; returns mate[] as vertex → partner vertex."""
        if self.n == 0 or not self.edges:
            return [_NONE] * self.n
        n = self.n
        for _stage in range(n):
            self.label = [0] * (2 * n)
            self.bestedge = [_NONE] * (2 * n)
            for b in range(n, 2 * n):
                self.blossombestedges[b] = None
            self.allowedge = [False] * len(self.edges)
            self.queue = []
            for v in range(n):
                if self.mate[v] == _NONE and self.label[self.inblossom[v]] == 0:
                    self.assign_label(v, 1, _NONE)
            augmented = False
            while True:
                while self.queue and not augmented:
                    v = self.queue.pop()
                    assert self.label[self.inblossom[v]] == 1
                    for p in self.neighbend[v]:
                        k = p // 2
                        w = self.endpoint[p]
                        if self.inblossom[v] == self.inblossom[w]:
                            continue  # internal blossom edge
                        if not self.allowedge[k]:
                            kslack = self.slack(k)
                            if kslack <= 1e-12:
                                self.allowedge[k] = True
                        if self.allowedge[k]:
                            if self.label[self.inblossom[w]] == 0:
                                self.assign_label(w, 2, p ^ 1)
                            elif self.label[self.inblossom[w]] == 1:
                                base = self.scan_blossom(v, w)
                                if base != _NONE:
                                    self.add_blossom(base, k)
                                else:
                                    self.augment_matching(k)
                                    augmented = True
                                    break
                            elif self.label[w] == 0:
                                assert self.label[self.inblossom[w]] == 2
                                self.label[w] = 2
                                self.labelend[w] = p ^ 1
                        elif self.label[self.inblossom[w]] == 1:
                            b = self.inblossom[v]
                            if (
                                self.bestedge[b] == _NONE
                                or kslack < self.slack(self.bestedge[b])
                            ):
                                self.bestedge[b] = k
                        elif self.label[w] == 0:
                            if (
                                self.bestedge[w] == _NONE
                                or kslack < self.slack(self.bestedge[w])
                            ):
                                self.bestedge[w] = k
                if augmented:
                    break
                # Dual update.
                deltatype = -1
                delta = deltaedge = deltablossom = None
                if not self.max_cardinality:
                    deltatype = 1
                    delta = max(0.0, min(self.dualvar[:n]))
                for v in range(n):
                    if (
                        self.label[self.inblossom[v]] == 0
                        and self.bestedge[v] != _NONE
                    ):
                        d = self.slack(self.bestedge[v])
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 2
                            deltaedge = self.bestedge[v]
                for b in range(2 * n):
                    if (
                        self.blossomparent[b] == _NONE
                        and self.label[b] == 1
                        and self.bestedge[b] != _NONE
                    ):
                        kslack = self.slack(self.bestedge[b])
                        d = kslack / 2
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 3
                            deltaedge = self.bestedge[b]
                for b in range(n, 2 * n):
                    if (
                        self.blossombase[b] >= 0
                        and self.blossomparent[b] == _NONE
                        and self.label[b] == 2
                        and (deltatype == -1 or self.dualvar[b] < delta)
                    ):
                        delta = self.dualvar[b]
                        deltatype = 4
                        deltablossom = b
                if deltatype == -1:
                    # No further progress possible (max-cardinality fixup).
                    assert self.max_cardinality
                    deltatype = 1
                    delta = max(0.0, min(self.dualvar[:n]))
                # Apply the delta.
                for v in range(n):
                    lab = self.label[self.inblossom[v]]
                    if lab == 1:
                        self.dualvar[v] -= delta
                    elif lab == 2:
                        self.dualvar[v] += delta
                for b in range(n, 2 * n):
                    if self.blossombase[b] >= 0 and self.blossomparent[b] == _NONE:
                        if self.label[b] == 1:
                            self.dualvar[b] += delta
                        elif self.label[b] == 2:
                            self.dualvar[b] -= delta
                # Act on the limiting constraint.
                if deltatype == 1:
                    break  # optimum reached
                elif deltatype == 2:
                    self.allowedge[deltaedge] = True
                    i, j, _ = self.edges[deltaedge]
                    if self.label[self.inblossom[i]] == 0:
                        i, j = j, i
                    assert self.label[self.inblossom[i]] == 1
                    self.queue.append(i)
                elif deltatype == 3:
                    self.allowedge[deltaedge] = True
                    i, j, _ = self.edges[deltaedge]
                    assert self.label[self.inblossom[i]] == 1
                    self.queue.append(i)
                else:
                    self.expand_blossom(deltablossom, False)
            if not augmented:
                break
            # Stage end: expand blossoms whose dual reached zero.
            for b in range(n, 2 * n):
                if (
                    self.blossomparent[b] == _NONE
                    and self.blossombase[b] >= 0
                    and self.label[b] == 1
                    and self.dualvar[b] == 0
                ):
                    self.expand_blossom(b, True)
        if self.check:
            self.verify_optimum()
        # Convert endpoint encoding to plain partner vertices.
        out = [_NONE] * n
        for v in range(n):
            if self.mate[v] != _NONE:
                out[v] = self.endpoint[self.mate[v]]
        for v in range(n):
            assert out[v] == _NONE or out[out[v]] == v
        return out
