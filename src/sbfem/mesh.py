"""Polytopal meshes: S-elements, sectorization, skeleton DOFs, generators.

The skeleton carries every unknown: vertex DOFs, edge-interior DOFs (3D),
and facet-interior DOFs, shared exactly by neighbouring S-elements (and
coupled FE quadrilaterals).  Each facet is stored once with a canonical
vertex order; an element that references it with a rotated or reversed
order keeps its own order for the sector map.  A lattice node is named by
one int64 built from its corner ids and weights (`number_dofs`), so it has
one name, and one DOF, in every facet and FE quad that contains it,
whatever order lists their vertices.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MeshError
from .polyspace import trace_basis
from .refgeom import FacetKind, _facet_points, _sector_jacobians

_KIND_BY_SIZE = {2: FacetKind.SEGMENT, 3: FacetKind.TRIANGLE,
                 4: FacetKind.QUADRILATERAL}
# Points closer than MERGE_RTOL x the coordinate extent are one vertex;
# distinct ones closer than NEAR_RTOL x the extent are an error.  A
# quad facet's diagonals (skew even at a straight angle, where three corners
# are collinear) pass within PLANARITY_RTOL x h_max of each other.
MERGE_RTOL = 1e-12
NEAR_RTOL = 1e-8
PLANARITY_RTOL = 1e-8
# (1, 1/rho, 1/rho^2), rho the plastic number (rho^3 = rho + 1): independent
# over the rationals, so no two points of a grid project alike (with
# (1, phi - 1, 2 - phi) the points (i + 1, j, k) and (i, j + 1, k + 1) did)
MERGE_DIRECTION = np.array([1.0, 0.7548776662466927, 0.5698402909980532])


class PolytopalMesh:
    """Mesh of S-elements (plus optional coupled FE quads); immutable once
    built by `_register`, the one construction path of every constructor,
    which merges the points it is given by the one vertex-merge rule
    (`_merge_vertices`)."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.vertices = np.zeros((0, dimension))
        # every sector by facet kind, in mesh order, read-only: kind -> (centres (S, d),
        # facet vertices (S, n_vertices, d), (S-element id, facet position) (S, 2))
        self._stacks: dict = {}

    # -- construction ----------------------------------------------------------

    def _register(self, points: np.ndarray, table: np.ndarray, counts,
                  centres=None, dirichlet=None) -> "PolytopalMesh":
        """Build the mesh from its sector table in array passes, and validate.

        `table` (R, w) lists the point indices of every sector, padded with
        -1, S-element by S-element in mesh order (S-element e has `counts[e]`
        sectors), then the 4 edges (v_i, v_i+1) of each counter-clockwise FE
        quad.  `points` (N, d) may repeat: copies are merged by the one
        vertex-merge rule (`_merge_vertices`), and the vertices are the first
        copies, numbered in order of first appearance.  Each sector is turned
        to face its S-element's centre, so it may be listed either way round;
        a facet takes the id and vertex order of its first listing so turned.
        `centres` and `dirichlet` map S-element ids to given scaling centres
        and side-face Dirichlet point indices; any other centre is the mean
        of the element's distinct vertices.
        """
        dim, centres = self.dimension, centres or {}
        copy = _merge_vertices(points)
        head = copy == np.arange(len(copy))
        # each point's vertex id, and -1 for the padding -1
        vertices, vid = points[head], np.append((np.cumsum(head) - 1)[copy], -1)
        given, table = table, vid[table]
        dirichlet = {e: tuple(vid[list(vs)].tolist())
                     for e, vs in (dirichlet or {}).items()}
        self.vertices = vertices
        self._extent = float(np.ptp(vertices, axis=0).max(initial=0.0)) or 1.0
        counts = np.asarray(counts, dtype=int)
        n_s = counts.sum()
        size = (table >= 0).sum(axis=1)
        sizes = [s for s, kind in _KIND_BY_SIZE.items() if kind.ambient_dim == dim]
        elem = np.repeat(np.arange(len(counts)), counts)
        for r in np.flatnonzero(~np.isin(size[:n_s], sizes))[:1]:
            raise MeshError(f"S-element {elem[r]}: unsupported facet with {size[r]} "
                            f"vertices in dimension {dim}")
        rows = table[:n_s]
        # the (S-element, vertex) pairs, coded e nv + v, where each is first
        # listed, and the pair of each facet corner; padding repeats corner 0
        nv = len(vertices) + 1
        ring = np.where(rows >= 0, rows, rows[:, :1])
        code = elem[:, None] * nv
        pairs, seen, node = np.unique(code + ring, return_index=True, return_inverse=True)
        centre = self._centres(pairs, nv)
        for e, c in centres.items():
            centre[e] = np.asarray(c, dtype=float)
        # turn each sector to face its centre: the signed measure of its cone,
        # a fan over the corner offsets o = v - c, is o0 x o1 in 2D and
        # o0 . (o1 x o2 + o2 x o3) = o0 . ((o2 - o0) x (o3 - o1)) over the
        # ring of 4 in 3D, from u = o / extent, whose products neither overflow
        # nor underflow; reverse (a, b, c, d) -> (d, c, b, a) where negative
        o = np.take(vertices, ring, axis=0) - np.take(centre, elem, axis=0)[:, None]
        u = o / self._extent
        sign = (u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0] if dim == 2 else
                np.einsum("rd,rd->r", u[:, 0],
                          np.cross(u[:, 2] - u[:, 0], u[:, 3] - u[:, 1])))
        if (sign < 0).any():
            j, s = np.arange(table.shape[1]), size[:n_s, None]
            turn = np.where(sign[:, None] < 0, np.where(j < s, s - 1 - j, s - 1), j)
            ring = np.take_along_axis(ring, turn, axis=1)
            o = np.take_along_axis(o, turn[..., None], axis=1)
            rows = np.where(rows >= 0, ring, -1)
            table = np.concatenate([rows, table[n_s:]])
            _, seen, node = np.unique(code + ring, return_index=True, return_inverse=True)
        node = node.reshape(rows.shape)
        ordered = np.sort(table, axis=1)
        fid, first = _first_seen(ordered)
        canon = table[first]
        vperm = (table[:, :, None] == canon[fid][:, None, :]).argmax(axis=2)
        # a listing maps the lattice onto its facet's first listing unless it
        # repeats a vertex or makes opposite corners of a quadrilateral adjacent
        bad = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1)
        bad |= (size == 4) & ((vperm[:, 2:3] - vperm[:, :1]) % 4 != 2).any(axis=1)
        for r in np.flatnonzero(bad)[:1]:   # FE quads are generated, never bad
            ids, order = (tuple(a[r, :size[r]].tolist()) for a in (given, vperm))
            raise MeshError(f"S-element {elem[r]}, facet {ids}: facet vertex order {order}"
                            f" is not a symmetry of the reference "
                            f"{_KIND_BY_SIZE[size[r]].value}")
        del given                   # the caller's table, often a temporary
        self._table, self._first, self._fid = table, first, fid
        self.centres, self._counts = centre, counts
        self._dirichlet = {e: vs for e, vs in sorted(dirichlet.items()) if vs}
        clash = self._check_boundaries(pairs, node, nv, len(counts), dirichlet)
        start = np.cumsum(counts) - counts
        pos = np.arange(n_s) - np.repeat(start, counts)
        for s in dict.fromkeys(size[:n_s].tolist()):
            at = np.flatnonzero(size[:n_s] == s)
            self._stacks[_KIND_BY_SIZE[s]] = (
                centre[elem[at]], np.take(vertices, rows[at, :s], axis=0),
                np.column_stack([elem[at], pos[at]]))
        # the class table: S-elements alike in each sector's snapped offsets and
        # corners (named by first listing, negative if pinned; only padding
        # repeats one) share a class, as do FE quads alike in corner offsets
        pins = [e * nv + v for e, vs in dirichlet.items() for v in vs]
        seen[np.searchsorted(pairs, np.array(pins, dtype=int))] -= node.size
        label = seen[node] - (start * node.shape[1])[elem][:, None]
        offsets = _shape_keys(self, o)
        sector = np.column_stack([label, offsets.reshape(n_s, ring.shape[1] * dim)])
        rep = np.arange(len(counts))         # each S-element's lowest class member
        for c in _distinct(counts).tolist():
            at = np.flatnonzero(counts == c)
            ids, first = _first_seen(np.take(
                sector, start[at][:, None] + np.arange(c), axis=0).reshape(len(at), -1))
            rep[at] = at[first][ids]
        self._sel_class = (np.cumsum(rep == np.arange(len(rep))) - 1)[rep]
        quads = np.take(vertices, self._quads(), axis=0)
        self._fe_class = _first_seen(_shape_keys(self, quads - quads[:, :1]).reshape(
            len(quads), 4 * dim))[0]
        for array in sum(self._stacks.values(), (self._sel_class, self._fe_class,
                                                 self._table, self._first, self._fid,
                                                 self.centres, self._counts)):
            array.flags.writeable = False
        self.validate([(elem[a], pos[a], pos[b]) for a, b in clash])
        return self

    def _check_boundaries(self, pairs, node, nv, n_elements, dirichlet):
        """The lowest pair of sector rows, if any, that meet head to head or
        tail to tail (one of the two facets is seen from behind).  Raises a
        MeshError naming the lowest S-element whose facets form no 2D chain or
        loop or no closed 3D surface, whose facets fall apart into
        disconnected pieces, or whose side-face Dirichlet vertices are not
        ends of its open chain.  Counts the facets at each (S-element, vertex)
        pair in 2D and at each (S-element, undirected edge) in 3D, by
        direction, and the connected components of each element's facet
        edges.  `pairs` holds the codes e nv + v of the pairs, and `node` the
        pair of each facet corner."""
        nxt = np.roll(node, -1, axis=1)
        root = _roots(node.ravel(), nxt.ravel(), len(pairs))
        pieces = np.bincount(pairs[root == np.arange(len(pairs))] // nv,
                             minlength=n_elements)
        # the uses of each pair (2D: the two ends of a facet) or undirected
        # edge (3D), each at the corner that starts it, and how many run up:
        # end at the pair, or ascend the edge
        if self.dimension == 2:
            starts = np.broadcast_to(np.arange(node.shape[1]) < 2, node.shape)
            at = node[:, :2].ravel()
            key, count = pairs, np.bincount(at, minlength=len(pairs))
            up = np.bincount(node[:, 1], minlength=len(pairs))
        else:
            starts = node != nxt
            a, b = node[starts], nxt[starts]
            edge, at, count = np.unique(np.minimum(a, b) * len(pairs) + np.maximum(a, b),
                                        return_inverse=True, return_counts=True)
            key, up = pairs[edge // len(pairs)], np.bincount(at, weights=a < b)
        owner, tip = np.divmod(key, nv)
        single = np.bincount(owner[count == 1], minlength=n_elements)
        is_open = (single == 2) & (self.dimension == 2)
        broken = ((np.bincount(owner[count > 2], minlength=n_elements) > 0)
                  | ((single > 0) & ~is_open))
        culprits = [(e, 0, f"S-element {e}: " + (
            "boundary facets do not form a chain or loop" if self.dimension == 2
            else "open polyhedral boundaries are not supported" if single[e]
            else "non-manifold boundary surface"))
            for e in np.flatnonzero(broken)[:1].tolist()]
        culprits += [(e, 0, f"S-element {e}: boundary facets form {pieces[e]} "
                            "disconnected pieces")
                     for e in np.flatnonzero((pieces > 1) & ~broken)[:1].tolist()]
        for e, dbc in sorted(dirichlet.items()):
            ends = (sorted(tip[(count == 1) & (owner == e)].tolist()) if is_open[e]
                    else [])
            if loose := [v for v in dbc if v not in ends]:
                culprits.append((e, 1, f"S-element {e}: Dirichlet side-face vertex "
                                       f"{loose[0]} is not an open-boundary "
                                       f"endpoint {ends}" if is_open[e] else
                                 f"S-element {e} is closed but lists "
                                 "side-face Dirichlet vertices"))
        if culprits:
            raise MeshError(min(culprits)[2])
        # a pair or edge used twice the same way: sectors that meet head to
        # head or tail to tail, as rows in ascending order
        twice = ((count == 2) & (up != 1))[at]
        rows = np.nonzero(starts)[0][twice][np.argsort(at[twice], kind="stable")]
        return sorted(rows.reshape(-1, 2).tolist())[:1]

    def _centres(self, pairs, nv) -> np.ndarray:
        """Mean of each S-element's distinct vertices, from the codes e nv + v
        of its (S-element, vertex) pairs, summed in id order as `np.mean` sums
        the rows of `vertices[ids]`."""
        owner, vid = np.divmod(pairs, nv)
        head = np.diff(owner, prepend=-1) > 0
        sums = self.vertices[vid[head]]
        np.add.at(sums, owner[~head], self.vertices[vid[~head]])
        return sums / np.bincount(owner)[:, None]

    # -- queries ---------------------------------------------------------------

    def boundary_facet_ids(self) -> list[int]:
        return np.flatnonzero(np.bincount(self._fid) == 1).tolist()

    def h_max(self) -> float:
        """Largest distance between two vertices of one facet."""
        return max((float(np.linalg.norm(p[:, :, None] - p[:, None], axis=-1).max())
                    for _, p in self._facet_corners(range(len(self._first))).values()),
                   default=0.0)

    def _facet_corners(self, fids) -> dict:
        """kind -> (the facets of `fids` of that kind, in the given order,
        their vertex coordinates (F, n_vertices, d)), kinds in order of first
        appearance; read from the first listing of each facet."""
        fids = np.asarray(fids, dtype=int)
        rows = self._table[self._first[fids]]
        size = (rows >= 0).sum(axis=1)
        return {_KIND_BY_SIZE[s]: (fids[size == s].tolist(),
                                   np.take(self.vertices, rows[size == s, :s], axis=0))
                for s in dict.fromkeys(size.tolist())}

    def _listing(self, r) -> tuple:
        """The vertex ids of row r of the sector table."""
        return tuple(v for v in self._table[r].tolist() if v >= 0)

    def _quads(self) -> np.ndarray:
        """Corner ids (Q, 4) of the FE quads, counter-clockwise: the first
        vertex of each of their edge rows, which follow the sector rows."""
        return self._table[self._counts.sum():, 0].reshape(-1, 4)

    # -- validation ------------------------------------------------------------

    def validate(self, conflicts):
        owners = np.bincount(self._fid)
        for fid in np.flatnonzero(owners > 2)[:1]:
            raise MeshError(f"facet {fid} {self._listing(self._first[fid])} is "
                            f"shared by {owners[fid]} elements")
        if self.dimension == 3:
            self._check_planarity()
        self._check_star_shape(conflicts)

    def _check_planarity(self):
        scale = max(self.h_max(), 1e-300)
        fids, pts = self._facet_corners(range(len(self._first))).get(
            FacetKind.QUADRILATERAL, ([], np.zeros((0, 4, 3))))
        n = np.cross(pts[:, 2] - pts[:, 0], pts[:, 3] - pts[:, 1])
        nn = np.linalg.norm(n, axis=-1)
        degenerate = nn < 1e-14 * scale * scale
        off = np.abs(np.sum((pts[:, 1] - pts[:, 0]) * n, axis=-1)
                     / np.where(degenerate, 1.0, nn))
        bad = np.flatnonzero(degenerate | (off > PLANARITY_RTOL * scale))
        if bad.size:
            i = bad[0]
            if degenerate[i]:
                raise MeshError(f"facet {fids[i]} is degenerate")
            raise MeshError(f"facet {fids[i]} is non-planar "
                            f"(offset {off[i]:.2e} > {PLANARITY_RTOL:.0e} x {scale:.2e})")

    def _check_star_shape(self, conflicts):
        """|J(1,eta)| > 0 on every sector's open facet, decided exactly at the
        reference corners (|J| is constant on a segment or triangle, bilinear
        on a quadrilateral): a sector fails if |J| < -tol at a corner (it
        folds) or |J| <= tol at all (it is flat), tol = 1e-14 x the product of
        J's column norms there, so scaling keeps the verdict; a straight angle
        passes.  The coordinates are first scaled, exactly, by the power of
        two 2^-e that takes the extent into [1/2, 1), so that neither J nor
        its products overflow or underflow at any scale.  `conflicts` lists
        (S-element, position, position) of sectors meeting head to head or
        tail to tail; the lowest of all is named."""
        culprits, e = list(conflicts), np.frexp(self._extent)[1]
        for kind, (centres, vertices, owners) in self._stacks.items():
            J, det = _sector_jacobians(kind, trace_basis(kind, 1).nodes,
                                       np.ldexp(centres, -e), np.ldexp(vertices, -e))
            tol = 1e-14 * np.sqrt(np.einsum("sqij,sqij->sqj", J, J)).prod(axis=-1)
            bad = (det < -tol).any(axis=1) | (det <= tol).all(axis=1)
            culprits += [(*owner, -1) for owner in owners[bad][:1].tolist()]
        if culprits:
            e, pos, other = min(culprits)
            row = int(self._counts[:e].sum())
            what = (f"facet {self._listing(row + pos)} is not fully visible from"
                    if other < 0 else f"facets {self._listing(row + pos)} and "
                    f"{self._listing(row + other)} cannot both face")
            raise MeshError(f"S-element {e} fails the star-shape check: "
                            f"{what} its scaling center {self.centres[e]}")


def _roots(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The lowest node of the connected component of each of n nodes of the
    graph with edges (a, b): hook the higher root of each edge's ends onto
    the lower one, compress the paths, and repeat until every edge lies in
    one component."""
    root = np.arange(n)
    while (root[a] != root[b]).any():
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while (root[root] != root).any():
            root = root[root]
    return root


def _shape_keys(mesh: PolytopalMesh, offsets: np.ndarray) -> np.ndarray:
    """Congruence keys: offsets snapped to MERGE_RTOL x the mesh's extent,
    so copies match at any scale; + 0.0 drops -0.0."""
    return np.round(offsets / mesh._extent, 12) * mesh._extent + 0.0


def import_mesh(source) -> PolytopalMesh:
    """Build and validate a mesh from the JSON schema (path, dict or file).

    The file's vertices and vertex indices go to `_register` as they are,
    so copies merge as a generator's corners do, and mesh ids may differ
    from file indices.
    """
    try:
        if isinstance(source, dict):
            data = source
        elif hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {source}: {exc}") from exc
    try:
        if "boundary_tags" in data:
            raise MeshError("mesh file key 'boundary_tags' is not supported: "
                            "the problem sets the Dirichlet facets")
        given = data["dimension"]
        verts = list(data["vertices"])
        sels = list(data["selements"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh file: {exc!r}") from exc
    dim = operator.index(given) if hasattr(given, "__index__") else None
    if dim not in (2, 3):   # an integer, read as the facet indices are
        raise MeshError(f"dimension {given!r} is not 2 or 3")
    if not sels:
        raise MeshError("mesh file lists no S-elements")
    mesh = PolytopalMesh(dim)
    try:    # one conversion; where it fails, the first bad vertex is named
        xyz = np.array(verts, dtype=float)
    except (TypeError, ValueError):
        xyz = np.zeros(0)
    if xyz.shape != (len(verts), dim) or not np.isfinite(xyz).all():
        for i, v in enumerate(verts):
            _coords(v, dim, f"vertex {i}")
    xyz = xyz.reshape(-1, dim)
    # every facet listing flat, its indices checked in one pass; a fault sends
    # the file through the entry-by-entry check, which names the first bad entry
    try:
        lists = [f for entry in sels for f in entry["facets"]]
        flat = np.array([operator.index(i) for f in lists for i in f], dtype=np.int64)
        bad = ((flat < 0) | (flat >= len(xyz))).any()
    except (KeyError, TypeError, OverflowError):
        bad = True
    counts, centres, dirichlet = [], {}, {}
    for n, entry in enumerate(sels):
        if not isinstance(entry, dict):
            raise MeshError(f"S-element {n}: {entry!r} is not an object")
        facets = entry.get("facets", [])   # a string or an object iterates too
        if isinstance(facets, (str, dict)) or not np.iterable(facets):
            raise MeshError(f"S-element {n} facets {facets!r} is not a list")
        facets = list(facets)
        if bad:
            for f in facets:
                _indices(f, len(xyz), f"S-element {n} facet")
        if not facets:
            raise MeshError(f"S-element {n} has no facets")
        counts.append(len(facets))
        if entry.get("center") is not None:
            centres[n] = _coords(entry["center"], dim, f"S-element {n} center")
        if "dirichlet_sideface_nodes" in entry:
            dirichlet[n] = _indices(entry["dirichlet_sideface_nodes"], len(xyz),
                                    f"S-element {n} dirichlet_sideface_nodes")
    size = np.fromiter(map(len, lists), int, len(lists))
    table = np.full((len(lists), max(4, size.max())), -1)
    table[np.arange(table.shape[1]) < size[:, None]] = flat
    return mesh._register(xyz, table, counts, centres, dirichlet)


def _merge_vertices(xyz: np.ndarray) -> np.ndarray:
    """Index of the first copy of each point of `xyz` (N, d): the one
    vertex-merge rule of every mesh.

    Two points within MERGE_RTOL of the coordinate extent (max norm) are
    copies; two further apart but within NEAR_RTOL of it raise a MeshError,
    so the copies of a vertex are all within MERGE_RTOL of each other.
    Exact copies collapse first, by one sort of the coordinates' bytes;
    candidate pairs of the distinct points are then neighbours in the order
    of a projection onto MERGE_DIRECTION, so the scan stays short.
    """
    ids, first = _first_seen(xyz + 0.0)
    pts = xyz[first]
    n, d = pts.shape
    # by columns: numpy reduces the rows of a narrow array slowly
    extent = float(np.ptp(np.ascontiguousarray(pts.T), axis=1).max()) if n else 0.0
    merge, near = MERGE_RTOL * extent, NEAR_RTOL * extent
    w = MERGE_DIRECTION[:d]
    proj = pts @ w
    order = np.argsort(proj, kind="stable")
    rep = np.arange(n)
    for lag in range(1, n):
        lo, hi = order[:-lag], order[lag:]
        a, b = np.minimum(lo, hi), np.maximum(lo, hi)
        close = np.abs(proj[b] - proj[a]) <= near * w.sum()
        if not close.any():
            break
        a, b = a[close], b[close]
        gap = np.abs(pts[a] - pts[b]).max(axis=1)
        bad = np.flatnonzero((gap > merge) & (gap <= near))
        if bad.size:
            i = bad[0]
            raise MeshError(
                f"vertices {first[a[i]]} and {first[b[i]]} are {gap[i]:.1e} apart, "
                f"nearly coincident for a coordinate extent of {extent:.2e}")
        np.minimum.at(rep, b[gap <= merge], a[gap <= merge])
    return first[rep][ids]


def _coords(values, dim: int, what: str) -> np.ndarray:
    """A file entry's coordinates as `dim` floats."""
    try:
        xyz = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise MeshError(f"{what} {values!r} is not a list of numbers") from None
    if xyz.shape != (dim,) or not np.isfinite(xyz).all():
        raise MeshError(f"{what} {values!r} is not {dim} finite coordinates")
    return xyz


def _indices(indices, n: int, what: str) -> tuple:
    """A file entry's vertex indices, each checked to be in 0..n-1."""
    try:
        if all(0 <= operator.index(i) < n for i in indices):
            return tuple(operator.index(i) for i in indices)
    except TypeError:
        pass
    raise MeshError(f"{what} {indices!r} is not a list of vertex indices in "
                    f"0..{n - 1}")


# -- degree-of-freedom numbering ------------------------------------------------


@dataclass
class DofNumbering:
    """Global and S-local DOFs of a mesh's lattice nodes; a table of entries
    of unequal length is flat, entry i being items[start[i]:start[i + 1]]."""

    k: int
    n_total: int
    vertex_dof: np.ndarray     # per mesh vertex: its DOF, -1 if on no facet
    coords: np.ndarray         # physical coordinates per DOF
    facet_dofs: np.ndarray     # per facet, by id: its DOFs in canonical order
    facet_start: np.ndarray    # (facets + 1,) offsets into facet_dofs
    fe_nodes: np.ndarray       # (FE quads, (k+1)^2): DOF of each lattice node
    selement_dofs: np.ndarray  # per S-element: the DOF of each S-local index
    selement_start: np.ndarray  # (S-elements + 1,) offsets into selement_dofs
    sector_rows: dict          # kind -> S-local index (sectors, nodes) of each node
                               # of `PolytopalMesh._stacks`, element's order,
                               # -1 at a side-face pin

    def facet_boundary_dofs(self, facet_ids) -> np.ndarray:
        on = np.zeros(len(self.facet_start) - 1, dtype=bool)
        on[facet_ids] = True
        return _distinct(self.facet_dofs[np.repeat(on, np.diff(self.facet_start))])


@lru_cache(maxsize=None)
def _corner_weights(kind: FacetKind, k: int) -> np.ndarray:
    """k^2 N_c at the lattice nodes of the reference facet: (L, n_vertices)
    integers, N_c being the facet's corner shape functions."""
    N = _facet_points(kind, trace_basis(kind, k).nodes, np.eye(kind.n_vertices))
    W = np.rint(k * k * N).astype(np.int64)
    W.flags.writeable = False
    return W


@lru_cache(maxsize=None)
def _node_corners(kind: FacetKind, k: int) -> tuple:
    """The lattice nodes of the reference facet with one or two nonzero
    corner weights (`_corner_weights`), their first and last such corner
    (F, 2) and its weights (F, 2); the other nodes and their weights."""
    W = _corner_weights(kind, k)
    nz, n = W > 0, (W > 0).sum(axis=1)
    few, more = np.flatnonzero(n <= 2), np.flatnonzero(n > 2)
    ends = np.column_stack([nz[few].argmax(axis=1),
                            W.shape[1] - 1 - nz[few, ::-1].argmax(axis=1)])
    return few, ends, np.take_along_axis(W[few], ends, axis=1), more, W[more]


def number_dofs(mesh: PolytopalMesh, k: int) -> DofNumbering:
    """One global DOF per named lattice node of the facets and FE quads, and
    the S-local DOFs of every S-element.

    Every row of the mesh's sector table is named in its element's own
    vertex order, then every FE quad.  Vertices come first, by id; in 3D,
    edge nodes next, by (lower id, higher id, distance from the lower); then
    every other node, in the order in which the rows first name it: a facet
    first at its first listing, so facets by id, then FE quads.  The S-local
    DOFs of an S-element are the DOFs that its sectors name, in that order,
    but for its side-face Dirichlet pins, which only remove trace functions.
    """
    table, first, counts = mesh._table, mesh._first, mesh._counts
    n_rows, n_s, quads = len(table), counts.sum(), mesh._quads()
    corners = np.full((n_rows + len(quads), max(table.shape[1], 4)), -1)
    corners[:n_rows, :table.shape[1]] = table
    corners[n_rows:, :4] = quads
    size = (corners >= 0).sum(axis=1)
    nodes = np.array([0, 0] + [len(_corner_weights(_KIND_BY_SIZE[s], k))
                               for s in (2, 3, 4)])   # lattice nodes by size
    start = np.concatenate([[0], np.cumsum(nodes[size])])
    # one int64 name per node, the same in every listing, from its nonzero
    # weights W_c = k^2 N_c, base = k^2 + 1: a vertex its id v < nv; a node
    # between corners lo < hi nv + (lo nv + hi) base + W_hi < edge; any other,
    # inside facet or FE quad o (quads after facets), edge + o base^4 + sum_c
    # W_c base^rank(c), rank(c) that of corner c's id in its row.  Exact while
    # edge + owners base^4 <= 2^63: nv^2 (k^2 + 1) < 2^63, nv < 3.7e8 at k = 8
    nv, base, owner = len(mesh.vertices), k * k + 1, np.append(
        mesh._fid, len(first) + np.arange(len(quads)))
    edge = nv * (1 + nv * base)
    if edge + len(owner) * base ** 4 > 2 ** 63:
        raise MeshError(f"a mesh of {nv} vertices is too large to name its "
                        f"degree-{k} lattice nodes in int64")
    names = np.empty(start[-1], dtype=np.int64)
    for s in _distinct(size).tolist():
        at = np.flatnonzero(size == s)
        ids, slot = corners[at, :s], start[at][:, None]
        few, ends, w, more, W = _node_corners(_KIND_BY_SIZE[s], k)
        a, b = ids[:, ends[:, 0]], ids[:, ends[:, 1]]
        names[slot + few] = np.where(a == b, a, nv + np.where(a < b, w[:, 1], w[:, 0])
                                     + (np.minimum(a, b) * nv + np.maximum(a, b)) * base)
        if len(more):       # no interior nodes on a segment
            rank = np.argsort(np.argsort(ids, axis=1), axis=1)
            names[slot + more] = edge + owner[at][:, None] * base ** 4 + base ** rank @ W.T
    # vertices by id and, in 3D, edge nodes by (lo, hi, W_hi), as their
    # names sort; then the rest by first naming
    unique, seen, inverse = np.unique(names, return_index=True, return_inverse=True)
    by_name = np.searchsorted(unique, nv if mesh.dimension == 2 else edge)
    seen[:by_name] = np.arange(-by_name, 0)
    dof = np.empty(len(unique), dtype=int)
    dof[np.argsort(seen)] = np.arange(len(unique))
    slot_dof = dof[inverse]
    coords = np.zeros((len(unique), mesh.dimension))
    # a facet sets its nodes from its first listing, an FE quad (the only row
    # with more than d + 1 corners) only its interior nodes
    heads = np.concatenate([first, np.arange(n_rows, len(corners))])
    for s in dict.fromkeys(size[heads].tolist()):
        at, kind = heads[size[heads] == s], _KIND_BY_SIZE[s]
        own = np.flatnonzero((_corner_weights(kind, k) > 0).all(axis=1)
                             | (s <= mesh.dimension + 1))
        coords[slot_dof[start[at][:, None] + own]] = _facet_points(
            kind, trace_basis(kind, k).nodes[own],
            np.take(mesh.vertices, corners[at, :s], axis=0))
    vertex_dof = np.full(nv, -1)
    vertex_dof[unique[unique < nv]] = dof[unique < nv]
    # S-local DOFs: the (S-element, DOF) pairs of the sector rows, coded
    # e n + dof, numbered in order of first appearance, those of each
    # S-element after those of the S-elements before it; a side-face pin
    # gets no S-local index, and its sector rows name it -1
    elem = np.repeat(np.repeat(np.arange(len(counts)), counts), nodes[size[:n_s]])
    code = elem * len(unique) + slot_dof[:start[n_s]]
    ids, firsts = _first_seen(code)
    pinned = np.isin(code[firsts], np.array(
        [e * len(unique) + vertex_dof[v] for e, vs in mesh._dirichlet.items()
         for v in vs], dtype=int))
    firsts = firsts[~pinned]
    selement_start = np.searchsorted(elem[firsts], np.arange(len(counts) + 1))
    local = np.where(pinned[ids], -1,
                     np.cumsum(~pinned)[ids] - 1 - selement_start[elem])
    facet_size = nodes[size[first]]
    facet_start = np.concatenate([[0], np.cumsum(facet_size)])
    return DofNumbering(
        k=k, n_total=len(unique), vertex_dof=vertex_dof, coords=coords,
        facet_dofs=slot_dof[np.repeat(start[first] - facet_start[:-1], facet_size)
                            + np.arange(facet_start[-1])],
        facet_start=facet_start,
        fe_nodes=slot_dof[start[n_rows]:].reshape(len(quads), nodes[4]),
        selement_dofs=slot_dof[firsts], selement_start=selement_start,
        sector_rows={_KIND_BY_SIZE[s]: local[start[:n_s][size[:n_s] == s][:, None]
                                             + np.arange(nodes[s])]
                     for s in _distinct(size[:n_s]).tolist()})


# -- generators -------------------------------------------------------------


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the integer array `values`, as
    `np.unique(values)` gives them.  numpy 2's value-only `np.unique` asks
    `np.ma.is_masked`, whose first use imports numpy.ma, which nothing else
    here needs: about 12 ms and 1.3 MB of every fresh process."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.shape, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the rows of `keys` (R, c), rows of equal bytes sharing one (so
    float keys need -0.0 mapped to 0.0), or of the integers `keys` (R,),
    numbered in order of first appearance; and the first row of each id.
    One stable sort of the rows as byte strings, or of the integers, in
    which a run of equal keys starts at its first row."""
    keys = np.ascontiguousarray(keys)
    bits = keys.view(f"u{keys.itemsize}")
    if keys.ndim == 2:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    else:
        bits = bits[:, None]
    order = np.argsort(keys, kind="stable")
    head = np.ones(len(keys), dtype=bool)
    bits = bits[order]
    head[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    first = order[head]
    ids = np.empty(len(keys), dtype=int)
    ids[order] = np.argsort(np.argsort(first))[np.cumsum(head) - 1]
    return ids, np.sort(first)


def _quad_family(n: int, splits: int, domain) -> PolytopalMesh:
    """n x n square S-elements on `domain`, each side split `splits` times."""
    if n < 1 or splits < 1:
        raise MeshError("n and splits must be >= 1")
    (x0, x1), (y0, y1) = domain
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    j, i = np.divmod(np.arange(n * n), n)
    ax, ay = (x0 + i * hx)[:, None], (y0 + j * hy)[:, None]
    bx, by = ax + hx, ay + hy
    sx, sy = np.arange(splits) * hx / splits, np.arange(splits) * hy / splits
    xs = np.hstack([ax + sx, bx.repeat(splits, 1), bx - sx, ax.repeat(splits, 1)])
    ys = np.hstack([ay.repeat(splits, 1), ay + sy, by.repeat(splits, 1), by - sy])
    ids = np.arange(xs.size).reshape(n * n, 4 * splits)
    facets = np.stack([ids, np.roll(ids, -1, axis=1)], axis=-1).reshape(-1, 2)
    return PolytopalMesh(2)._register(np.stack([xs, ys], axis=-1).reshape(-1, 2),
                                      facets, np.full(n * n, 4 * splits))


def gen_quad_mesh(n: int, domain=((-1.0, 1.0), (-1.0, 1.0))) -> PolytopalMesh:
    """Uniform n x n quadrilateral S-elements, four triangle sectors each."""
    return _quad_family(n, 1, domain)


def gen_polygon_case1(n: int, domain=((-1.0, 1.0), (-1.0, 1.0))) -> PolytopalMesh:
    """n x n octagon-topology S-elements: square sides subdivided once."""
    return _quad_family(n, 2, domain)


def gen_refined_square(n: int, domain=((-1.0, 1.0), (-1.0, 1.0))) -> PolytopalMesh:
    """Single square S-element whose boundary carries 4n uniform facets."""
    return _quad_family(1, n, domain)


def _hex_family(n: int, splits: int, domain) -> PolytopalMesh:
    """n^3 cube S-elements, each face split splits x splits into quads."""
    if n < 1 or splits < 1:
        raise MeshError("n and splits must be >= 1")
    (x0, x1), (y0, y1), (z0, z1) = domain
    h = np.array([(x1 - x0) / n, (y1 - y0) / n, (z1 - z0) / n])
    lo = np.array([x0, y0, z0])
    # offset of each face corner from the cube's low corner, one addition
    # per coordinate, in (axis, side, q, p, corner) order; side-0 faces run
    # the other way round
    axis, side, q, p, c = np.indices((3, 2, splits, splits, 4)).reshape(5, -1)
    u, v, t = (axis + 1) % 3, (axis + 2) % 3, np.arange(len(axis))
    turn = np.where(side == 1, c, -c % 4)
    offsets = np.zeros((len(t), 3))
    offsets[t, axis] = side * h[axis]
    offsets[t, u] = (p + np.array([0, 1, 1, 0])[turn]) * h[u] / splits
    offsets[t, v] = (q + np.array([0, 0, 1, 1])[turn]) * h[v] / splits
    a = lo + h * (np.arange(n ** 3)[:, None] // [1, n, n * n] % n)   # (ix, jy, kz)
    points = (a[:, None] + offsets).reshape(-1, 3)
    return PolytopalMesh(3)._register(points, np.arange(len(points)).reshape(-1, 4),
                                      np.full(n ** 3, 6 * splits * splits))


def gen_hex_mesh(n: int, domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))) -> PolytopalMesh:
    """Uniform n^3 cube S-elements, six pyramid sectors each."""
    return _hex_family(n, 1, domain)


def gen_polyhedron_case1(n: int, domain=((0.0, 1.0), (0.0, 1.0),
                                         (0.0, 1.0))) -> PolytopalMesh:
    """n^3 cube S-elements with each face split 2x2 (24 facets each)."""
    return _hex_family(n, 2, domain)


def gen_refined_cube(n: int, domain=((0.0, 1.0), (0.0, 1.0),
                                     (0.0, 1.0))) -> PolytopalMesh:
    """Single cube S-element with 6 n^2 quadrilateral facets."""
    return _hex_family(1, n, domain)


def _open_mesh(n: int, domain, fe_corners=()) -> PolytopalMesh:
    """The open S-element scaled from the bottom middle of the rectangle
    `domain`: n facets on each vertical side, 2n on the top, the bottom open,
    a homogeneous Dirichlet side-face condition at the bottom left corner.
    FE quads with corners `fe_corners` (Q, 4, 2) follow."""
    (x0, x1), (y0, y1) = domain
    rim = ([(x1, y0 + s * (y1 - y0) / n) for s in range(n + 1)]
           + [(x1 + s * (x0 - x1) / (2 * n), y1) for s in range(1, 2 * n + 1)]
           + [(x0, y1 - s * (y1 - y0) / n) for s in range(1, n + 1)])
    points = np.concatenate([rim, np.reshape(fe_corners, (-1, 2))])
    quads = np.arange(len(rim), len(points)).reshape(-1, 4)
    edges = np.stack([quads, np.roll(quads, -1, axis=1)], axis=-1).reshape(-1, 2)
    return PolytopalMesh(2)._register(
        points, np.concatenate([np.arange(len(rim) - 1)[:, None] + [0, 1], edges]),
        [4 * n], centres={0: (0.5 * (x0 + x1), y0)}, dirichlet={0: (len(rim) - 1,)})


def singular_open_selement(n: int, domain=((-1.0, 1.0), (0.0, 1.0))) -> PolytopalMesh:
    """One open S-element scaled from the boundary point at the bottom middle.

    The scaled boundary covers the two vertical sides and the top side with
    4n uniform facets; the bottom halves are side-faces, with a homogeneous
    Dirichlet condition on the left one (vanishing trace at its endpoint)
    and a natural condition on the right one.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    return _open_mesh(n, domain)


def gen_coupled_singular(level: int) -> PolytopalMesh:
    """FE quads on [-1,1]x[0,1] coupled to one open S-element [-0.5,0.5]x[0,0.5].

    Mesh size h = 2^-level; the S-element scaling center sits at the singular
    point (0,0) and the interface partition matches the FE grid.
    """
    if level < 1:
        raise MeshError("level must be >= 1")
    h = 2.0 ** (-level)
    nx, ny = round(2.0 / h), round(1.0 / h)
    j, i = np.divmod(np.arange(nx * ny), nx)
    ax, ay = -1.0 + i * h, j * h
    cx, cy = ax + 0.5 * h, ay + 0.5 * h
    keep = ~((-0.5 < cx) & (cx < 0.5) & (cy < 0.5))
    corners = np.stack([np.column_stack([ax, ax + h, ax + h, ax]),
                        np.column_stack([ay, ay, ay + h, ay + h])], axis=-1)[keep]
    return _open_mesh(round(0.5 / h), ((-0.5, 0.5), (0.0, 0.5)), corners)
