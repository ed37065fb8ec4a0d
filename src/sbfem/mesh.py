"""Polytopal meshes: S-elements, sectorization, skeleton DOFs, generators.

The skeleton carries every unknown: vertex DOFs, edge-interior DOFs (3D),
and facet-interior DOFs, shared exactly by neighbouring S-elements (and
coupled FE quadrilaterals).  Each facet is stored once with a canonical
vertex order; an element that references it with a rotated or reversed
order keeps its own order for the sector map.  A lattice node is named by
its corners (`_node_names`), so it has one name, and one DOF, in every
facet and FE quad that contains it, whatever order lists their vertices.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MeshError
from .polyspace import facet_quadrature, trace_basis
from .refgeom import FacetKind, _facet_points, _sector_jacobians

_KIND_BY_SIZE = {2: FacetKind.SEGMENT, 3: FacetKind.TRIANGLE,
                 4: FacetKind.QUADRILATERAL}
# File vertices closer than MERGE_RTOL x the coordinate extent are one
# vertex; distinct ones closer than NEAR_RTOL x the extent are an error.
MERGE_RTOL = 1e-12
NEAR_RTOL = 1e-8


@dataclass(frozen=True)
class Facet:
    vertices: tuple
    kind: FacetKind


@dataclass
class SideFaceBC:
    """Open-boundary side-face data: vertex ids with homogeneous Dirichlet trace."""

    dirichlet_vertices: tuple = ()


@dataclass
class SElement:
    id: int
    center: np.ndarray
    facet_ids: list            # canonical facet ids
    facet_orders: list         # per facet: this element's outward vertex order
    open_boundary: SideFaceBC | None = None


@dataclass
class FEQuad:
    """Tensor-product finite element on a quadrilateral (counter-clockwise)."""

    id: int
    vertices: tuple
    edge_facets: tuple


class PolytopalMesh:
    """Mesh of S-elements (plus optional coupled FE quads); immutable once built."""

    def __init__(self, dimension: int):
        if dimension not in (2, 3):
            raise MeshError(f"unsupported dimension {dimension}")
        self.dimension = dimension
        self.vertices = np.zeros((0, dimension))
        self.facets: list[Facet] = []
        self.selements: list[SElement] = []
        self.fe_elements: list[FEQuad] = []
        self._vkey: dict[tuple, int] = {}
        self._fkey: dict[tuple, int] = {}
        self._vlist: list[np.ndarray] = []
        self._pending: dict[int, tuple] = {}
        self._extent = 1.0     # add_vertex merges at 1e-12 of this length

    # -- construction ----------------------------------------------------------

    def add_vertex(self, xyz) -> int:
        key = tuple(round(float(c) / self._extent, 12) for c in xyz)
        if key in self._vkey:
            return self._vkey[key]
        vid = len(self._vlist)
        self._vkey[key] = vid
        self._vlist.append(np.asarray(xyz, dtype=float))
        return vid

    def _facet_id(self, vertices: tuple) -> int:
        key = tuple(sorted(vertices))
        if key in self._fkey:
            return self._fkey[key]
        kind = _KIND_BY_SIZE.get(len(vertices))
        if kind is None or kind.ambient_dim != self.dimension:
            raise MeshError(f"unsupported facet with {len(vertices)} vertices "
                            f"in dimension {self.dimension}")
        fid = len(self.facets)
        self.facets.append(Facet(vertices=tuple(vertices), kind=kind))
        self._fkey[key] = fid
        return fid

    def add_selement(self, facet_vertex_lists, center=None,
                     dirichlet_sideface_vertices=()) -> SElement:
        """Register an S-element from outward-oriented facet vertex tuples."""
        fids, orders = [], []
        for vs in facet_vertex_lists:
            vs = tuple(int(v) for v in vs)
            fid = self._facet_id(vs)
            canon = self.facets[fid].vertices
            vperm = tuple(canon.index(v) for v in vs)
            # k = 2 so that edge midpoints tell opposite quad corners apart
            _lattice_perm(self.facets[fid].kind, 2, vperm)
            fids.append(fid)
            orders.append(vs)
        sel = SElement(id=len(self.selements), center=None, facet_ids=fids,
                       facet_orders=orders)
        self.selements.append(sel)
        self._pending[sel.id] = (center, tuple(dirichlet_sideface_vertices))
        return sel

    def add_fe_quad(self, vertex_ids) -> FEQuad:
        vs = tuple(int(v) for v in vertex_ids)
        edges = tuple(self._facet_id((vs[i], vs[(i + 1) % 4])) for i in range(4))
        fe = FEQuad(id=len(self.fe_elements), vertices=vs, edge_facets=edges)
        self.fe_elements.append(fe)
        return fe

    def finalize(self) -> "PolytopalMesh":
        """Freeze vertices, resolve centers and open boundaries, validate."""
        self.vertices = (np.array(self._vlist)
                         if self._vlist else np.zeros((0, self.dimension)))
        for sel in self.selements:
            center, dbc = self._pending.get(sel.id, (None, ()))
            is_open, endpoints = self._chain_state(sel)
            if center is None:
                vids = sorted({v for fid in sel.facet_ids
                               for v in self.facets[fid].vertices})
                center = self.vertices[vids].mean(axis=0)
            sel.center = np.asarray(center, dtype=float)
            if is_open:
                for v in dbc:
                    if v not in endpoints:
                        raise MeshError(
                            f"S-element {sel.id}: Dirichlet side-face vertex {v} "
                            f"is not an open-boundary endpoint {sorted(endpoints)}")
                sel.open_boundary = SideFaceBC(dirichlet_vertices=tuple(dbc))
            elif dbc:
                raise MeshError(f"S-element {sel.id} is closed but lists "
                                "side-face Dirichlet vertices")
        self._stacks = self._build_sector_stacks()
        self.validate()
        return self

    def _chain_state(self, sel: SElement) -> tuple[bool, set]:
        if self.dimension == 2:
            count = Counter(v for fid in sel.facet_ids
                            for v in self.facets[fid].vertices)
            odd = {v for v, c in count.items() if c == 1}
            if len(odd) not in (0, 2) or any(c > 2 for c in count.values()):
                raise MeshError(f"S-element {sel.id}: boundary facets do not "
                                "form a chain or loop")
            return (len(odd) == 2), odd
        count = Counter(tuple(sorted(e)) for f in sel.facet_ids
                        for e in _cycle_edges(self.facets[f].vertices))
        if any(c == 1 for c in count.values()):
            raise MeshError(f"S-element {sel.id}: open polyhedral boundaries "
                            "are not supported")
        if any(c > 2 for c in count.values()):
            raise MeshError(f"S-element {sel.id}: non-manifold boundary surface")
        return False, set()

    # -- queries ---------------------------------------------------------------

    def facet_owners(self) -> list[list]:
        owners = [[] for _ in self.facets]
        for sel in self.selements:
            for fid in sel.facet_ids:
                owners[fid].append(("S", sel.id))
        for fe in self.fe_elements:
            for fid in fe.edge_facets:
                owners[fid].append(("FE", fe.id))
        return owners

    def boundary_facet_ids(self) -> list[int]:
        return [fid for fid, ow in enumerate(self.facet_owners()) if len(ow) == 1]

    def h_max(self) -> float:
        """Largest distance between two vertices of one facet."""
        h = 0.0
        for kind in dict.fromkeys(f.kind for f in self.facets):
            pts = self.vertices[[f.vertices for f in self.facets if f.kind is kind]]
            diff = pts[:, :, None, :] - pts[:, None, :, :]
            h = max(h, float(np.linalg.norm(diff, axis=-1).max()))
        return h

    def _sector_stacks(self) -> dict:
        """Every sector of the mesh, stacked by facet kind in mesh order:
        kind -> (centres (S, d), facet vertices (S, n_vertices, d),
        (S-element id, facet position) of each sector (S, 2)).  Built once,
        by `finalize`; the arrays are read-only."""
        return self._stacks

    def _build_sector_stacks(self) -> dict:
        owners: dict = {}
        for sel in self.selements:
            for pos, fid in enumerate(sel.facet_ids):
                owners.setdefault(self.facets[fid].kind, []).append((sel.id, pos))
        sels = self.selements
        stacks = {kind: (np.array([sels[e].center for e, _ in own]),
                         self.vertices[[sels[e].facet_orders[p] for e, p in own]],
                         np.array(own, dtype=int))
                  for kind, own in owners.items()}
        for array in (a for arrays in stacks.values() for a in arrays):
            array.flags.writeable = False
        return stacks

    # -- validation ------------------------------------------------------------

    def validate(self):
        owners = self.facet_owners()
        for fid, ow in enumerate(owners):
            if not 1 <= len(ow) <= 2:
                raise MeshError(f"facet {fid} {self.facets[fid].vertices} is "
                                f"shared by {len(ow)} elements")
        if self.dimension == 3:
            self._check_planarity()
        self._check_star_shape()

    def _check_planarity(self, tol: float = 1e-8):
        scale = max(self.h_max(), 1e-300)
        fids = [fid for fid, f in enumerate(self.facets) if len(f.vertices) == 4]
        pts = self.vertices[[self.facets[f].vertices for f in fids]].reshape(-1, 4, 3)
        n = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        nn = np.linalg.norm(n, axis=-1)
        degenerate = nn < 1e-14 * scale * scale
        off = np.abs(np.sum((pts[:, 3] - pts[:, 0]) * n, axis=-1)
                     / np.where(degenerate, 1.0, nn))
        bad = np.flatnonzero(degenerate | (off > tol * scale))
        if bad.size:
            i = bad[0]
            if degenerate[i]:
                raise MeshError(f"facet {fids[i]} is degenerate")
            raise MeshError(f"facet {fids[i]} is non-planar "
                            f"(offset {off[i]:.2e} > {tol:.0e} x {scale:.2e})")

    def _check_star_shape(self):
        culprits = []
        for kind, (centres, vertices, owners) in self._sector_stacks().items():
            pts = facet_quadrature(kind, 5).points
            _, det = _sector_jacobians(kind, pts, centres, vertices)
            culprits.extend(owners[(det <= 0.0).any(axis=1)][:1].tolist())
        if culprits:
            e, pos = min(culprits)
            sel = self.selements[e]
            raise MeshError(
                f"S-element {sel.id} fails the star-shape check: facet "
                f"{sel.facet_orders[pos]} is not fully visible from its "
                f"scaling center {sel.center}")


def import_mesh(source) -> PolytopalMesh:
    """Build and validate a mesh from the JSON schema (path, dict or file).

    File vertex indices are mapped to mesh ids explicitly: duplicate
    coordinates are merged (`_merge_vertices`), so the two numberings may
    differ.
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
        dim = int(data["dimension"])
        verts = list(data["vertices"])
        sels = list(data["selements"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh file: {exc!r}") from exc
    mesh = PolytopalMesh(dim)
    xyz = np.array([_coords(v, dim, f"vertex {i}") for i, v in enumerate(verts)]
                   ).reshape(-1, dim)
    first, ids = np.unique(_merge_vertices(xyz), return_inverse=True)
    mesh._vlist = list(xyz[first])
    ids = ids.tolist()
    for n, entry in enumerate(sels):
        if not isinstance(entry, dict):
            raise MeshError(f"S-element {n}: {entry!r} is not an object")
        facets = [_mesh_ids(f, ids, f"S-element {n} facet")
                  for f in entry.get("facets", [])]
        if not facets:
            raise MeshError(f"S-element {n} has no facets")
        center = entry.get("center")
        if center is not None:
            center = _coords(center, dim, f"S-element {n} center")
        oriented = (_orient_2d(mesh, facets, center)
                    if dim == 2 else _orient_3d(mesh, facets, center))
        mesh.add_selement(oriented, center=center,
                          dirichlet_sideface_vertices=_mesh_ids(
                              entry.get("dirichlet_sideface_nodes", ()), ids,
                              f"S-element {n} dirichlet_sideface_nodes"))
    return mesh.finalize()


def _merge_vertices(xyz: np.ndarray) -> np.ndarray:
    """File index of the first copy of each file vertex.

    Two vertices within MERGE_RTOL of the coordinate extent (max norm) are
    copies; two further apart but within NEAR_RTOL of it raise a MeshError,
    so the copies of a vertex are all within MERGE_RTOL of each other.
    Candidate pairs are neighbours in the order of a projection onto a
    direction that no grid axis shares, so the scan stays short.
    """
    n, d = xyz.shape
    extent = float(np.ptp(xyz, axis=0).max()) if n else 0.0
    merge, near = MERGE_RTOL * extent, NEAR_RTOL * extent
    w = np.array([1.0, 0.6180339887498949, 0.3819660112501051])[:d]
    proj = xyz @ w
    order = np.argsort(proj, kind="stable")
    first = np.arange(n)
    for lag in range(1, n):
        a, b = np.sort([order[:-lag], order[lag:]], axis=0)
        close = np.abs(proj[b] - proj[a]) <= near * w.sum()
        if not close.any():
            break
        a, b = a[close], b[close]
        gap = np.abs(xyz[a] - xyz[b]).max(axis=1)
        bad = np.flatnonzero((gap > merge) & (gap <= near))
        if bad.size:
            i = bad[0]
            raise MeshError(
                f"vertices {a[i]} and {b[i]} are {gap[i]:.1e} apart, nearly "
                f"coincident for a coordinate extent of {extent:.2e}")
        np.minimum.at(first, b[gap <= merge], a[gap <= merge])
    return first


def _coords(values, dim: int, what: str) -> np.ndarray:
    """A file entry's coordinates as `dim` floats."""
    try:
        xyz = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise MeshError(f"{what} {values!r} is not a list of numbers") from None
    if xyz.shape != (dim,) or not np.isfinite(xyz).all():
        raise MeshError(f"{what} {values!r} is not {dim} finite coordinates")
    return xyz


def _mesh_ids(indices, ids: list, what: str) -> tuple:
    """Mesh ids of a file entry's vertex indices, each checked to be in range."""
    try:
        if all(operator.index(i) >= 0 for i in indices):
            return tuple(ids[i] for i in indices)
    except (IndexError, TypeError):
        pass
    raise MeshError(f"{what} {indices!r} is not a list of vertex indices in "
                    f"0..{len(ids) - 1}")


def _cycle_edges(vs) -> list:
    """Directed edges (vs[i], vs[i + 1]) of a closed vertex cycle."""
    return list(zip(vs, vs[1:] + vs[:1]))


def _orient_2d(mesh: PolytopalMesh, facets: list, center) -> list:
    """Chain undirected 2D facets and direct them counter-clockwise."""
    if any(len(f) != 2 for f in facets):
        raise MeshError(f"2D facets {facets} are not all segments")
    adj: dict[int, list] = {}
    for idx, (a, b) in enumerate(facets):
        adj.setdefault(a, []).append((idx, b))
        adj.setdefault(b, []).append((idx, a))
    odd = [v for v, nb in adj.items() if len(nb) == 1]
    if any(len(nb) > 2 for nb in adj.values()) or len(odd) not in (0, 2):
        raise MeshError(f"2D facets {facets} do not form a chain or loop")
    start = min(odd) if odd else facets[0][0]
    ordered, used = [], set()
    v = start
    for _ in range(len(facets)):
        steps = [(i, b) for i, b in adj[v] if i not in used]
        if not steps:       # the facets form more than one chain or loop
            raise MeshError(f"2D facets {facets} do not form a chain or loop")
        idx, nxt = steps[0]
        used.add(idx)
        ordered.append((v, nxt))
        v = nxt
    verts = [mesh._vlist[a] for a, _ in ordered] + [mesh._vlist[ordered[-1][1]]]
    if odd:
        if center is None:
            center = np.mean(np.array(verts[:-1]), axis=0)
        mid = 0.5 * (np.asarray(verts[0]) + np.asarray(verts[1]))
        t = np.asarray(verts[1]) - np.asarray(verts[0])
        r = mid - np.asarray(center, dtype=float)
        flip = r[0] * t[1] - r[1] * t[0] < 0
    else:      # clockwise: negative signed area
        flip = sum(pa[0] * pb[1] - pb[0] * pa[1]
                   for pa, pb in zip(verts[:-1], verts[1:])) < 0
    return [(b, a) for a, b in reversed(ordered)] if flip else ordered


def _orient_3d(mesh: PolytopalMesh, facets: list, center) -> list:
    """Consistently orient a closed 3D facet set outward (positive volume)."""
    oriented: list = [None] * len(facets)
    oriented[0] = tuple(facets[0])
    edge_map: dict[tuple, list] = {}
    for idx, vs in enumerate(facets):
        for e in _cycle_edges(vs):
            edge_map.setdefault(tuple(sorted(e)), []).append(idx)
    visited, stack = {0}, [0]
    while stack:
        directed = _cycle_edges(oriented[stack.pop()])
        for e in directed:
            for nb in (nb for nb in edge_map[tuple(sorted(e))] if nb not in visited):
                nvs = tuple(facets[nb])
                # a shared edge runs in opposite directions in the two facets
                oriented[nb] = (nvs[::-1] if set(directed) & set(_cycle_edges(nvs))
                                else nvs)
                visited.add(nb)
                stack.append(nb)
    if len(visited) != len(facets):
        raise MeshError("S-element surface is not edge-connected")
    vids = sorted({v for f in facets for v in f})
    if center is None:
        center = np.mean([mesh._vlist[v] for v in vids], axis=0)
    center = np.asarray(center, dtype=float)
    vol = 0.0
    for vs in oriented:
        pts = [np.asarray(mesh._vlist[v]) for v in vs]
        for i in range(1, len(pts) - 1):
            vol += np.linalg.det(np.column_stack(
                [pts[0] - center, pts[i] - center, pts[i + 1] - center])) / 6.0
    if vol < 0:
        oriented = [tuple(reversed(vs)) for vs in oriented]
    return oriented


# -- degree-of-freedom numbering ------------------------------------------------


@dataclass
class DofNumbering:
    k: int
    n_total: int
    vertex_dof: dict
    facet_nodes: list          # per facet: global dof ids in canonical order
    fe_nodes: list             # per FE quad: global dof of each Q_k lattice node
    coords: np.ndarray         # physical coordinates per dof

    def facet_boundary_dofs(self, facet_ids) -> np.ndarray:
        return np.unique(np.concatenate(
            [np.zeros(0, dtype=int)] + [self.facet_nodes[f] for f in facet_ids]))


_NO_CORNER = np.iinfo(np.int64).max      # id of a zero-weight pair; sorts last


@lru_cache(maxsize=None)
def _corner_weights(kind: FacetKind, k: int) -> np.ndarray:
    """k^2 N_c at the lattice nodes of the reference facet: (L, n_vertices)
    integers, N_c being the facet's corner shape functions."""
    N = _facet_points(kind, trace_basis(kind, k).nodes, np.eye(kind.n_vertices))
    W = np.rint(k * k * N).astype(np.int64)
    W.flags.writeable = False
    return W


def _node_names(kind: FacetKind, k: int, vertex_ids) -> np.ndarray:
    """Names of the lattice nodes of elements with corner ids (E, n_vertices):
    (E, L, 8), four (corner id, k^2 N_c) pairs per node sorted by id, the
    zero weights padded as (_NO_CORNER, 0).  A node shared by two elements
    has one name whatever order lists their corners."""
    W = _corner_weights(kind, k)
    ids = np.where(W > 0, np.asarray(vertex_ids, dtype=np.int64)[:, None, :],
                   _NO_CORNER)
    pairs = np.stack([ids, np.broadcast_to(W, ids.shape)], axis=-1)
    pairs = np.take_along_axis(pairs, np.argsort(ids)[..., None], axis=-2)
    pad = np.broadcast_to([_NO_CORNER, 0], ids.shape[:2] + (4 - W.shape[1], 2))
    return np.concatenate([pairs, pad], axis=-2).reshape(ids.shape[:2] + (8,))


@lru_cache(maxsize=None)
def _lattice_perm(kind: FacetKind, k: int, vperm: tuple) -> np.ndarray:
    """perm[l] = canonical lattice index of node l of the re-ordered facet.

    `vperm[m]` is the canonical corner index of the m-th vertex in the
    element's own facet order; only symmetries of the reference facet are
    admitted.
    """
    canon = _node_names(kind, k, [range(kind.n_vertices)])[0]
    index = {name.tobytes(): j for j, name in enumerate(canon)}
    try:
        perm = np.array([index[name.tobytes()]
                         for name in _node_names(kind, k, [vperm])[0]])
    except KeyError:
        raise MeshError(f"facet vertex order {vperm} is not a symmetry of the "
                        f"reference {kind.value}") from None
    perm.flags.writeable = False
    return perm


def number_dofs(mesh: PolytopalMesh, k: int) -> DofNumbering:
    """One global DOF per named lattice node of the facets and FE quads.

    Vertices come first, by id; in 3D, edge nodes next, by (lower id, higher
    id, distance from the lower); then every other node, in the order in
    which the facets (by id) and then the FE quads first name it.
    """
    n_facets = len(mesh.facets)
    kinds = ([f.kind for f in mesh.facets]
             + [FacetKind.QUADRILATERAL] * len(mesh.fe_elements))
    corners = ([f.vertices for f in mesh.facets]
               + [fe.vertices for fe in mesh.fe_elements])
    start = np.cumsum([0] + [len(_corner_weights(kind, k)) for kind in kinds])
    groups: dict = {}          # (kind, FE quad?) -> members, in stream order
    for i, kind in enumerate(kinds):
        groups.setdefault((kind, i >= n_facets), []).append(i)
    names = np.empty((start[-1], 8), dtype=np.int64)
    slots = {}
    for (kind, fe), members in groups.items():
        at = start[members][:, None] + np.arange(len(_corner_weights(kind, k)))
        names[at] = _node_names(kind, k, [corners[i] for i in members])
        slots[kind, fe] = at
    # one 64-byte key per name: a byte-wise sort finds the distinct names
    _, first, inverse = np.unique(names.view(np.dtype((np.void, 64))).ravel(),
                                  return_index=True, return_inverse=True)
    unique = names[first]
    n_pairs = (unique[:, 1::2] > 0).sum(axis=1)
    # vertices (one pair) by id, 3D edge nodes (two pairs) by (lower id,
    # higher id, weight of the higher), then the rest by first naming
    by_id = (n_pairs == 1) | ((n_pairs == 2) & (mesh.dimension == 3))
    order = np.lexsort((unique[:, 3] * by_id, unique[:, 2] * by_id,
                        np.where(by_id, unique[:, 0], first), n_pairs * by_id,
                        ~by_id))
    dof = np.empty(len(unique), dtype=int)
    dof[order] = np.arange(len(unique))
    slot_dof = dof[inverse.reshape(-1)]
    coords = np.zeros((len(unique), mesh.dimension))
    for (kind, fe), members in groups.items():
        # an FE quad sets only its interior nodes; the others lie on facets
        own = (_corner_weights(kind, k) > 0).all(axis=1) if fe else slice(None)
        coords[slot_dof[slots[kind, fe][:, own]]] = _facet_points(
            kind, trace_basis(kind, k).nodes[own],
            mesh.vertices[[corners[i] for i in members]])
    n_vertices = int(np.sum(n_pairs == 1))
    parts = [slot_dof[a:b] for a, b in zip(start[:-1], start[1:])]
    return DofNumbering(
        k=k, n_total=len(unique),
        vertex_dof=dict(zip(unique[order[:n_vertices], 0].tolist(),
                            range(n_vertices))),
        facet_nodes=parts[:n_facets], fe_nodes=parts[n_facets:], coords=coords)


def selement_local_dofs(mesh: PolytopalMesh, numbering: DofNumbering,
                        sel: SElement):
    """S-element trace DOF list plus per-sector local node maps.

    ``global_ids[l]`` is the skeleton DOF of S-local trace index l (geometric
    first-seen order, congruent across translated elements);
    ``sector_rows[p][j]`` is the S-local index of node j of sector p.
    """
    position: dict[int, int] = {}      # skeleton DOF -> S-local index
    sector_rows = []
    for fid, order in zip(sel.facet_ids, sel.facet_orders):
        facet = mesh.facets[fid]
        vperm = tuple(facet.vertices.index(v) for v in order)
        nodes = numbering.facet_nodes[fid][_lattice_perm(facet.kind, numbering.k,
                                                         vperm)]
        sector_rows.append(np.array([position.setdefault(g, len(position))
                                     for g in nodes.tolist()], dtype=int))
    return np.array(list(position), dtype=int), sector_rows


# -- generators -------------------------------------------------------------


def _quad_family(n: int, splits: int, domain) -> PolytopalMesh:
    """n x n square S-elements on `domain`, each side split `splits` times."""
    if n < 1 or splits < 1:
        raise MeshError("n and splits must be >= 1")
    (x0, x1), (y0, y1) = domain
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    mesh = _generator_mesh(domain)
    for j in range(n):
        for i in range(n):
            ax, ay = x0 + i * hx, y0 + j * hy
            bx, by = ax + hx, ay + hy
            loop = ([(ax + s * hx / splits, ay) for s in range(splits)]
                    + [(bx, ay + s * hy / splits) for s in range(splits)]
                    + [(bx - s * hx / splits, by) for s in range(splits)]
                    + [(ax, by - s * hy / splits) for s in range(splits)])
            vids = [mesh.add_vertex(p) for p in loop]
            facets = [(vids[t], vids[(t + 1) % len(vids)])
                      for t in range(len(vids))]
            mesh.add_selement(facets)
    return mesh.finalize()


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
    mesh = _generator_mesh(domain)
    s = splits
    for kz, jy, ix in itertools.product(range(n), repeat=3):
        a = lo + h * np.array([ix, jy, kz])
        facets = []
        for axis, side, q, p in itertools.product(range(3), (0, 1), range(s),
                                                  range(s)):
            u, v = (axis + 1) % 3, (axis + 2) % 3
            corner = a.copy()
            corner[axis] += side * h[axis]
            quad = []
            for (du, dv) in ((0, 0), (1, 0), (1, 1), (0, 1)):
                pt = corner.copy()
                pt[u] += (p + du) * h[u] / s
                pt[v] += (q + dv) * h[v] / s
                quad.append(pt)
            if side == 0:
                quad = [quad[0], quad[3], quad[2], quad[1]]
            facets.append([mesh.add_vertex(p_) for p_ in quad])
        mesh.add_selement(facets)
    return mesh.finalize()


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


def _generator_mesh(domain) -> PolytopalMesh:
    """An empty mesh whose `add_vertex` merges relative to the domain extent."""
    mesh = PolytopalMesh(len(domain))
    mesh._extent = max(abs(hi - lo) for lo, hi in domain) or 1.0
    return mesh


def _add_open_selement(mesh: PolytopalMesh, n: int, domain):
    """Open S-element scaled from the bottom middle of the rectangle `domain`:
    n facets on each vertical side, 2n on the top, the bottom open, with a
    homogeneous Dirichlet side-face condition at the bottom left corner."""
    (x0, x1), (y0, y1) = domain
    pts = ([(x1, y0 + s * (y1 - y0) / n) for s in range(n + 1)]
           + [(x1 + s * (x0 - x1) / (2 * n), y1) for s in range(1, 2 * n + 1)]
           + [(x0, y1 - s * (y1 - y0) / n) for s in range(1, n + 1)])
    vids = [mesh.add_vertex(p) for p in pts]
    mesh.add_selement([(vids[t], vids[t + 1]) for t in range(len(vids) - 1)],
                      center=(0.5 * (x0 + x1), y0),
                      dirichlet_sideface_vertices=(vids[-1],))


def singular_open_selement(n: int, domain=((-1.0, 1.0), (0.0, 1.0))) -> PolytopalMesh:
    """One open S-element scaled from the boundary point at the bottom middle.

    The scaled boundary covers the two vertical sides and the top side with
    4n uniform facets; the bottom halves are side-faces, with a homogeneous
    Dirichlet condition on the left one (vanishing trace at its endpoint)
    and a natural condition on the right one.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    mesh = _generator_mesh(domain)
    _add_open_selement(mesh, n, domain)
    return mesh.finalize()


def gen_coupled_singular(level: int) -> PolytopalMesh:
    """FE quads on [-1,1]x[0,1] coupled to one open S-element [-0.5,0.5]x[0,0.5].

    Mesh size h = 2^-level; the S-element scaling center sits at the singular
    point (0,0) and the interface partition matches the FE grid.
    """
    if level < 1:
        raise MeshError("level must be >= 1")
    h = 2.0 ** (-level)
    mesh = _generator_mesh(((-1.0, 1.0), (0.0, 1.0)))
    _add_open_selement(mesh, round(0.5 / h), ((-0.5, 0.5), (0.0, 0.5)))
    nx, ny = round(2.0 / h), round(1.0 / h)
    for j in range(ny):
        for i in range(nx):
            ax, ay = -1.0 + i * h, j * h
            cx, cy = ax + 0.5 * h, ay + 0.5 * h
            if -0.5 < cx < 0.5 and cy < 0.5:
                continue
            corners = [(ax, ay), (ax + h, ay), (ax + h, ay + h), (ax, ay + h)]
            mesh.add_fe_quad([mesh.add_vertex(p) for p in corners])
    return mesh.finalize()
