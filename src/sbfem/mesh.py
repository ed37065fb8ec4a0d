"""Polytopal meshes: S-elements, sectorization, skeleton DOFs, generators.

The skeleton carries every unknown: vertex DOFs, edge-interior DOFs (3D),
and facet-interior DOFs, numbered by entity so that neighbouring S-elements
(and coupled FE quadrilaterals) share them exactly.  Each facet is stored
once with a canonical vertex order; an element that references it with a
rotated or reversed order keeps its own order for the sector map together
with a lattice-node permutation back to the canonical layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MeshError
from .polyspace import facet_quadrature, trace_basis
from .refgeom import FacetKind, _facet_points, _sector_jacobians

_KIND_BY_SIZE = {2: FacetKind.SEGMENT, 3: FacetKind.TRIANGLE,
                 4: FacetKind.QUADRILATERAL}

_REF_CORNERS = {
    FacetKind.SEGMENT: np.array([[-1.0], [1.0]]),
    FacetKind.QUADRILATERAL: np.array([[-1.0, -1.0], [1.0, -1.0],
                                       [1.0, 1.0], [-1.0, 1.0]]),
    FacetKind.TRIANGLE: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
}


@lru_cache(maxsize=None)
def node_permutation(kind: FacetKind, k: int, vperm: tuple) -> np.ndarray:
    """perm[l] = canonical lattice index of node l of the re-ordered facet.

    `vperm[m]` is the canonical corner index of the m-th vertex in the
    element's own facet order; only symmetries of the reference facet are
    admitted.
    """
    corners = _REF_CORNERS[kind]
    nodes = trace_basis(kind, k).nodes
    images = _facet_points(kind, nodes, corners[list(vperm)])
    perm = np.empty(nodes.shape[0], dtype=int)
    for l, img in enumerate(images):
        dist = np.linalg.norm(nodes - img[None, :], axis=1)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9:
            raise MeshError(
                f"facet vertex order {vperm} is not a symmetry of the "
                f"reference {kind.value}")
        perm[l] = j
    if len(set(perm.tolist())) != len(perm):
        raise MeshError(f"degenerate facet vertex correspondence {vperm}")
    perm.flags.writeable = False
    return perm


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

    @property
    def is_open(self) -> bool:
        return self.open_boundary is not None


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
        self.boundary_tags: dict[int, str] = {}
        self._vkey: dict[tuple, int] = {}
        self._fkey: dict[tuple, int] = {}
        self._vlist: list[np.ndarray] = []
        self._pending: dict[int, tuple] = {}

    # -- construction ----------------------------------------------------------

    def add_vertex(self, xyz) -> int:
        key = tuple(round(float(c), 12) for c in xyz)
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
            node_permutation(self.facets[fid].kind, 1, vperm)  # symmetry check
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
        self.validate()
        return self

    def _chain_state(self, sel: SElement) -> tuple[bool, set]:
        if self.dimension == 2:
            count: dict[int, int] = {}
            for fid in sel.facet_ids:
                for v in self.facets[fid].vertices:
                    count[v] = count.get(v, 0) + 1
            odd = {v for v, c in count.items() if c == 1}
            if len(odd) not in (0, 2) or any(c > 2 for c in count.values()):
                raise MeshError(f"S-element {sel.id}: boundary facets do not "
                                "form a chain or loop")
            return (len(odd) == 2), odd
        count = {}
        for fid in sel.facet_ids:
            vs = self.facets[fid].vertices
            for i in range(len(vs)):
                e = tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
                count[e] = count.get(e, 0) + 1
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

    def sector_node_perm(self, sel: SElement, pos: int, k: int) -> np.ndarray:
        fid = sel.facet_ids[pos]
        canon = self.facets[fid].vertices
        vperm = tuple(canon.index(v) for v in sel.facet_orders[pos])
        return node_permutation(self.facets[fid].kind, k, vperm)

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
        (S-element id, facet position) of each sector (S, 2))."""
        owners: dict = {}
        for sel in self.selements:
            for pos, fid in enumerate(sel.facet_ids):
                owners.setdefault(self.facets[fid].kind, []).append((sel.id, pos))
        sels = self.selements
        return {kind: (np.array([sels[e].center for e, _ in own]),
                       self.vertices[[sels[e].facet_orders[p] for e, p in own]],
                       np.array(own, dtype=int))
                for kind, own in owners.items()}

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

    # -- file format -----------------------------------------------------------

    def to_json(self) -> dict:
        sels = []
        for sel in self.selements:
            entry = {"facets": [list(o) for o in sel.facet_orders],
                     "center": [float(c) for c in sel.center]}
            if sel.open_boundary is not None:
                entry["dirichlet_sideface_nodes"] = list(
                    sel.open_boundary.dirichlet_vertices)
            sels.append(entry)
        out = {"dimension": self.dimension,
               "vertices": [[float(c) for c in v] for v in self.vertices],
               "selements": sels}
        if self.boundary_tags:
            out["boundary_tags"] = {str(k): v for k, v in self.boundary_tags.items()}
        return out

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def import_mesh(source) -> PolytopalMesh:
    """Build and validate a mesh from the JSON schema (path, dict or file)."""
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
        dim = int(data["dimension"])
        verts = data["vertices"]
        sels = data["selements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh file: {exc}") from exc
    mesh = PolytopalMesh(dim)
    for v in verts:
        if len(v) != dim:
            raise MeshError(f"vertex {v} does not have {dim} coordinates")
        mesh.add_vertex(v)
    for entry in sels:
        facets = [tuple(int(v) for v in f) for f in entry.get("facets", [])]
        if not facets:
            raise MeshError("S-element without facets")
        oriented = (_orient_2d(mesh, facets, entry)
                    if dim == 2 else _orient_3d(mesh, facets, entry))
        mesh.add_selement(
            oriented,
            center=entry.get("center"),
            dirichlet_sideface_vertices=entry.get("dirichlet_sideface_nodes", ()))
    for key, tag in (data.get("boundary_tags") or {}).items():
        mesh.boundary_tags[int(key)] = str(tag)
    return mesh.finalize()


def _orient_2d(mesh: PolytopalMesh, facets: list, entry: dict) -> list:
    """Chain undirected 2D facets and direct them counter-clockwise."""
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
        idx, nxt = next((i, b) for i, b in adj[v] if i not in used)
        used.add(idx)
        ordered.append((v, nxt))
        v = nxt
    verts = [mesh._vlist[a] for a, _ in ordered] + [mesh._vlist[ordered[-1][1]]]
    if odd:
        center = entry.get("center")
        if center is None:
            center = np.mean(np.array(verts[:-1]), axis=0)
        mid = 0.5 * (np.asarray(verts[0]) + np.asarray(verts[1]))
        t = np.asarray(verts[1]) - np.asarray(verts[0])
        r = mid - np.asarray(center, dtype=float)
        if r[0] * t[1] - r[1] * t[0] < 0:
            ordered = [(b, a) for a, b in reversed(ordered)]
    else:
        area = 0.0
        for a, b in ordered:
            pa, pb = mesh._vlist[a], mesh._vlist[b]
            area += pa[0] * pb[1] - pb[0] * pa[1]
        if area < 0:
            ordered = [(b, a) for a, b in reversed(ordered)]
    return ordered


def _orient_3d(mesh: PolytopalMesh, facets: list, entry: dict) -> list:
    """Consistently orient a closed 3D facet set outward (positive volume)."""
    oriented: list = [None] * len(facets)
    oriented[0] = tuple(facets[0])
    edge_map: dict[tuple, list] = {}
    for idx, vs in enumerate(facets):
        for i in range(len(vs)):
            e = tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
            edge_map.setdefault(e, []).append(idx)
    visited = {0}
    stack = [0]
    while stack:
        idx = stack.pop()
        vs = oriented[idx]
        directed = {(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))}
        for i in range(len(vs)):
            e = tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
            for nb in edge_map[e]:
                if nb in visited:
                    continue
                nvs = tuple(facets[nb])
                ndir = {(nvs[j], nvs[(j + 1) % len(nvs)]) for j in range(len(nvs))}
                if directed & ndir:
                    nvs = tuple(reversed(nvs))
                oriented[nb] = nvs
                visited.add(nb)
                stack.append(nb)
    if len(visited) != len(facets):
        raise MeshError("S-element surface is not edge-connected")
    vids = sorted({v for f in facets for v in f})
    center = np.asarray(entry.get("center") if entry.get("center") is not None
                        else np.mean([mesh._vlist[v] for v in vids], axis=0),
                        dtype=float)
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
    fe_interior: list          # per FE element: interior dof ids
    coords: np.ndarray         # physical coordinates per dof

    def facet_boundary_dofs(self, facet_ids) -> np.ndarray:
        out = set()
        for fid in facet_ids:
            out.update(int(g) for g in self.facet_nodes[fid])
        return np.array(sorted(out), dtype=int)


def _facet_node_layout(kind: FacetKind, k: int):
    """Classify canonical facet nodes: ('v', corner) | ('e', (a,b), pos) | ('i', n)."""
    out = []
    if kind is FacetKind.SEGMENT:
        for i in range(k + 1):
            if i == 0:
                out.append(("v", 0))
            elif i == k:
                out.append(("v", 1))
            else:
                out.append(("e", (0, 1), i))
        return out
    if kind is FacetKind.QUADRILATERAL:
        corner = {(0, 0): 0, (k, 0): 1, (k, k): 2, (0, k): 3}
        ninter = 0
        for j in range(k + 1):
            for i in range(k + 1):
                if (i, j) in corner:
                    out.append(("v", corner[(i, j)]))
                elif j == 0:
                    out.append(("e", (0, 1), i))
                elif i == k:
                    out.append(("e", (1, 2), j))
                elif j == k:
                    out.append(("e", (3, 2), i))
                elif i == 0:
                    out.append(("e", (0, 3), j))
                else:
                    out.append(("i", ninter))
                    ninter += 1
        return out
    corner = {(0, 0): 0, (k, 0): 1, (0, k): 2}
    ninter = 0
    for j in range(k + 1):
        for i in range(k + 1 - j):
            if (i, j) in corner:
                out.append(("v", corner[(i, j)]))
            elif j == 0:
                out.append(("e", (0, 1), i))
            elif i == 0:
                out.append(("e", (0, 2), j))
            elif i + j == k:
                out.append(("e", (1, 2), j))
            else:
                out.append(("i", ninter))
                ninter += 1
    return out


def number_dofs(mesh: PolytopalMesh, k: int) -> DofNumbering:
    """Entity-based global numbering of skeleton (and FE-interior) DOFs."""
    used_vertices = sorted({v for f in mesh.facets for v in f.vertices})
    vertex_dof = {v: i for i, v in enumerate(used_vertices)}
    next_dof = len(used_vertices)
    edge_dofs: dict[tuple, int] = {}
    if mesh.dimension == 3 and k >= 2:
        edges = sorted({tuple(sorted((f.vertices[i],
                                      f.vertices[(i + 1) % len(f.vertices)])))
                        for f in mesh.facets for i in range(len(f.vertices))})
        for e in edges:
            edge_dofs[e] = next_dof
            next_dof += k - 1
    facet_nodes = []
    for facet in mesh.facets:
        layout = _facet_node_layout(facet.kind, k)
        ids = np.empty(len(layout), dtype=int)
        interior_base = None
        edge_base = None
        for n, tag in enumerate(layout):
            if tag[0] == "v":
                ids[n] = vertex_dof[facet.vertices[tag[1]]]
            elif tag[0] == "e" and mesh.dimension == 2:
                if edge_base is None:
                    edge_base = next_dof
                    next_dof += k - 1
                ids[n] = edge_base + tag[2] - 1
            elif tag[0] == "e":
                _, (a, b), pos = tag
                va, vb = facet.vertices[a], facet.vertices[b]
                key = tuple(sorted((va, vb)))
                slot = pos - 1 if va < vb else k - 1 - pos
                ids[n] = edge_dofs[key] + slot
            else:
                if interior_base is None:
                    n_inter = sum(1 for t in layout if t[0] == "i")
                    interior_base = next_dof
                    next_dof += n_inter
                ids[n] = interior_base + tag[1]
        facet_nodes.append(ids)
    fe_interior = []
    for _fe in mesh.fe_elements:
        n_inter = (k - 1) ** 2
        fe_interior.append(np.arange(next_dof, next_dof + n_inter))
        next_dof += n_inter
    numbering = DofNumbering(k=k, n_total=next_dof, vertex_dof=vertex_dof,
                             facet_nodes=facet_nodes, fe_interior=fe_interior,
                             coords=np.zeros((next_dof, mesh.dimension)))
    _fill_coords(mesh, numbering)
    return numbering


def _fill_coords(mesh: PolytopalMesh, numbering: DofNumbering):
    k = numbering.k
    for kind in dict.fromkeys(f.kind for f in mesh.facets):
        fids = [fid for fid, f in enumerate(mesh.facets) if f.kind is kind]
        corners = mesh.vertices[[list(mesh.facets[f].vertices) for f in fids]]
        numbering.coords[[numbering.facet_nodes[f] for f in fids]] = \
            _facet_points(kind, trace_basis(kind, k).nodes, corners)
    for fe, ids in zip(mesh.fe_elements, numbering.fe_interior):
        if ids.size == 0:
            continue
        corners = mesh.vertices[list(fe.vertices)]
        t = np.linspace(-1.0, 1.0, k + 1)[1:-1]
        u, v = np.meshgrid(t, t, indexing="ij")
        uv = np.column_stack([u.ravel(order="F"), v.ravel(order="F")])
        numbering.coords[ids] = _facet_points(FacetKind.QUADRILATERAL, uv,
                                              corners)


def selement_local_dofs(mesh: PolytopalMesh, numbering: DofNumbering,
                        sel: SElement):
    """S-element trace DOF list plus per-sector local node maps.

    ``global_ids[l]`` is the skeleton DOF of S-local trace index l (geometric
    first-seen order, congruent across translated elements);
    ``sector_rows[p][j]`` is the S-local index of node j of sector p.
    """
    global_ids: list[int] = []
    position: dict[int, int] = {}
    sector_rows = []
    for pos, fid in enumerate(sel.facet_ids):
        perm = mesh.sector_node_perm(sel, pos, numbering.k)
        nodes = numbering.facet_nodes[fid][perm]
        rows = np.empty(len(nodes), dtype=int)
        for j, g in enumerate(nodes):
            g = int(g)
            if g not in position:
                position[g] = len(global_ids)
                global_ids.append(g)
            rows[j] = position[g]
        sector_rows.append(rows)
    return np.array(global_ids, dtype=int), sector_rows


# -- generators -------------------------------------------------------------


def _quad_family(n: int, splits: int, domain) -> PolytopalMesh:
    """n x n square S-elements on `domain`, each side split `splits` times."""
    if n < 1 or splits < 1:
        raise MeshError("n and splits must be >= 1")
    (x0, x1), (y0, y1) = domain
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    mesh = PolytopalMesh(2)
    for j in range(n):
        for i in range(n):
            ax, ay = x0 + i * hx, y0 + j * hy
            bx, by = ax + hx, ay + hy
            loop = []
            for s in range(splits):      # bottom, left to right
                loop.append((ax + s * hx / splits, ay))
            for s in range(splits):      # right, bottom to top
                loop.append((bx, ay + s * hy / splits))
            for s in range(splits):      # top, right to left
                loop.append((bx - s * hx / splits, by))
            for s in range(splits):      # left, top to bottom
                loop.append((ax, by - s * hy / splits))
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
    mesh = PolytopalMesh(3)
    s = splits
    for kz in range(n):
        for jy in range(n):
            for ix in range(n):
                a = lo + h * np.array([ix, jy, kz])
                facets = []
                for axis in range(3):
                    u, v = (axis + 1) % 3, (axis + 2) % 3
                    for side in (0, 1):
                        for q in range(s):
                            for p in range(s):
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


def singular_open_selement(n: int, domain=((-1.0, 1.0), (0.0, 1.0))) -> PolytopalMesh:
    """One open S-element scaled from the boundary point at the bottom middle.

    The scaled boundary covers the two vertical sides and the top side with
    4n uniform facets; the bottom halves are side-faces, with a homogeneous
    Dirichlet condition on the left one (vanishing trace at its endpoint)
    and a natural condition on the right one.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    (x0, x1), (y0, y1) = domain
    mesh = PolytopalMesh(2)
    pts = []
    for s in range(n + 1):               # right side, bottom to top
        pts.append((x1, y0 + s * (y1 - y0) / n))
    for s in range(1, 2 * n + 1):        # top, right to left
        pts.append((x1 + s * (x0 - x1) / (2 * n), y1))
    for s in range(1, n + 1):            # left side, top to bottom
        pts.append((x0, y1 - s * (y1 - y0) / n))
    vids = [mesh.add_vertex(p) for p in pts]
    facets = [(vids[t], vids[t + 1]) for t in range(len(vids) - 1)]
    center = (0.5 * (x0 + x1), y0)
    mesh.add_selement(facets, center=center,
                      dirichlet_sideface_vertices=(vids[-1],))
    return mesh.finalize()


def gen_coupled_singular(level: int) -> PolytopalMesh:
    """FE quads on [-1,1]x[0,1] coupled to one open S-element [-0.5,0.5]x[0,0.5].

    Mesh size h = 2^-level; the S-element scaling center sits at the singular
    point (0,0) and the interface partition matches the FE grid.
    """
    if level < 1:
        raise MeshError("level must be >= 1")
    h = 2.0 ** (-level)
    nsx = round(0.5 / h)
    mesh = PolytopalMesh(2)
    pts = []
    for s in range(nsx + 1):             # right side of S, bottom to top
        pts.append((0.5, s * h))
    for s in range(1, 2 * nsx + 1):      # top of S, right to left
        pts.append((0.5 - s * h, 0.5))
    for s in range(1, nsx + 1):          # left side of S, top to bottom
        pts.append((-0.5, 0.5 - s * h))
    vids = [mesh.add_vertex(p) for p in pts]
    facets = [(vids[t], vids[t + 1]) for t in range(len(vids) - 1)]
    mesh.add_selement(facets, center=(0.0, 0.0),
                      dirichlet_sideface_vertices=(vids[-1],))
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
