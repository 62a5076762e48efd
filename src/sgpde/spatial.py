"""Galerkin space discretization on the interval and the unit square.

Meshes are uniform: m cells on (0, 1) in 1D, a structured triangulation of
the unit square with 2 m^2 triangles in 2D. Lagrange elements of order 1
(P1) or 2 (P2) with homogeneous Dirichlet conditions enforced by dof
elimination: a node is on the boundary exactly when one of its coordinates
is 0.0 or 1.0, and every other node is a dof.

Every kernel works on all cells at once, in a fixed number of whole-array
operations: one table of affine cell maps (`_geometry`) gives the quadrature
points and physical gradients, matmuls on fixed shapes form the element
contributions and one scatter sums them. Meshes and spaces are numbered the
same way; a P2 edge midpoint is numbered in the order in which its edge first
appears in the cells. Prolongation evaluates the coarse space at the fine
nodes through one sparse evaluation matrix.

Spatial functions (coefficients, loads and initial functions) are called
once per kernel with all the points of its element rule as one array x of
shape (n_points, dim). A scalar function returns its (n_points,) values or
one scalar; a 2D coefficient returns (n_points, 2, 2) Hermitian matrices,
(n_points,) scalars, one scalar or one constant 2x2 matrix, and every sample
is checked. `l2_error` takes a stack of states and their exact values as one
such function. Each space builds its cell geometry once, and its element
rules once each: one per Gauss order in 1D, the one 7-point rule in 2D; all
of them are kept read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Mesh",
    "FeSpace",
    "SolverError",
    "make_mesh",
    "make_fe_space",
    "assemble_mass",
    "assemble_stiffness",
    "load_vector",
    "sampled",
    "checked_solve",
    "nodal_coordinates",
    "prolong",
    "l2_error",
]

class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of (0,1) or of the unit square (2 m^2 triangles)."""

    dim: int
    m: int
    vertices: np.ndarray  # (nv, dim)
    cells: np.ndarray  # (nc, dim + 1) vertex indices, CCW in 2D


def make_mesh(dim: int, m: int) -> Mesh:
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if dim == 1:
        verts = (np.arange(m + 1, dtype=float) / m)[:, None]
        cells = np.column_stack([np.arange(m), np.arange(1, m + 1)])
        return Mesh(1, m, verts, cells)
    # vertex (i, j) at (i / m, j / m) has id i (m + 1) + j; each square
    # (i, j), in that order, gives its lower then its upper triangle
    i, j = np.divmod(np.arange((m + 1) ** 2), m + 1)
    verts = np.column_stack([i / m, j / m])
    v00 = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    v10, v01, v11 = v00 + m + 1, v00 + 1, v00 + m + 2
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(2, m, verts, cells)


@dataclass(frozen=True)
class FeSpace:
    """P1 or P2 Lagrange space with homogeneous Dirichlet elimination.

    The interior nodes are the dofs, numbered in node order:
    `dof_of_node[dof_of_node >= 0]` is `arange(ndof)`. The cell geometry
    and the element rules are built when first read and kept, read-only.
    """

    mesh: Mesh
    order: int
    nodes: np.ndarray  # (n_nodes, dim) coordinates of all Lagrange nodes
    cell_nodes: np.ndarray  # (nc, local) global node ids per cell
    dof_of_node: np.ndarray  # node id -> interior dof id or -1
    ndof: int
    _rules: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @functools.cached_property
    def geometry(self) -> tuple:
        """The affine maps of the cells (`_geometry`), read-only."""
        return _read_only(_geometry(self.mesh))

    def element_rule(self, q1d: int) -> tuple:
        """The `_element_rule` of the space, built once and kept read-only:
        one per q1d in 1D, and in 2D the one 7-point rule, whatever q1d."""
        key = q1d if self.dim == 1 else None
        if key not in self._rules:
            self._rules[key] = _read_only(_element_rule(self, q1d))
        return self._rules[key]


def make_fe_space(mesh: Mesh, order: int) -> FeSpace:
    if order not in (1, 2):
        raise ValueError("order must be 1 (P1) or 2 (P2)")
    m = mesh.m
    if order == 1:
        nodes, cell_nodes = mesh.vertices, mesh.cells
    elif mesh.dim == 1:
        nodes = (np.arange(2 * m + 1, dtype=float) / (2 * m))[:, None]
        cell_nodes = np.column_stack([2 * np.arange(m), 2 * np.arange(m) + 1, 2 * np.arange(m) + 2])
    else:
        # the edges ab, bc, ca of each cell in turn; an edge's midpoint
        # node is numbered in order of the edge's first appearance
        a = mesh.cells.ravel()
        b = mesh.cells[:, [1, 2, 0]].ravel()
        nv = len(mesh.vertices)
        _, first, edge = np.unique(
            np.minimum(a, b) * nv + np.maximum(a, b), return_index=True, return_inverse=True
        )
        rank = np.empty(len(first), dtype=int)
        rank[np.argsort(first)] = np.arange(len(first))
        ends = np.sort(first)
        nodes = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[a[ends]] + mesh.vertices[b[ends]])])
        cell_nodes = np.hstack([mesh.cells, nv + rank[edge].reshape(-1, 3)])
    # 0 / m and m / m are exactly 0.0 and 1.0, and so is the midpoint of two
    # such coordinates; every other coordinate is at least 1 / (2 m) away
    interior = ~((nodes == 0.0) | (nodes == 1.0)).any(axis=1)
    dof_of_node = np.full(len(nodes), -1, dtype=int)
    dof_of_node[interior] = np.arange(int(interior.sum()))
    return FeSpace(mesh, order, nodes, cell_nodes, dof_of_node, int(interior.sum()))


# --- reference elements -------------------------------------------------

def _shapes_1d(order: int, t: np.ndarray):
    if order == 1:
        vals = np.stack([1.0 - t, t])
        ders = np.stack([-np.ones_like(t), np.ones_like(t)])
    else:
        vals = np.stack([(1.0 - t) * (1.0 - 2.0 * t), 4.0 * t * (1.0 - t), t * (2.0 * t - 1.0)])
        ders = np.stack([4.0 * t - 3.0, 4.0 - 8.0 * t, 4.0 * t - 1.0])
    return vals, ders


def _shapes_tri(order: int, pts: np.ndarray):
    """Values (local, nq) and reference gradients (local, nq, 2) on the triangle."""
    xi, eta = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta])
    grad_lam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if order == 1:
        vals = lam
        grads = np.broadcast_to(grad_lam[:, None, :], (3, len(xi), 2)).copy()
        return vals, grads
    vals = np.empty((6, len(xi)))
    grads = np.empty((6, len(xi), 2))
    for i in range(3):
        vals[i] = lam[i] * (2.0 * lam[i] - 1.0)
        grads[i] = (4.0 * lam[i] - 1.0)[:, None] * grad_lam[i]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        vals[3 + k] = 4.0 * lam[i] * lam[j]
        grads[3 + k] = 4.0 * (lam[j][:, None] * grad_lam[i] + lam[i][:, None] * grad_lam[j])
    return vals, grads


def _shapes(dim: int, order: int, pts: np.ndarray):
    """Values (local, nq) and reference gradients (local, nq, dim) at points (nq, dim)."""
    if dim == 2:
        return _shapes_tri(order, pts)
    vals, ders = _shapes_1d(order, pts[:, 0])
    return vals, ders[:, :, None]


@functools.cache
def _gauss_01(q: int):
    """q-point Gauss rule on (0, 1); the arrays are shared, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


# 7-point rule on the reference triangle, exact to degree 5; weights sum to 1/2
_B1 = (6.0 - math.sqrt(15.0)) / 21.0
_B2 = (6.0 + math.sqrt(15.0)) / 21.0
_TRI_PTS = np.array(
    [
        (1 / 3, 1 / 3),
        (_B1, _B1), (1.0 - 2.0 * _B1, _B1), (_B1, 1.0 - 2.0 * _B1),
        (_B2, _B2), (1.0 - 2.0 * _B2, _B2), (_B2, 1.0 - 2.0 * _B2),
    ]
)
_TRI_WTS = np.array(
    [9.0 / 80.0]
    + [(155.0 - math.sqrt(15.0)) / 2400.0] * 3
    + [(155.0 + math.sqrt(15.0)) / 2400.0] * 3
)


# --- element geometry and array assembly -----------------------------------

def _geometry(mesh: Mesh):
    """Affine map x = x0 + J xi of every cell onto its reference cell.

    Returns the origins (nc, d), Jacobians (nc, d, d), |det J| (nc,) and
    inverse transposes J^-T (nc, d, d).
    """
    p = mesh.vertices[mesh.cells]
    x0 = p[:, 0]
    jac = np.swapaxes(p[:, 1:] - x0[:, None], 1, 2)
    return x0, jac, np.abs(np.linalg.det(jac)), np.swapaxes(np.linalg.inv(jac), 1, 2)


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _element_rule(space: FeSpace, q1d: int):
    """Quadrature on every cell: the q1d-point Gauss rule in 1D, the 7-point
    rule in 2D. Returns weights times |det J| (nc, nq), physical points
    (nc, nq, d), shape values (local, nq) and physical gradients
    (nc, nq, local, d)."""
    if space.dim == 1:
        t, w = _gauss_01(q1d)
        pts = t[:, None]
    else:
        pts, w = _TRI_PTS, _TRI_WTS
    x0, jac, det, inv_t = space.geometry
    vals, grads = _shapes(space.dim, space.order, pts)
    nq, d = pts.shape
    xq = x0[:, None, :] + pts @ np.swapaxes(jac, 1, 2)
    # J^-T times every reference gradient, the (nq * local, d) rows at once
    grads = np.swapaxes(grads, 0, 1).reshape(-1, d) @ np.swapaxes(inv_t, 1, 2)
    return np.outer(det, w), xq, vals, grads.reshape(len(det), nq, -1, d)


def sampled(f, x: np.ndarray) -> np.ndarray:
    """The scalar spatial function f at the points x (n_points, dim), from
    one call f(x): its (n_points,) values, one scalar broadcast. Any other
    shape raises ValueError naming the expected one."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape not in ((), (len(x),)):
        raise ValueError(f"spatial function: expected shape ({len(x)},) or (), got {vals.shape}")
    return np.broadcast_to(vals, (len(x),))


def _scatter(space: FeSpace, element_matrices: np.ndarray) -> sp.csr_matrix:
    """Global matrix from (nc, local, local) element matrices, each made
    symmetric first. Every pair of dofs that share a cell is stored, also
    where its sum is 0, so the pattern depends on the mesh alone. Two
    distinct dofs share at most two cells, and a sum of two terms does not
    depend on their order, so the matrix is exactly symmetric."""
    dofs = space.dof_of_node[space.cell_nodes]
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    keep = (rows >= 0) & (cols >= 0)
    sym = 0.5 * (element_matrices + np.swapaxes(element_matrices, 1, 2))
    return sp.coo_matrix(
        (sym[keep], (rows[keep], cols[keep])), shape=(space.ndof, space.ndof)
    ).tocsr()


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """Mass matrix, exactly integrated, symmetric positive definite."""
    dw, _, vals, _ = space.element_rule(space.order + 1)
    local, nq = vals.shape
    products = (vals[:, None] * vals).reshape(-1, nq)  # row i * local + j: phi_i phi_j
    return _scatter(space, (dw @ products.T).reshape(-1, local, local))


def _coefficient_samples(coeff, xq: np.ndarray) -> np.ndarray:
    """The coefficient at every point of xq (nc, nq, d) as an (nc * nq, d, d) stack.

    A callable is called once with all the points as one (n_points, d)
    array; it, or a constant coefficient, gives (n_points,) scalars or one
    scalar, and in 2D also (n_points, 2, 2) matrices or one 2x2 matrix. Any
    other shape raises ValueError naming the expected ones. The 2D matrices
    must be Hermitian; the whole stack is checked at once, and an error
    names the first offending point.
    """
    n, d = xq[..., 0].size, xq.shape[-1]
    vals = np.asarray(coeff(xq.reshape(n, d)) if callable(coeff) else coeff, dtype=float)
    if vals.shape in ((), (n,)):
        return np.broadcast_to(vals, (n,)).reshape(-1, 1, 1) * np.eye(d)
    if d == 1 or vals.shape not in ((n, 2, 2), (2, 2)):
        kinds, shapes = ("scalar", "") if d == 1 else ("scalar or 2x2", f"({n}, 2, 2), (2, 2), ")
        raise ValueError(
            f"{d}D coefficient must be {kinds}: expected shape {shapes}({n},) or (), got {vals.shape}"
        )
    vals = np.broadcast_to(vals, (n, 2, 2))
    defect = np.abs(vals - vals.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = defect > 1e-12 * np.maximum(1.0, np.abs(vals).max(axis=(1, 2)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-Hermitian coefficient sample at x = {xq.reshape(-1, 2)[i]}: {vals[i]}")
    return vals


def assemble_stiffness(space: FeSpace, coeff) -> sp.csr_matrix:
    """Stiffness matrix of the diffusion form for a scalar (1D) or 2x2 (2D) field."""
    dw, xq, _, grads = space.element_rule(max(space.order + 1, 3))
    c = _coefficient_samples(coeff, xq).reshape(*dw.shape, space.dim, space.dim)
    # sum over the points q of G_q (w_q C_q) G_q^T, G_q the (local, d) gradients at q
    flux = grads @ (dw[:, :, None, None] * c)
    return _scatter(space, (flux @ np.swapaxes(grads, 2, 3)).sum(axis=1))


def load_vector(space: FeSpace, f) -> np.ndarray:
    """Right-hand side (f, phi_i) for a spatial function f of the points."""
    dw, xq, vals, _ = space.element_rule(6)
    be = (dw * sampled(f, xq.reshape(-1, space.dim)).reshape(dw.shape)) @ vals.T
    dofs = space.dof_of_node[space.cell_nodes]
    b = np.zeros(space.ndof)
    np.add.at(b, dofs[dofs >= 0], be[dofs >= 0])
    return b


def checked_solve(a: sp.spmatrix, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """x with a x = b, by a sparse direct solve; raises SolverError when the
    residual |a x - b| exceeds rel_tol |b|, also when it is NaN."""
    x = spla.spsolve(a.tocsc(), b)
    scale = float(np.linalg.norm(b))
    res = float(np.linalg.norm(a @ x - b))
    if not res <= rel_tol * max(scale, 1e-300):  # a NaN residual fails too
        raise SolverError(f"solve residual {res:.3e} exceeds {rel_tol:.1e} * {scale:.3e}")
    return x


# --- point evaluation, prolongation, errors ------------------------------

def _eval_matrix(space: FeSpace, points) -> sp.csr_matrix:
    """Sparse (points x dofs) map from a dof vector to its values at the points."""
    m, d = space.mesh.m, space.dim
    pts = np.asarray(points, dtype=float).reshape(-1, d)
    ij = np.clip((pts * m).astype(int), 0, m - 1)
    cell = ij[:, 0]
    if d == 2:  # cells come in pairs per square: lower (x-fraction >= y-fraction) first
        frac = pts * m - ij
        cell = 2 * (ij[:, 0] * m + ij[:, 1]) + (frac[:, 0] < frac[:, 1])
    x0, _, _, inv_t = space.geometry
    vals, _ = _shapes(d, space.order, np.einsum("pba,pb->pa", inv_t[cell], pts - x0[cell]))
    dofs = space.dof_of_node[space.cell_nodes[cell]]
    rows = np.broadcast_to(np.arange(len(pts))[:, None], dofs.shape)
    keep = dofs >= 0
    return sp.csr_matrix((vals.T[keep], (rows[keep], dofs[keep])), shape=(len(pts), space.ndof))


def nodal_coordinates(space: FeSpace) -> np.ndarray:
    """Coordinates of the interior dofs, in dof order."""
    return space.nodes[space.dof_of_node >= 0]


def prolong(coarse: FeSpace, u: np.ndarray, fine: FeSpace) -> np.ndarray:
    """Exact transfer to a nested refinement of at least the same order.

    `u` is one coarse state or a matrix whose columns are coarse states.
    """
    if coarse.dim != fine.dim:
        raise ValueError("spaces live on different geometries")
    if fine.mesh.m % coarse.mesh.m != 0:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    if fine.order < coarse.order:
        raise ValueError("fine space must contain the coarse space")
    return _eval_matrix(coarse, nodal_coordinates(fine)) @ u


# 1D Gauss points per cell of the error rule
_ERROR_Q1D = 6


def l2_error(space: FeSpace, u: np.ndarray, exact) -> np.ndarray:
    """L2 distances between FE functions and smooth exact functions: the
    states u (k, ndof) against `exact`, a function of the points of the
    error rule, (n_points, dim), that returns the k exact values at each,
    (k, n_points). Gives the (k,) distances."""
    dw, xq, vals, _ = space.element_rule(_ERROR_Q1D)
    full = np.zeros((len(u), len(space.nodes)))
    full[:, space.dof_of_node >= 0] = u
    values = exact(xq.reshape(-1, space.dim))
    diff = full[:, space.cell_nodes] @ vals - np.reshape(values, (len(u),) + dw.shape)
    return np.sqrt((diff * diff).reshape(len(u), -1) @ dw.ravel())
