"""Finite-difference spatial discretization of the resistive MHD equations.

2.5-dimensional layout: a uniform cell-centered 2D grid carrying eight
conserved fields per cell (density, three momentum components, three
magnetic field components, total energy); velocity and magnetic field are
three-component, all spatial variation is in x and y.

Every first derivative is the 3-point centered stencil

    (U[i+1,j] - U[i-1,j]) / (2 dx) + (U[i,j+1] - U[i,j-1]) / (2 dy)

and diffusive second derivatives are that stencil applied twice in flux
form, so the discrete divergence of B built from the same stencil is
preserved exactly (up to roundoff) by any right-hand-side evaluation.
"""

import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

# field indices inside StateGrid.data
RHO, MX, MY, MZ, BX, BY, BZ, EN = range(8)
NVAR = 8
FIELD_NAMES = ("rho", "mx", "my", "mz", "bx", "by", "bz", "en")

#: ratio of specific heats; the magnetic permeability mu0 is 1 in these units
GAMMA = 5.0 / 3.0

_MAGIC = b"XMHD"
_FORMAT_VERSION = 1


class RhsBlowupError(ArithmeticError):
    """Raised by mhd_rhs when it produced non-finite output cells."""


class Boundary(Enum):
    PERIODIC = "periodic"
    REFLECTING = "reflecting"


@dataclass
class MHDParams:
    """Dimensionless coefficients: mu = 1/Re, eta = 1/S (Lundquist), kappa = 1/Pr.

    The units fix mu0 = 1 and gamma = GAMMA.  mhd_rhs has one resistive
    path: zero coefficients give ideal MHD through the same arithmetic, at
    the cost of a resistive evaluation.
    """
    mu: float
    eta: float
    kappa: float
    bc_x: Boundary = Boundary.PERIODIC
    bc_y: Boundary = Boundary.PERIODIC


@dataclass
class StateGrid:
    """Conserved fields on a uniform grid; data has shape (8, ny, nx)."""
    nx: int
    ny: int
    dx: float
    dy: float
    data: np.ndarray

    @classmethod
    def zeros(cls, nx, ny, dx, dy):
        return cls(nx=nx, ny=ny, dx=dx, dy=dy, data=np.zeros((NVAR, ny, nx)))

    def flat(self):
        return self.data.reshape(-1)

    def with_flat(self, flat):
        """Same geometry, fields taken from a flat state vector."""
        return StateGrid(nx=self.nx, ny=self.ny, dx=self.dx, dy=self.dy,
                         data=np.asarray(flat, dtype=float).reshape(NVAR, self.ny, self.nx))


# Sign pattern for mirror extension across a reflecting wall: the
# wall-normal momentum and wall-normal magnetic field are odd, everything
# else even.  (Odd B_n is what keeps the centered-difference divergence of B
# an exact invariant of the right-hand side at the walls.)
def _reflect_signs(axis):
    signs = np.ones(NVAR)
    if axis == "x":
        signs[MX] = -1.0
        signs[BX] = -1.0
    else:
        signs[MY] = -1.0
        signs[BY] = -1.0
    return signs.reshape(NVAR, 1, 1)


_SIGNS_X = _reflect_signs("x")
_SIGNS_Y = _reflect_signs("y")


def _pad(data, ghosts, params, out=None):
    """Extend (8, ny, nx) field data by `ghosts` cells per side according to bc.

    The result is written into `out` (shape (8, ny + 2g, nx + 2g)), or into
    a new array when `out` is None.  x ghosts are filled first, so the
    corners are the y-extension of the x-extended rows.
    """
    g = ghosts
    _, ny, nx = data.shape
    if out is None:
        out = np.empty((NVAR, ny + 2 * g, nx + 2 * g))
    rows = out[:, g:g + ny]
    rows[:, :, g:g + nx] = data
    if params.bc_x is Boundary.PERIODIC:
        rows[:, :, :g] = data[:, :, nx - g:]
        rows[:, :, g + nx:] = data[:, :, :g]
    else:
        np.multiply(data[:, :, g - 1::-1], _SIGNS_X, out=rows[:, :, :g])
        np.multiply(data[:, :, :-g - 1:-1], _SIGNS_X, out=rows[:, :, g + nx:])
    if params.bc_y is Boundary.PERIODIC:
        out[:, :g] = out[:, ny:ny + g]
        out[:, g + ny:] = out[:, g:2 * g]
    else:
        np.multiply(out[:, 2 * g - 1:g - 1:-1], _SIGNS_Y, out=out[:, :g])
        np.multiply(out[:, g + ny - 1:ny - 1:-1], _SIGNS_Y, out=out[:, g + ny:])
    return out


def _stencil(a, step, scale, out):
    """scale (a[k+step] - a[k-step]) at every flat index k, into `out`.

    `a` and `out` are contiguous blocks of padded planes, so step 1 is the
    centered x-difference and step nx+4 the y-difference.  The result is
    right wherever both neighbours lie in the same plane; the outer ring
    of each plane reads across a row or plane edge and holds garbage.
    """
    flat = out.reshape(-1)
    a = a.reshape(-1)
    np.subtract(a[2 * step:], a[:-2 * step], out=flat[step:-step])
    return np.multiply(out, scale, out=out)


# Rows of the padded block once mhd_rhs has turned it into primitive
# variables: velocity over momentum, temperature over energy, and B.B in a
# ninth row.  Rows 1..8 are differentiated as one block, so row k of a
# gradient block is the derivative of primitive row k + 1.
_VX, _VZ = MX, MZ
_TEMP, _B2 = EN, NVAR
_GVX, _GVY, _GBX, _GBY, _GBZ, _GTEMP, _GB2 = (k - 1 for k in (MX, MY, BX, BY, BZ, _TEMP, _B2))


class RhsWorkspace:
    """Scratch planes of mhd_rhs for one grid shape, reused across calls.

    Every plane has the padded shape (ny+4, nx+4), two ghost cells per
    side, and one block holds all 39, each group contiguous:

    * ``prim``, 9 planes: the padded state, then in place the primitive
      variables (velocity over momentum, temperature over energy) and B.B;
    * ``grad``, 2 x 8 planes: x and y derivatives of prim[1:], whose
      velocity rows then hold the rows of the viscous stress; once the
      x-flux is built, the x-derivatives give way to the divergences;
    * ``flux``, 8 planes: the total (ideal minus diffusive) flux of one
      direction, and scratch before it is written;
    * ``scalar``, 6 planes: P + B^2/2, E + P + B^2/2, B.v, the total z-EMF
      and (B.grad) b_x, (B.grad) b_y.

    A workspace carries nothing from one evaluation to the next.
    """

    def __init__(self, nx, ny):
        self.nx, self.ny = nx, ny
        prim, grad, flux, scalar = np.split(
            np.empty((39, ny + 4, nx + 4)), np.cumsum([9, 16, 8]))
        self.prim, self.flux, self.scalar = prim, flux, scalar
        self.grad = grad.reshape(2, NVAR, ny + 4, nx + 4)


def _total_flux(d, work, params):
    """Ideal minus diffusive flux of every field along direction d (0: x, 1: y).

    Reads the primitive block, the scalar planes and grad[d], the d-derivatives
    of prim[1:] with the stress rows over the velocity rows, and writes
    work.flux.  The induction rows of the flux serve as scratch until they
    are written, last.
    """
    p, f, s, g = work.prim, work.flux, work.scalar, work.grad[d]
    ptot, e_ptot, bdotv, emf, b_grad_b = s[0], s[1], s[2], s[3], s[4 + d]
    vel, mag, tau = p[_VX:_VZ + 1], p[BX:BZ + 1], g[:3]
    mom, scratch, tmp = f[MX:MZ + 1], f[BX:BZ + 1], f[BX + d]
    mu, eta = params.mu, params.eta
    cond = mu * params.kappa * GAMMA / (GAMMA - 1.0)
    np.multiply(vel[d], e_ptot, out=f[EN])
    np.subtract(f[EN], np.multiply(mag[d], bdotv, out=tmp), out=f[EN])
    # mu tau_d.v + cond d_d T + eta (d_d(B.B)/2 - (B.grad) b_d)
    q, a, b = scratch
    np.multiply(tau, vel, out=scratch)
    np.add(q, a, out=q)
    np.add(q, b, out=q)
    np.multiply(q, mu, out=q)
    np.add(q, np.multiply(g[_GTEMP], cond, out=a), out=q)
    np.multiply(g[_GB2], 0.5, out=b)
    np.subtract(b, b_grad_b, out=b)
    np.add(q, np.multiply(b, eta, out=b), out=q)
    np.subtract(f[EN], q, out=f[EN])
    np.multiply(vel[d], p[RHO], out=f[RHO])                   # rho v_d
    np.multiply(f[RHO], vel, out=mom)                         # rho v_d v_k
    np.add(f[MX + d], ptot, out=f[MX + d])
    np.subtract(mom, np.multiply(mag, mag[d], out=scratch), out=mom)
    np.subtract(mom, np.multiply(tau, mu, out=scratch), out=mom)
    np.multiply(vel[d], mag[2], out=f[BZ])                    # v_d bz - b_d vz
    np.subtract(f[BZ], np.multiply(mag[d], vel[2], out=tmp), out=f[BZ])
    np.subtract(f[BZ], np.multiply(g[_GBZ], eta, out=tmp), out=f[BZ])
    # one shared total z-EMF, so the mixed divergence of the induction
    # rows cancels exactly in the divergence of B
    f[BX + d] = 0.0
    if d == 0:
        np.negative(emf, out=f[BY])
    else:
        np.copyto(f[BX], emf)


def mhd_rhs(state, params, work=None):
    """Right-hand side dU/dt of the resistive MHD equations, as a flat vector.

    Ideal fluxes: momentum  rho v (x) v + (P + B^2/2) I - B (x) B,
    induction  v (x) B - B (x) v,  energy  (E + P + B^2/2) v - B (B.v),
    plus the continuity row div(rho v).  Diffusive fluxes: the viscous stress
    tau = grad v + grad v^T - (2/3) div v I, the resistive induction term
    eta (grad(x)B - (grad(x)B)^T), and the energy row
    mu tau . v + mu kappa gamma/(gamma-1) grad T + eta (grad(B.B)/2 - (B.grad) B),
    with temperature T = P / rho, in units with mu0 = 1 and gamma = GAMMA.

    `work` is an RhsWorkspace for the state's grid shape; without one a
    fresh workspace is built.  The returned vector is always a new array.
    """
    if work is None:
        work = RhsWorkspace(state.nx, state.ny)
    elif (work.nx, work.ny) != (state.nx, state.ny):
        raise ValueError(f"workspace built for a {work.nx}x{work.ny} grid, "
                         f"state is {state.nx}x{state.ny}")
    steps = (1, state.nx + 4)                   # flat offsets of x and y neighbours
    scales = (0.5 / state.dx, 0.5 / state.dy)

    with np.errstate(all="ignore"):
        # each direction's ideal and diffusive fluxes are differenced as one
        # total flux, and a stencil multiplies by 0.5/h: the result agrees
        # with the formulas to roundoff, not bit for bit.  Adaptive runs
        # follow its last bits, so a reassociation or a reciprocal is a
        # change of results, and the golden hashes of test_mhd show it
        p = work.prim
        _pad(state.data, 2, params, out=p[:NVAR])
        rho, en, b2 = p[RHO], p[EN], p[_B2]
        np.divide(p[MX:MZ + 1], rho, out=p[_VX:_VZ + 1])
        vx, vy, vz = p[_VX:_VZ + 1]
        bx, by, bz = p[BX:BZ + 1]
        ptot, e_ptot, bdotv, emf = work.scalar[:4]
        b_grad_b = work.scalar[4:]
        f = work.flux
        tmp, pres = f[:2]
        np.multiply(bx, bx, out=b2)
        np.add(b2, np.multiply(by, by, out=tmp), out=b2)
        np.add(b2, np.multiply(bz, bz, out=tmp), out=b2)
        kin = ptot
        np.multiply(vx, vx, out=kin)
        np.add(kin, np.multiply(vy, vy, out=tmp), out=kin)
        np.add(kin, np.multiply(vz, vz, out=tmp), out=kin)
        np.multiply(kin, np.multiply(rho, 0.5, out=tmp), out=kin)
        np.subtract(en, kin, out=pres)
        half_b2 = np.multiply(b2, 0.5, out=e_ptot)
        np.subtract(pres, half_b2, out=pres)
        np.multiply(pres, GAMMA - 1.0, out=pres)
        np.add(pres, half_b2, out=ptot)
        np.add(en, ptot, out=e_ptot)
        np.multiply(bx, vx, out=bdotv)
        np.add(bdotv, np.multiply(by, vy, out=tmp), out=bdotv)
        np.add(bdotv, np.multiply(bz, vz, out=tmp), out=bdotv)
        np.multiply(vy, bx, out=emf)
        np.subtract(emf, np.multiply(by, vx, out=tmp), out=emf)

        np.divide(pres, rho, out=p[_TEMP])
        gx, gy = grad = work.grad
        for d in (0, 1):
            _stencil(p[1:], steps[d], scales[d], grad[d])
        # the stress rows over the velocity rows: (tau_xx, tau_xy, tau_xz)
        # in gx, (tau_xy, tau_yy, tau_yz) in gy
        divv = tmp
        np.add(gx[_GVX], gy[_GVY], out=divv)
        np.multiply(divv, 2.0 / 3.0, out=divv)
        for d in (0, 1):
            diag = grad[d, _GVX + d]
            np.multiply(diag, 2.0, out=diag)
            np.subtract(diag, divv, out=diag)
        np.add(gy[_GVX], gx[_GVY], out=gx[_GVY])
        np.copyto(gy[_GVX], gx[_GVY])
        # the total z-EMF: vy bx - by vx + eta (d_x by - d_y bx), and
        # (B.grad) b_d of each heat flux, while both gradients are whole
        np.subtract(gx[_GBY], gy[_GBX], out=tmp)
        np.add(emf, np.multiply(tmp, params.eta, out=tmp), out=emf)
        for d in (0, 1):
            np.multiply(gx[_GBX + d], bx, out=b_grad_b[d])
            np.add(b_grad_b[d], np.multiply(gy[_GBX + d], by, out=tmp), out=b_grad_b[d])

        # the y-flux reads no x-derivative, so each divergence goes into gx
        out = np.empty((NVAR, state.ny, state.nx))
        for d in (0, 1):
            _total_flux(d, work, params)
            inner = _stencil(f, steps[d], scales[d], gx)[:, 2:-2, 2:-2]
            if d == 0:
                np.negative(inner, out=out)
            else:
                np.subtract(out, inner, out=out)

    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        field, j, i = bad[0]
        raise RhsBlowupError(
            f"non-finite rhs in field {FIELD_NAMES[field]} at cell "
            f"(i={i}, j={j}); {len(bad)} cells affected")
    return out.reshape(-1)


def pressure(state):
    """Thermal pressure (GAMMA - 1) (E - |m|^2 / (2 rho) - |B|^2 / 2) of every cell."""
    d = state.data
    kin = 0.5 * (d[MX] ** 2 + d[MY] ** 2 + d[MZ] ** 2) / d[RHO]
    b2 = d[BX] ** 2 + d[BY] ** 2 + d[BZ] ** 2
    return (GAMMA - 1.0) * (d[EN] - kin - 0.5 * b2)


def _ghost_pair(plane, axis, bc, sign):
    """`plane` with one ghost cell each side along `axis`, as _pad fills it."""
    first, last = np.take(plane, [0], axis), np.take(plane, [-1], axis)
    if bc is Boundary.PERIODIC:
        first, last = last, first
    else:
        first, last = sign * first, sign * last
    return np.concatenate((first, plane, last), axis=axis)


def discrete_div_b(state, params):
    """Centered-difference divergence of (bx, by) at every interior cell.

    Only B_x's x ghosts and B_y's y ghosts are read, so only those are made.
    """
    bx = _ghost_pair(state.data[BX], 1, params.bc_x, _SIGNS_X[BX])
    by = _ghost_pair(state.data[BY], 0, params.bc_y, _SIGNS_Y[BY])
    return (bx[:, 2:] - bx[:, :-2]) / (2.0 * state.dx) + (by[2:] - by[:-2]) / (2.0 * state.dy)


def conserved_totals(state):
    """Cell-sum times cell-area of every conserved field."""
    area = state.dx * state.dy
    return {name: float(np.sum(state.data[idx])) * area
            for idx, name in enumerate(FIELD_NAMES)}


def write_checkpoint(path, state, time):
    """Binary checkpoint: magic, version, nx, ny, nvar, time, dx, dy, field planes.

    The directory of `path` is created if it does not exist.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    header = struct.pack("<4sIIIIddd", _MAGIC, _FORMAT_VERSION,
                         state.nx, state.ny, NVAR, time, state.dx, state.dy)
    with open(path, "wb") as fh:
        fh.write(header)
        for idx in range(NVAR):
            fh.write(np.ascontiguousarray(state.data[idx], dtype="<f8").tobytes())


def read_checkpoint(path):
    """Read a checkpoint written by write_checkpoint; returns (StateGrid, time)."""
    header_size = struct.calcsize("<4sIIIIddd")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ValueError(f"truncated checkpoint header: expected {header_size} "
                             f"bytes, got {len(header)}")
        magic, version, nx, ny, nvar, time, dx, dy = struct.unpack("<4sIIIIddd", header)
        if magic != _MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if nvar != NVAR:
            raise ValueError(f"expected {NVAR} fields, file has {nvar}")
        if not np.isfinite(time):
            raise ValueError(f"checkpoint time must be finite, got {time!r}")
        if nx < 1 or ny < 1:
            raise ValueError(f"checkpoint grid must have at least one cell per axis, "
                             f"got nx = {nx}, ny = {ny}")
        if not (0 < dx < np.inf and 0 < dy < np.inf):
            raise ValueError(f"checkpoint grid spacing must be positive and finite, "
                             f"got dx = {dx!r}, dy = {dy!r}")
        # sized before it is read: a header may claim more than memory holds
        payload_size = nvar * ny * nx * 8
        left = os.fstat(fh.fileno()).st_size - header_size
        if left != payload_size:
            fault = ("truncated checkpoint payload" if left < payload_size
                     else "checkpoint has bytes after its payload")
            raise ValueError(f"{fault}: expected {payload_size} bytes for "
                             f"{nvar}x{ny}x{nx} fields, got {left}")
        raw = np.frombuffer(fh.read(payload_size), dtype="<f8")
    # the fields may be non-finite: abort.chk holds a diverged state
    data = raw.reshape(nvar, ny, nx).astype(float)
    return StateGrid(nx=nx, ny=ny, dx=dx, dy=dy, data=data), time
