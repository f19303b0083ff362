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

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from xmhd.linearize import RhsBlowupError

# field indices inside StateGrid.data
RHO, MX, MY, MZ, BX, BY, BZ, EN = range(8)
NVAR = 8
FIELD_NAMES = ("rho", "mx", "my", "mz", "bx", "by", "bz", "en")

#: ratio of specific heats; the magnetic permeability mu0 is 1 in these units
GAMMA = 5.0 / 3.0

_MAGIC = b"XMHD"
_FORMAT_VERSION = 1


class Boundary(Enum):
    PERIODIC = "periodic"
    REFLECTING = "reflecting"


@dataclass
class MHDParams:
    """Dimensionless coefficients: mu = 1/Re, eta = 1/S (Lundquist), kappa = 1/Pr.

    The units fix mu0 = 1 and gamma = GAMMA.
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


def _ddx(a, dx, out):
    """Centered x-derivative of `a` into `out`, which is one ring smaller."""
    np.subtract(a[..., 1:-1, 2:], a[..., 1:-1, :-2], out=out)
    return np.divide(out, 2.0 * dx, out=out)


def _ddy(a, dy, out):
    """Centered y-derivative of `a` into `out`, which is one ring smaller."""
    np.subtract(a[..., 2:, 1:-1], a[..., :-2, 1:-1], out=out)
    return np.divide(out, 2.0 * dy, out=out)


def _trim(a):
    return a[..., 1:-1, 1:-1]


# Rows of the padded cube once mhd_rhs has turned it into primitive
# variables: each keeps the index of the conserved field it replaces.
_VX, _VY, _VZ = MX, MY, MZ
_TEMP, _B2 = RHO, EN


class RhsWorkspace:
    """Scratch arrays of mhd_rhs for one grid shape, reused across calls.

    One block holds, with (ny+4, nx+4) "padded" and (ny+2, nx+2) "ring"
    planes:

    * ``pad``, 8 padded planes: the state with two ghost cells per side,
      then the primitive variables in place (velocity over momentum,
      temperature over density, B.B over energy);
    * ``scalar``, 9 padded planes: pointwise products of the ideal terms;
      once the last ideal flux is built, ``deriv`` reuses them as the
      (8, ny, nx) scratch of the stencils;
    * ``flux``, 8 padded planes: the flux cube of one direction, ideal and
      then (as ``dflux``, 8 ring planes) diffusive;
    * ``grad``, 2 x 8 ring planes: x and y derivatives of the primitives;
    * ``tau``, 4 ring planes: one stress row and (2/3) div v.

    A workspace carries nothing from one evaluation to the next.
    """

    def __init__(self, nx, ny):
        self.nx, self.ny = nx, ny
        padded = (ny + 4) * (nx + 4)
        ring = (ny + 2) * (nx + 2)
        pad, scalar, flux, grad, tau = np.split(
            np.empty(25 * padded + 20 * ring),
            np.cumsum([8 * padded, 9 * padded, 8 * padded, 16 * ring]))
        self.pad = pad.reshape(NVAR, ny + 4, nx + 4)
        self.scalar = scalar.reshape(9, ny + 4, nx + 4)
        self.deriv = scalar[:NVAR * ny * nx].reshape(NVAR, ny, nx)
        self.flux = flux.reshape(NVAR, ny + 4, nx + 4)
        self.dflux = flux[:NVAR * ring].reshape(NVAR, ny + 2, nx + 2)
        self.grad = grad.reshape(2, NVAR, ny + 2, nx + 2)
        self.tau = tau.reshape(4, ny + 2, nx + 2)


def _ideal_flux(d, f, p, s):
    """Ideal flux of every field along direction d (0: x, 1: y) into f.

    p is the primitive cube; s holds P_tot, E + P_tot, B.v and the shared
    z-EMF in rows 1, 3, 4 and 5, and rows 6..8 are scratch.
    """
    ptot, e_ptot, bdotv, emf = s[1], s[3], s[4], s[5]
    vel, mag, bb = p[_VX:_VZ + 1], p[BX:BZ + 1], s[6:9]
    np.multiply(vel[d], p[RHO], out=f[RHO])                   # rho v_d
    np.multiply(f[RHO], vel, out=f[MX:MZ + 1])                # rho v_d v_k
    np.add(f[MX + d], ptot, out=f[MX + d])
    np.multiply(mag, mag[d], out=bb)                          # b_k b_d
    np.subtract(f[MX:MZ + 1], bb, out=f[MX:MZ + 1])
    # one shared z-EMF product, so the mixed divergence of the induction
    # rows cancels exactly in the divergence of B
    f[BX + d] = 0.0
    if d == 0:
        np.negative(emf, out=f[BY])
    else:
        np.copyto(f[BX], emf)
    np.multiply(vel[d], mag[2], out=f[BZ])                    # v_d bz - b_d vz
    np.subtract(f[BZ], np.multiply(mag[d], vel[2], out=bb[0]), out=f[BZ])
    np.multiply(vel[d], e_ptot, out=f[EN])
    np.multiply(mag[d], bdotv, out=bb[0])
    np.subtract(f[EN], bb[0], out=f[EN])


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
    dx, dy = state.dx, state.dy
    mu, eta, kap = params.mu, params.eta, params.kappa
    diffusive = mu != 0.0 or eta != 0.0 or kap != 0.0

    with np.errstate(all="ignore"):
        # each sum and product keeps the grouping of the formula it computes,
        # e.g. ((E - kin) - B^2/2) (gamma - 1): adaptive runs follow
        # last-bit roundoff, so neither reassociate nor turn a division into
        # a multiplication by the reciprocal
        p = _pad(state.data, 2, params, out=work.pad)
        rho, en = p[RHO], p[EN]
        np.divide(p[MX:MZ + 1], rho, out=p[_VX:_VZ + 1])
        vx, vy, vz = p[_VX:_VZ + 1]
        bx, by, bz = p[BX:BZ + 1]
        s = work.scalar
        b2, ptot, pres, e_ptot, bdotv, emf, tmp = s[:7]
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
        if diffusive:
            np.divide(pres, rho, out=pres)                    # temperature
        np.multiply(bx, vx, out=bdotv)
        np.add(bdotv, np.multiply(by, vy, out=tmp), out=bdotv)
        np.add(bdotv, np.multiply(bz, vz, out=tmp), out=bdotv)
        np.multiply(vy, bx, out=emf)
        np.subtract(emf, np.multiply(by, vx, out=tmp), out=emf)

        # ideal fluxes, one direction at a time, each differentiated in a
        # single fused stencil application
        f = work.flux
        out = np.empty((NVAR, state.ny, state.nx))
        _ideal_flux(0, f, p, s)
        np.negative(_ddx(_trim(f), dx, out), out=out)
        _ideal_flux(1, f, p, s)
        if diffusive:
            np.copyto(p[_TEMP], pres)
            np.copyto(p[_B2], b2)
        # from here on the scalar planes are free: work.deriv overlays them
        np.subtract(out, _ddy(_trim(f), dy, work.deriv), out=out)

        # diffusive fluxes (first derivatives live on the level-1 ring)
        if diffusive:
            grad = work.grad
            gx, gy = grad
            _ddx(p, dx, gx)
            _ddy(p, dy, gy)
            p1 = _trim(p)
            tau, divv = work.tau[:3], work.tau[3]
            np.add(gx[_VX], gy[_VY], out=divv)
            np.multiply(divv, 2.0 / 3.0, out=divv)
            cond = mu * kap * GAMMA / (GAMMA - 1.0)
            g = work.dflux
            g[RHO] = 0.0
            for d, stencil, h in ((0, _ddx, dx), (1, _ddy, dy)):
                # stress row d: (tau_dx, tau_dy, tau_dz)
                np.multiply(grad[d, _VX + d], 2.0, out=tau[d])
                np.subtract(tau[d], divv, out=tau[d])
                np.add(gy[_VX], gx[_VY], out=tau[1 - d])
                np.copyto(tau[2], grad[d, _VZ])
                np.multiply(tau, mu, out=g[MX:MZ + 1])
                # the shared z-current keeps the divergence of B exact again
                g[BX + d] = 0.0
                curl_z = g[BY - d]
                np.subtract(gx[BY], gy[BX], out=curl_z)
                np.multiply(curl_z, eta, out=curl_z)
                if d == 1:
                    np.negative(curl_z, out=curl_z)
                np.multiply(grad[d, BZ], eta, out=g[BZ])
                # energy: mu tau_d.v + cond d_d T + eta (d_d(B.B)/2 - (B.grad) b_d)
                gen = g[EN]
                np.multiply(tau, p1[_VX:_VZ + 1], out=tau)
                np.add(tau[0], tau[1], out=gen)
                np.add(gen, tau[2], out=gen)
                np.multiply(gen, mu, out=gen)
                np.add(gen, np.multiply(grad[d, _TEMP], cond, out=tau[0]), out=gen)
                np.multiply(gx[BX + d], p1[BX], out=tau[0])
                np.add(tau[0], np.multiply(gy[BX + d], p1[BY], out=tau[1]), out=tau[0])
                np.multiply(grad[d, _B2], 0.5, out=tau[1])
                np.subtract(tau[1], tau[0], out=tau[1])
                np.add(gen, np.multiply(tau[1], eta, out=tau[1]), out=gen)
                np.add(out, stencil(g, h, work.deriv), out=out)

    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        field, j, i = bad[0]
        raise RhsBlowupError(
            f"non-finite rhs in field {FIELD_NAMES[field]} at cell "
            f"(i={i}, j={j}); {len(bad)} cells affected",
            cells=[(FIELD_NAMES[f], int(i), int(j)) for f, j, i in bad[:8]])
    return out.reshape(-1)


def discrete_div_b(state, params):
    """Centered-difference divergence of (bx, by) at every interior cell."""
    p = _pad(state.data, 1, params)
    bx, by = p[BX], p[BY]
    return ((bx[1:-1, 2:] - bx[1:-1, :-2]) / (2.0 * state.dx)
            + (by[2:, 1:-1] - by[:-2, 1:-1]) / (2.0 * state.dy))


def conserved_totals(state):
    """Cell-sum times cell-area of every conserved field."""
    area = state.dx * state.dy
    return {name: float(np.sum(state.data[idx])) * area
            for idx, name in enumerate(FIELD_NAMES)}


def write_checkpoint(path, state, time):
    """Binary checkpoint: magic, version, nx, ny, nvar, time, dx, dy, field planes."""
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
        payload_size = nvar * ny * nx * 8
        payload = fh.read(payload_size)
        if len(payload) != payload_size:
            raise ValueError(f"truncated checkpoint payload: expected {payload_size} "
                             f"bytes for {nvar}x{ny}x{nx} fields, got {len(payload)}")
        raw = np.frombuffer(payload, dtype="<f8")
    data = raw.reshape(nvar, ny, nx).astype(float)
    return StateGrid(nx=nx, ny=ny, dx=dx, dy=dy, data=data), time
