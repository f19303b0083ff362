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

_MAGIC = b"XMHD"
_FORMAT_VERSION = 1


class Boundary(Enum):
    PERIODIC = "periodic"
    REFLECTING = "reflecting"


@dataclass
class MHDParams:
    """Dimensionless coefficients: mu = 1/Re, eta = 1/S (Lundquist), kappa = 1/Pr."""
    mu: float
    eta: float
    kappa: float
    gamma: float = 5.0 / 3.0
    mu0: float = 1.0
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


def _pad(data, ghosts, params):
    """Extend (8, ny, nx) field data by `ghosts` cells per side according to bc."""
    g = ghosts
    if params.bc_x is Boundary.PERIODIC:
        data = np.concatenate([data[:, :, -g:], data, data[:, :, :g]], axis=2)
    else:
        s = _reflect_signs("x")
        left = s * data[:, :, g - 1::-1]
        right = s * data[:, :, :-g - 1:-1]
        data = np.concatenate([left, data, right], axis=2)
    if params.bc_y is Boundary.PERIODIC:
        data = np.concatenate([data[:, -g:, :], data, data[:, :g, :]], axis=1)
    else:
        s = _reflect_signs("y")
        bottom = s * data[:, g - 1::-1, :]
        top = s * data[:, :-g - 1:-1, :]
        data = np.concatenate([bottom, data, top], axis=1)
    return data


def apply_bc(state, params):
    """Field data with one ghost layer per side filled from the boundary conditions."""
    return _pad(state.data, 1, params)


def _ddx(a, dx):
    """Centered x-derivative; shrinks the array by one ring."""
    return (a[..., 1:-1, 2:] - a[..., 1:-1, :-2]) / (2.0 * dx)


def _ddy(a, dy):
    """Centered y-derivative; shrinks the array by one ring."""
    return (a[..., 2:, 1:-1] - a[..., :-2, 1:-1]) / (2.0 * dy)


def _trim(a):
    return a[..., 1:-1, 1:-1]


def mhd_rhs(state, params):
    """Right-hand side dU/dt of the resistive MHD equations, as a flat vector.

    Ideal fluxes: momentum  rho v (x) v + (P + B^2/2 mu0) I - B (x) B / mu0,
    induction  v (x) B - B (x) v,  energy  (E + P + B^2/2 mu0) v - B (B.v)/mu0,
    plus the continuity row div(rho v).  Diffusive fluxes: the viscous stress
    tau = grad v + grad v^T - (2/3) div v I, the resistive induction term
    eta (grad(x)B - (grad(x)B)^T), and the energy row
    mu tau . v + mu kappa gamma/(gamma-1) grad T + eta (grad(B.B)/2 - (B.grad) B),
    with temperature T = P / rho.
    """
    dx, dy = state.dx, state.dy
    gamma, mu0 = params.gamma, params.mu0
    mu, eta, kap = params.mu, params.eta, params.kappa

    with np.errstate(all="ignore"):
        p = _pad(state.data, 2, params)
        rho = p[RHO]
        vel = p[MX:MZ + 1] / rho                      # (3, .., ..)
        vx, vy, vz = vel
        bx, by, bz = p[BX], p[BY], p[BZ]
        b2 = bx * bx + by * by + bz * bz
        kin = 0.5 * rho * (vx * vx + vy * vy + vz * vz)
        pres = (gamma - 1.0) * (p[EN] - kin - 0.5 * b2 / mu0)
        ptot = pres + 0.5 * b2 / mu0
        bdotv = bx * vx + by * vy + bz * vz
        # single shared z-EMF product so the mixed divergence of the
        # induction rows cancels exactly in the divergence of B
        emf_z = vy * bx - by * vx

        # ideal fluxes, assembled as one cube per direction and
        # differentiated in a single fused stencil application each
        flux_x = np.empty_like(p)
        flux_y = np.empty_like(p)
        flux_x[RHO] = rho * vx
        flux_y[RHO] = rho * vy
        flux_x[MX] = rho * vx * vx + ptot - bx * bx / mu0
        flux_y[MX] = rho * vy * vx - by * bx / mu0
        flux_x[MY] = rho * vx * vy - bx * by / mu0
        flux_y[MY] = rho * vy * vy + ptot - by * by / mu0
        flux_x[MZ] = rho * vx * vz - bx * bz / mu0
        flux_y[MZ] = rho * vy * vz - by * bz / mu0
        flux_x[BX] = 0.0
        flux_y[BX] = emf_z
        flux_x[BY] = -emf_z
        flux_y[BY] = 0.0
        flux_x[BZ] = vx * bz - bx * vz
        flux_y[BZ] = vy * bz - by * vz
        flux_x[EN] = (p[EN] + ptot) * vx - bx * bdotv / mu0
        flux_y[EN] = (p[EN] + ptot) * vy - by * bdotv / mu0
        out = -_ddx(_trim(flux_x), dx)
        out -= _ddy(_trim(flux_y), dy)

        # diffusive fluxes (first derivatives live on the level-1 ring)
        if mu != 0.0 or eta != 0.0 or kap != 0.0:
            dvel_dx = _ddx(vel, dx)
            dvel_dy = _ddy(vel, dy)
            divv = dvel_dx[0] + dvel_dy[1]
            tau_xx = 2.0 * dvel_dx[0] - (2.0 / 3.0) * divv
            tau_yy = 2.0 * dvel_dy[1] - (2.0 / 3.0) * divv
            tau_xy = dvel_dy[0] + dvel_dx[1]
            tau_xz = dvel_dx[2]
            tau_yz = dvel_dy[2]

            # the shared z-current keeps the divergence of B exact again
            curl_z = eta * (_ddx(by, dx) - _ddy(bx, dy))
            dbz_dx = _ddx(bz, dx)
            dbz_dy = _ddy(bz, dy)

            vx1, vy1, vz1 = _trim(vx), _trim(vy), _trim(vz)
            cond = mu * kap * gamma / (gamma - 1.0)
            temp = pres / rho
            bx1, by1 = _trim(bx), _trim(by)
            dbx_dx, dbx_dy = _ddx(bx, dx), _ddy(bx, dy)
            dby_dx, dby_dy = _ddx(by, dx), _ddy(by, dy)

            n1y, n1x = tau_xx.shape
            gx = np.zeros((NVAR, n1y, n1x))
            gy = np.zeros((NVAR, n1y, n1x))
            gx[MX] = mu * tau_xx
            gy[MX] = mu * tau_xy
            gx[MY] = mu * tau_xy
            gy[MY] = mu * tau_yy
            gx[MZ] = mu * tau_xz
            gy[MZ] = mu * tau_yz
            gy[BX] = -curl_z
            gx[BY] = curl_z
            gx[BZ] = eta * dbz_dx
            gy[BZ] = eta * dbz_dy
            gx[EN] = (mu * (tau_xx * vx1 + tau_xy * vy1 + tau_xz * vz1)
                      + cond * _ddx(temp, dx)
                      + eta * (0.5 * _ddx(b2, dx) - (bx1 * dbx_dx + by1 * dbx_dy)))
            gy[EN] = (mu * (tau_xy * vx1 + tau_yy * vy1 + tau_yz * vz1)
                      + cond * _ddy(temp, dy)
                      + eta * (0.5 * _ddy(b2, dy) - (bx1 * dby_dx + by1 * dby_dy)))
            out += _ddx(gx, dx)
            out += _ddy(gy, dy)

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
