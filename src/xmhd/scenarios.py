"""Initial conditions and case presets for the two benchmark problems.

Kelvin-Helmholtz (cases I-IV): periodic box [-1.25, 1.25] x [-0.5, 0.5],
unit density, constant pressure and magnetic field, a tanh shear layer with
a sinusoidal perturbation.  Magnetic reconnection (cases V-VI): box
[-12.8, 12.8] x [-6.4, 6.4], periodic in x and reflecting in y, a Harris-type
sheet with a single-island flux perturbation.

All initializers sample closed-form fields pointwise at cell centers
x = x_min + (i + 1/2) dx.
"""

from dataclasses import dataclass, replace

import numpy as np

from xmhd.mhd import BX, BY, BZ, EN, GAMMA, MX, RHO, Boundary, MHDParams, StateGrid

# Kelvin-Helmholtz constants: perturbation amplitudes/frequencies, shear
# width, uniform background.  The shear speed v0 is not tabulated anywhere;
# unit shear is the conventional normalization.
KHI_EPS_X = 0.1
KHI_EPS_Y = 0.1
KHI_OMEGA_X = 2
KHI_OMEGA_Y = 2
KHI_XI = 0.1
KHI_V0 = 1.0
KHI_RHO = 1.0
KHI_P = 0.25
KHI_B = (0.1, 0.0, 10.0)

# reconnection constants
RECON_PSI0 = 0.1


@dataclass
class Scenario:
    problem: str            # "khi" | "recon"
    case_id: str            # "I".."VI" | "custom"
    nx: int
    ny: int
    t_final: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    params: MHDParams
    tol: float = 1e-4

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self):
        return (self.y_max - self.y_min) / self.ny

    def cell_centers(self):
        x = self.x_min + (np.arange(self.nx) + 0.5) * self.dx
        y = self.y_min + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y)


def _khi_scenario(case_id, n, t_final, mu, eta, kappa):
    return Scenario(problem="khi", case_id=case_id, nx=n, ny=n, t_final=t_final,
                    x_min=-1.25, x_max=1.25, y_min=-0.5, y_max=0.5,
                    params=MHDParams(mu=mu, eta=eta, kappa=kappa))


def _recon_scenario(case_id, n, t_final):
    return Scenario(problem="recon", case_id=case_id, nx=n, ny=n, t_final=t_final,
                    x_min=-12.8, x_max=12.8, y_min=-6.4, y_max=6.4,
                    params=MHDParams(mu=5e-2, eta=5e-3, kappa=4e-2,
                                     bc_y=Boundary.REFLECTING))


_PRESETS = {
    "khi-I": lambda: _khi_scenario("I", 512, 1.0, 0.25, 1e-2, 1e-4),
    "khi-II": lambda: _khi_scenario("II", 800, 0.3, 0.25, 1e-2, 1e-4),
    "khi-III": lambda: _khi_scenario("III", 128, 2.0, 1e-4, 1e-4, 1e-4),
    "khi-IV": lambda: _khi_scenario("IV", 256, 1.0, 1e-4, 1e-4, 1e-4),
    "recon-V": lambda: _recon_scenario("V", 256, 20.0),
    "recon-VI": lambda: _recon_scenario("VI", 128, 100.0),
}

PRESET_NAMES = tuple(_PRESETS)


def make_scenario(name, nx=None, ny=None, t_final=None, tol=None):
    """A preset scenario ("khi-I" .. "recon-VI") with optional grid, time and tol overrides."""
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; choose from {PRESET_NAMES}")
    spec = _PRESETS[name]()
    updates = {}
    if nx is not None:
        updates["nx"] = nx
    if ny is not None:
        updates["ny"] = ny
    if t_final is not None:
        updates["t_final"] = t_final
    if tol is not None:
        updates["tol"] = tol
    if updates:
        spec = replace(spec, **updates)
    if min(spec.nx, spec.ny) < 2:
        raise ValueError(f"grid must have at least 2 cells per direction, got {spec.nx}x{spec.ny}")
    if not 0 <= spec.t_final < np.inf:
        raise ValueError(f"final time must be finite and not negative, got {spec.t_final!r}")
    return spec


def khi_velocity_x(x, y, lx=2.5, ly=1.0):
    """Closed-form initial x-velocity of the Kelvin-Helmholtz problem."""
    pert = (KHI_EPS_X * np.cos(2.0 * np.pi * KHI_OMEGA_X * x / lx)
            + KHI_EPS_Y * np.sin(np.pi * (2 * KHI_OMEGA_Y - 1) * y / ly))
    return KHI_V0 * np.tanh(y / KHI_XI) + pert


def recon_field(x, y, half_x=12.8, half_y=6.4, psi0=RECON_PSI0):
    """Closed-form initial (bx, by) of the reconnection problem.

    Wavenumbers kx = pi / X and ky = pi / (2 Y) with X, Y the half-widths, so
    the perturbation is x-periodic over the box and its by vanishes at the
    reflecting walls.
    """
    kx = np.pi / half_x
    ky = np.pi / (2.0 * half_y)
    bx = np.tanh(2.0 * y) - psi0 * ky * np.cos(kx * x) * np.sin(ky * y)
    by = psi0 * kx * np.sin(kx * x) * np.cos(ky * y)
    return bx, by


def init_khi(spec):
    """Initial conserved state of the Kelvin-Helmholtz instability."""
    if spec.problem != "khi":
        raise ValueError(f"not a KHI scenario: {spec.problem!r}")
    x, y = spec.cell_centers()
    state = StateGrid.zeros(spec.nx, spec.ny, spec.dx, spec.dy)
    lx = spec.x_max - spec.x_min
    ly = spec.y_max - spec.y_min
    vx = khi_velocity_x(x, y, lx, ly)
    bx, by, bz = KHI_B
    state.data[RHO] = KHI_RHO
    state.data[MX] = KHI_RHO * vx
    state.data[BX] = bx
    state.data[BY] = by
    state.data[BZ] = bz
    state.data[EN] = (KHI_P / (GAMMA - 1.0) + 0.5 * KHI_RHO * vx ** 2
                      + 0.5 * (bx ** 2 + by ** 2 + bz ** 2))
    return state


def init_reconnection(spec, psi0=RECON_PSI0):
    """Initial conserved state of the magnetic reconnection problem."""
    if spec.problem != "recon":
        raise ValueError(f"not a reconnection scenario: {spec.problem!r}")
    x, y = spec.cell_centers()
    state = StateGrid.zeros(spec.nx, spec.ny, spec.dx, spec.dy)
    bx, by = recon_field(x, y, half_x=spec.x_max, half_y=spec.y_max, psi0=psi0)
    rho = 1.2 - np.tanh(2.0 * y) ** 2
    pres = 0.5 * rho
    state.data[RHO] = rho
    state.data[BX] = bx
    state.data[BY] = by
    state.data[EN] = pres / (GAMMA - 1.0) + 0.5 * (bx ** 2 + by ** 2)
    return state


def initialize(spec):
    """Dispatch to the problem-specific initializer."""
    if spec.problem == "khi":
        return init_khi(spec)
    if spec.problem == "recon":
        return init_reconnection(spec)
    raise ValueError(f"unknown problem {spec.problem!r}")
