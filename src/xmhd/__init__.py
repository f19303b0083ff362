"""Matrix-free exponential time integration for 2.5D resistive MHD.

The package bundles three layers:

* matrix-function machinery: scalar/dense/divided-difference evaluation of
  the phi functions (:mod:`xmhd.phi`), their action on vectors via real Leja
  interpolation (:mod:`xmhd.leja`) and via Arnoldi/Krylov projection
  (:mod:`xmhd.krylov`), glued to the problem through finite-difference
  Jacobian actions and a cached power-iteration spectral estimate
  (:mod:`xmhd.linearize`);
* time integrators and step-size control: exponential Rosenbrock and EPIRK
  single-step schemes plus explicit embedded Runge-Kutta baselines
  (:mod:`xmhd.integrators`), with traditional, cost-gradient and combined
  controllers (:mod:`xmhd.controllers`);
* the application: a finite-difference resistive MHD right-hand side
  (:mod:`xmhd.mhd`), Kelvin-Helmholtz / magnetic-reconnection scenario
  presets (:mod:`xmhd.scenarios`) and a benchmark harness with CLI
  (:mod:`xmhd.harness`, :mod:`xmhd.cli`).
"""

from xmhd.phi import phi_scalar, phi_dense, divided_differences
from xmhd.leja import leja_points, shift_and_scale, apply_phi_leja
from xmhd.krylov import apply_phi_krylov
from xmhd.linearize import RhsOperator, FrozenLinearization, jvp, estimate_alpha
from xmhd.integrators import Scheme, step, error_norm
from xmhd.controllers import ControllerConstants, traditional_next, cost_next, combine, accept
from xmhd.mhd import StateGrid, MHDParams, Boundary, RhsWorkspace, mhd_rhs, discrete_div_b, conserved_totals, apply_bc
from xmhd.scenarios import make_scenario, initialize
from xmhd.harness import RunConfig, run, make_reference, work_precision, divb_series

__version__ = "0.1.0"
