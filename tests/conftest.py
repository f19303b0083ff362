import pytest
from scipy.integrate import solve_ivp

from tests._problems import RD_T, rd_initial, rd_rhs


@pytest.fixture(scope="session")
def rd_reference():
    """Stiff-solver reference for the 1D reaction-diffusion order sweeps."""
    sol = solve_ivp(lambda t, u: rd_rhs(u), (0.0, RD_T), rd_initial(),
                    method="Radau", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]
