import pytest

from hardedge import HardEdgeParams
from hardedge.verification import CASES, integrate_case


@pytest.fixture(scope="session")
def params_m1():
    return HardEdgeParams.from_nu(CASES["m1"][0])


@pytest.fixture(scope="session")
def params_m2():
    return HardEdgeParams.from_nu(CASES["m2-special"][0])


@pytest.fixture(scope="session")
def traj_m1():
    return integrate_case("m1")


@pytest.fixture(scope="session")
def traj_m2():
    return integrate_case("m2-special")
