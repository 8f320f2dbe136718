import os

# one BLAS thread, as perfbench runs: numpy and scipy each load their own
# OpenBLAS, and two thread pools alternating on small matrices cost more
# than they parallelise; set before anything imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from hardedge import HardEdgeParams  # noqa: E402
from hardedge.verification import CASES, integrate_case  # noqa: E402


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
