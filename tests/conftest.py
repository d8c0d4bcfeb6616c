import math
import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# fixed example sequence, no wall-clock deadline (timings vary on a loaded
# machine), and no example database written to disk
settings.register_profile("wedgeflow", derandomize=True, deadline=None, database=None)
settings.load_profile("wedgeflow")

# Hypothesis still caches the constants it reads from source files while it
# collects tests; keep that cache in a directory removed at exit, out of the
# checkout
_HOME = tempfile.TemporaryDirectory(prefix="wedgeflow-hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def _desk_march(grid_n):
    """The desk problem (M_I 2.94, tau 10 deg, eps 0.01) marched at grid_n to
    t = 1, and the wall time of that march in seconds."""
    from wedgeflow.gas import GasModel
    from wedgeflow.pattern import ProblemConfig
    from wedgeflow.unsteady import UnsteadyConfig, run

    problem = ProblemConfig(
        model=GasModel(gamma=1.4), M_I=2.94, tau=math.radians(10.0), epsilon=0.01
    )
    t0 = time.perf_counter()
    res = run(UnsteadyConfig(problem=problem, grid_n=grid_n, t_final=1.0))
    return res, time.perf_counter() - t0


# Each desk march runs once per session.  The acceptance run, the refinement
# study and the cross-validation read them; they must not modify them.


@pytest.fixture(scope="session")
def desk_march_100():
    return _desk_march(100)


@pytest.fixture(scope="session")
def desk_march_200():
    return _desk_march(200)


@pytest.fixture(scope="session")
def desk_march():
    return _desk_march(400)
