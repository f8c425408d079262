import os

# one BLAS/OpenMP thread, set before numpy loads and starts its pool: then the
# test process has one OS thread, the condition under which carrierlab._split
# forks its helper, and BLAS reductions sum in the stored references' order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest
from hypothesis import HealthCheck, settings

from carrierlab import _split

settings.register_profile(
    "carrierlab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("carrierlab")


@pytest.fixture
def no_idle_cpu(monkeypatch):
    """No CPU the process may use is idle, so ``carrierlab._split`` forks no
    helper and every task runs in the test's own process."""
    monkeypatch.setattr(_split, "_idle_cpu", lambda: False)
