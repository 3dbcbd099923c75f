import os

# One BLAS thread per test process, set before numpy is first imported
# (pytest and its plugins do not import it before this file). On a 2-core
# machine criteria 07 and 09 took 347 s with OpenBLAS's default threads
# and 92 s with one. A value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from permbo import accel  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def warm_accel():
    # Trigger numba compilation once so timed tests measure steady-state cost.
    a = np.array([0, 1, 2, 3], dtype=np.int64)
    b = np.array([3, 2, 1, 0], dtype=np.int64)
    x = np.stack([a, b])
    accel.discordant_count(a, b)
    accel.discordance_matrix(x)
    accel.cross_discordance_matrix(x, x)
    W = np.zeros((4, 4))
    accel.ts_trace(W, a)
    accel.ts_trace_batch(W, x)
    accel.qap_cost(W, W, a)
    accel.qap_cost_batch(W, W, x)
    accel.tsp_length(np.zeros((4, 2)), a)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion"):
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status}")
