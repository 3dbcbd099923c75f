import os

# One BLAS thread per test process, set before numpy is first imported
# (pytest and its plugins do not import it before this file). On a 2-core
# machine criteria 07 and 09 took 347 s with OpenBLAS's default threads
# and 92 s with one. A value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion"):
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status}")
