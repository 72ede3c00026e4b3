"""Shared test settings.

Every hypothesis property test runs under one derandomized profile: the
same 50 examples every run, so a tier-1 failure reproduces.

A test whose captured output says "illegal value" fails: BLAS/LAPACK's
XERBLA prints that when a routine is called with an invalid argument and
then returns without computing, so a result can look right by accident.
"""

import pytest
from hypothesis import settings

settings.register_profile("srifkit", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("srifkit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    out = report.capstdout + report.capstderr
    if report.when == "call" and report.passed and "illegal value" in out:
        report.outcome = "failed"
        lines = [ln for ln in out.splitlines() if "illegal value" in ln]
        report.longrepr = (f"a BLAS/LAPACK call had an illegal argument "
                           f"({len(lines)} times): {lines[0].strip()}")
