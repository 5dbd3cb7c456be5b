import time

import hypothesis
import pytest

from framefuse.gradcheck import run_gradient_suite

hypothesis.settings.register_profile(
    "framefuse", deadline=None, max_examples=50, derandomize=True)
hypothesis.settings.load_profile("framefuse")


@pytest.fixture(scope="session")
def gradient_suite():
    """`run_gradient_suite()` run once for the session: (reports, elapsed seconds)."""
    start = time.monotonic()
    reports = run_gradient_suite()
    return reports, time.monotonic() - start
