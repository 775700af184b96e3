"""Hypothesis profiles: runs with the CI environment variable set (GitHub
Actions sets it) use the derandomized "ci" profile, so that a failing
property test fails the same way on a local rerun with CI=1; local runs stay
random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
