import sys

import pytest
from hypothesis import HealthCheck, settings

from resurgentia import alien, borel, largeradius

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _no_cached_kernel_rows():
    """Each test starts with an empty Borel-kernel row cache, so no test is
    served rows that an earlier one made, and test order cannot change a result."""
    borel._kernel_row.cache_clear()


@pytest.fixture(autouse=True)
def _no_cached_exact_builds():
    """Each test starts with no stored formal-integral build in any frame (one
    per sign), no composition context (whose powers are built, and certified,
    lazily), no leftward sigma_2 maps and no R~ polys of the large-radius
    frame, so every test builds, and route-checks, the formal integrals it
    uses and certifies the factors it reads, no test is served a truncation of
    a build that another test checked, and a count of the builds a test makes
    does not depend on which tests ran before it."""
    alien._FORMAL_INTEGRALS.clear()
    alien._leftward_maps.cache_clear()
    largeradius.make_context.cache_clear()
    largeradius._rtilde_poly.cache_clear()
    largeradius._rtilde_reference.cache_clear()


@pytest.fixture(autouse=True)
def _mpmath_precision_kept(request):
    """A test that leaves mpmath's global precision changed fails, by name, and
    the precision is put back. The oracles work under mpmath.workdps, so no test
    should change it. mpmath is read only once some test has imported it; a test
    that imports it first is held to the precision mpmath starts at."""
    mpmath = sys.modules.get("mpmath")
    before = mpmath.mp.prec if mpmath else 53  # 53: the precision mpmath starts at
    yield
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and mpmath.mp.prec != before:
        after, mpmath.mp.prec = mpmath.mp.prec, before
        pytest.fail(f"{request.node.nodeid} left mpmath.mp.prec at {after}, not {before}", pytrace=False)
