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
    """Each test starts with an empty formal-integral table and no R~ polys of
    the large-radius frame, so every test builds, and route-checks, the formal
    integrals it uses, and no test reads a build that another test checked."""
    alien._FORMAL_INTEGRALS.clear()
    largeradius._rtilde_poly.cache_clear()
    largeradius._rtilde_reference.cache_clear()
