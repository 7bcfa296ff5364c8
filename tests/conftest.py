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
