import pytest
from hypothesis import HealthCheck, settings

from resurgentia import alien, borel

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
def _no_cached_formal_integrals():
    """Each test starts with an empty formal-integral cache, so every test
    builds, and route-checks, the formal integrals it uses."""
    alien._formal_integral.cache_clear()
