import pytest

from modlat import modform


@pytest.fixture
def fresh_certificates():
    """Empties the memo of certified decompositions before and after the
    test, so that a monkeypatched enumerator is called and what it
    returned does not outlive the test."""
    modform._certificate.cache_clear()
    yield
    modform._certificate.cache_clear()
