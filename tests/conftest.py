import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from asailab.acceptance import _bc_form  # a cache shared with the suite
from asailab.quadfield import RealQuadraticField


@pytest.fixture(scope="session")
def field5():
    return RealQuadraticField(5)


@pytest.fixture(scope="session")
def bc_form_500():
    """Base change of the discriminant form over Q(sqrt 5), data to norm 500."""
    return _bc_form(500)


@pytest.fixture(scope="session")
def bc_form_4000():
    return _bc_form(4000)


@pytest.fixture
def precision(monkeypatch):
    """precision(bits) sets the library's working precision, ASAILAB_PRECISION,
    for the rest of the test."""
    def set_bits(bits):
        monkeypatch.setenv("ASAILAB_PRECISION", str(bits))
    return set_bits
