import math
from pathlib import Path

import pytest

from stalkmech import BeamGeometry

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def half_ratio_geometry() -> BeamGeometry:
    """The reference moment-arm ratio: 10 mm pad radius on a 20 mm stalk."""
    return BeamGeometry.from_ratio(0.5)


def deg(value: float) -> float:
    return math.radians(value)
