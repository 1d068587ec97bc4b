from pathlib import Path

import pytest

from posdec import worked_example
from posdec.cli import load_scenario, parse_scenario


@pytest.fixture(scope="session")
def example_scenario():
    """The bundled four-prize worked example, fully parsed."""
    return parse_scenario(worked_example.SCENARIO)


@pytest.fixture(scope="session")
def anomaly_scenario():
    """The bundled two-prize scenario whose pessimistic ranking ties the
    sure worst prize with the both-fully-possible lottery."""
    return load_scenario(str(Path(__file__).parents[1] / "scenarios" / "anomaly.json"))
