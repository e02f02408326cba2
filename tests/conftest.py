from pathlib import Path

import pytest

from razor import parse_task

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def intro_task():
    return parse_task(FIXTURES / "intro")


@pytest.fixture(scope="session")
def transitive_task():
    return parse_task(FIXTURES / "transitive_gt")


@pytest.fixture(scope="session")
def puzzle_task():
    return parse_task(FIXTURES / "eight_puzzle_mini")


@pytest.fixture(scope="session")
def trains_task():
    return parse_task(FIXTURES / "trains_mini")


@pytest.fixture(scope="session")
def intro_model(intro_task):
    from razor import least_model

    return least_model(intro_task.bk)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance-gate checks")
