import json
import pathlib

import pytest

from halfint.hecke import build_hecke_table
from halfint.qseries import delta_halfintegral

BIG_N = 2_100_000
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

# one line per acceptance criterion, echoed at the end of the run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def big_table():
    """Coefficient table to 2.1e6, built in memory."""
    return delta_halfintegral(BIG_N)


@pytest.fixture(scope="session")
def table10k():
    return delta_halfintegral(10_000)


@pytest.fixture(scope="session")
def hecke26k():
    return build_hecke_table(26_000)


@pytest.fixture(scope="session")
def pins():
    with open(DATA_DIR / "regression_pins.json") as fh:
        return json.load(fh)
