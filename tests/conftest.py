import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qpositivity import cli  # noqa: E402


@pytest.fixture(autouse=True)
def _at_most_two_workers(monkeypatch):
    # a scan forks one worker per CPU; tests never ask for more than two
    # processes, whatever the machine
    count = cli._worker_count
    monkeypatch.setattr(cli, "_worker_count", lambda: min(2, count()))
