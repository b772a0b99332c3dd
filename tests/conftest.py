import os
from pathlib import Path

import pytest

from brickeval import BrickStructure, DEFAULT_WORLD, make_brick

# pytest puts src/ on sys.path (pyproject.toml); subprocesses that run
# `python -m brickeval` find the package the same way.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def world():
    return DEFAULT_WORLD


@pytest.fixture
def perfect_fixture():
    """Two 1x2 bricks on the ground bridged by a 1x4: scores the maximum."""
    return BrickStructure((
        make_brick(1, 2, 0, 0, 0),
        make_brick(1, 2, 0, 2, 0),
        make_brick(1, 4, 0, 0, 1),
    ))
