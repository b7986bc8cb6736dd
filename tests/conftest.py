"""Pytest configuration: make tests/helpers.py importable everywhere."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import build_fig2_sheet, build_mixed_sheet  # noqa: E402


@pytest.fixture
def fig2_sheet():
    return build_fig2_sheet()


@pytest.fixture
def mixed_sheet():
    return build_mixed_sheet()
