"""Shared fixtures."""

import functools

import pytest

from spidergda.verify import SUITES


@pytest.fixture(scope="session")
def suite_checks():
    """`suite_checks(suite)`: check name -> `Check` of a `verify` suite,
    each suite run once per session."""
    return functools.cache(lambda suite: {c.name: c for c in SUITES[suite]()})
