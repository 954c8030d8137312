"""Shared fixtures: session-scoped small worlds and studies.

World construction is the expensive step, so integration-ish tests
share one small world (12 countries x 300 sites) built once per test
session.  Tests that need different configurations build their own.
"""

from __future__ import annotations

import pytest

from repro.analysis import DependenceStudy
from repro.worldgen import World, WorldConfig

#: A spread of anchor countries covering every continent and the main
#: case studies (CIS, francophone, CZ/SK, JP, insular/non-insular).
TEST_COUNTRIES = (
    "TH",
    "IR",
    "US",
    "JP",
    "RU",
    "SK",
    "CZ",
    "AF",
    "TM",
    "BG",
    "FR",
    "NG",
    "BR",
    "AU",
    "KG",
    "DE",
)


@pytest.fixture(scope="session")
def small_config() -> WorldConfig:
    return WorldConfig(sites_per_country=300, countries=TEST_COUNTRIES)


@pytest.fixture(scope="session")
def small_world(small_config: WorldConfig) -> World:
    return World(small_config)


@pytest.fixture(scope="session")
def small_study(small_world: World) -> DependenceStudy:
    return DependenceStudy.measure(small_world)
