"""Shared fixtures: clouds and derived partitions, built once per session.

Cloud construction dominates the runtime, so every test module pulls its
clouds from one cached factory. The cache key includes count and seed; the
defaults are what the acceptance checks run at, and a default cloud is the
one cli.run_pipeline built for the pipeline fixture.
"""

from __future__ import annotations

import pytest

from orthofold import actions, cli, strata

CLOUD_SAMPLES = 150
CLOUD_SEED = 0


@pytest.fixture(scope="session")
def pipeline_factory():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = cli.run_pipeline(actions.get_action(name), CLOUD_SAMPLES, CLOUD_SEED)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def cloud_factory(pipeline_factory):
    cache = {}

    def get(name, count=CLOUD_SAMPLES, seed=CLOUD_SEED):
        # the default cloud is the pipeline's, so it is built once
        if (count, seed) == (CLOUD_SAMPLES, CLOUD_SEED):
            return pipeline_factory(name).cloud
        key = (name, count, seed)
        if key not in cache:
            cache[key] = strata.build_cloud(actions.get_action(name), count, seed=seed)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def catalog_names():
    return actions.catalog_ids()
