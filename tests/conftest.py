"""Shared fixtures: clouds and derived partitions, built once per session.

Cloud construction dominates the runtime, so every test module pulls its
clouds from one cached factory. The cache key includes count and seed; the
defaults are what the acceptance checks run at.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from orthofold import actions, quotient, strata

CLOUD_SAMPLES = 150
CLOUD_SEED = 0


@pytest.fixture(scope="session")
def cloud_factory():
    cache = {}

    def get(name, count=CLOUD_SAMPLES, seed=CLOUD_SEED):
        key = (name, count, seed)
        if key not in cache:
            cache[key] = strata.build_cloud(actions.get_action(name), count, seed=seed)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def pipeline_factory(cloud_factory):
    cache = {}

    def get(name):
        if name not in cache:
            cloud = cloud_factory(name)
            orbit_type = strata.orbit_type_partition(cloud)
            iso = strata.isostabilizer_decomposition(cloud)
            klein = quotient.klein_partition(cloud)
            principal = strata.principal_dimension(cloud, orbit_type)
            cache[name] = SimpleNamespace(
                cloud=cloud,
                action=cloud.model,
                orbit_type=orbit_type,
                iso=iso,
                klein=klein,
                corr=quotient.correspondence(iso, klein),
                inverse=quotient.inverse_klein(klein, cloud),
                principal=principal,
                labels=strata.singularity_labels(cloud, principal),
            )
        return cache[name]

    return get


@pytest.fixture(scope="session")
def catalog_names():
    return actions.catalog_ids()
