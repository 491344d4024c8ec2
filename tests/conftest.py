"""Shared session fixtures: the expensive glued structures are built once."""

import pytest
from hypothesis import settings

from lcoalg.fixtures import (
    fixture_f,
    fixture_f_achiral,
    fixture_f_entangled,
    fixture_group,
    fixture_group_split,
    fixture_quantum_matrix,
    fixture_quantum_sphere,
)

# A longer search for the properties, chosen with --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def f_data():
    return fixture_f()


@pytest.fixture(scope="session")
def f_entangled():
    return fixture_f_entangled()


@pytest.fixture(scope="session")
def f_achiral():
    return fixture_f_achiral()


@pytest.fixture(scope="session")
def qm_data():
    return fixture_quantum_matrix()


@pytest.fixture(scope="session")
def sphere_data():
    return fixture_quantum_sphere()


@pytest.fixture(scope="session")
def group_split():
    return fixture_group_split()


@pytest.fixture(scope="session")
def group3():
    return fixture_group(3)


@pytest.fixture(scope="session")
def group2():
    return fixture_group(2)
