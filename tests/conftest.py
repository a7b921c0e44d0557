"""Shared fixtures: the 2-state worked example and derived forms."""

import pytest

from ffest import innovation_form_details, synthesize, triangularize
from ffest.cli import _EXAMPLE_SYSTEM


@pytest.fixture(scope="session")
def example_system():
    """Two-state driven model whose input channel is (nearly) feedback-free."""
    return _EXAMPLE_SYSTEM


@pytest.fixture(scope="session")
def example_chain(example_system):
    return innovation_form_details(example_system)


@pytest.fixture(scope="session")
def example_innovation(example_chain):
    return example_chain.model


@pytest.fixture(scope="session")
def example_triangular(example_innovation):
    # the worked example satisfies the no-feedback condition only to about
    # 6e-4 (it is a system rounded to two decimals), hence the loose tolerances
    return triangularize(example_innovation, rank_tol=1e-2, tol_fb=1e-2)


@pytest.fixture(scope="session")
def example_estimator(example_triangular):
    return synthesize(example_triangular)

