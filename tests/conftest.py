"""Shared fixtures: the 2-state worked example and derived forms, plus a
small exactly-triangular 2-state test model and a state-path counter."""

import numpy as np
import pytest

import ffest.estimator
from ffest import (InnovationJointModel, TriangularJointModel,
                   innovation_form_details, synthesize, triangularize)
from ffest.cli import _EXAMPLE_SYSTEM


def make_triangular(**over):
    """Exactly-triangular model with p1 = p2 = p = q = 1; keyword
    arguments replace blocks."""
    base = dict(
        A11=[[0.5]], A12=[[0.1]], A22=[[0.3]],
        K11=[[0.2]], K12=[[0.1]], K22=[[0.4]],
        C11=[[1.0]], C12=[[0.5]], C22=[[1.0]],
        Q11=[[2.0]], Q12=[[1.0]], Q22=[[1.0]],
        T=np.eye(2), p1=1, p2=1, p=1, q=1,
    )
    base.update(over)
    return TriangularJointModel(**base)


def count_state_paths(monkeypatch):
    """A list that gains one entry per state path run."""
    paths = []
    for name in ("_modal_run", "_state_loop"):
        def counting(*args, run=getattr(ffest.estimator, name)):
            paths.append(None)
            return run(*args)
        monkeypatch.setattr(ffest.estimator, name, counting)
    return paths


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
def example_swapped(example_innovation):
    """The worked example with the roles of y and w exchanged, which has
    feedback from the new y to the new w."""
    m = example_innovation
    return InnovationJointModel(
        A=m.A, K=m.K[:, ::-1], C=m.C[::-1, :], Q=m.Q[::-1, :][:, ::-1],
        p=1, q=1,
    )


@pytest.fixture(scope="session")
def example_triangular(example_innovation):
    # the worked example satisfies the no-feedback condition only to about
    # 6e-4 (it is a system rounded to two decimals), hence the loose tolerances
    return triangularize(example_innovation, rank_tol=1e-2, tol_fb=1e-2)


@pytest.fixture(scope="session")
def example_estimator(example_triangular):
    return synthesize(example_triangular)
