"""Model types, validation reports, block assembly, JSON round-trips."""

import warnings

import numpy as np
import pytest

from ffest import (
    EstimatorModel,
    InnovationJointModel,
    StateSpaceModel,
    Trajectory,
    TriangularJointModel,
    assemble,
    flip_state_signs,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate,
)
from ffest.errors import ModelFormatError, ValidationError

from conftest import make_triangular


def make_innovation():
    return InnovationJointModel(
        A=np.array([[0.5, 0.1], [0.0, 0.3]]),
        K=np.array([[0.2, 0.1], [0.0, 0.4]]),
        C=np.array([[1.0, 0.5], [0.0, 1.0]]),
        Q=np.array([[2.0, 1.0], [1.0, 1.0]]),
        p=1, q=1,
    )


def make_triangular_blocks(p1, p2):
    """Triangular model with p = q = 1 and the partition (p1, p2)."""
    return TriangularJointModel(
        A11=0.5 * np.eye(p1), A12=np.zeros((p1, p2)), A22=0.5 * np.eye(p2),
        K11=np.full((p1, 1), 0.1), K12=np.full((p1, 1), 0.1),
        K22=np.full((p2, 1), 0.1),
        C11=np.ones((1, p1)), C12=np.ones((1, p2)), C22=np.ones((1, p2)),
        Q11=[[2.0]], Q12=[[1.0]], Q22=[[1.0]],
        T=np.eye(p1 + p2), p1=p1, p2=p2, p=1, q=1,
    )


def make_empty_estimator():
    return EstimatorModel(Atil=np.zeros((0, 0)), Ktil=np.zeros((0, 1)),
                          Ctil=np.zeros((1, 0)), D0=[[0.3]])


class TestConstructors:
    def test_state_space_shapes_enforced(self):
        with pytest.raises(ValidationError):
            StateSpaceModel(
                A=np.eye(2), B=np.zeros((3, 1)),
                C=np.zeros((2, 2)), D=np.zeros((2, 1)), p=1, q=1,
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            InnovationJointModel(
                A=np.array([[np.nan]]), K=np.ones((1, 2)),
                C=np.ones((2, 1)), Q=np.eye(2), p=1, q=1,
            )

    def test_finite_check_without_overflow(self):
        # huge finite entries pass without the overflow a sum would hit;
        # nan and +-inf are still rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = np.full((3, 1), 1e308)
            traj = Trajectory(y=big, w=-big)
            assert np.array_equal(traj.y, big)
            for bad in (np.nan, np.inf, -np.inf):
                y = big.copy()
                y[1, 0] = bad
                with pytest.raises(ValidationError):
                    Trajectory(y=y, w=big)
                with pytest.raises(ValidationError):
                    InnovationJointModel(
                        A=np.array([[bad]]), K=np.ones((1, 2)),
                        C=np.ones((2, 1)), Q=np.eye(2), p=1, q=1,
                    )

    def test_trajectory_sample_count_mismatch(self):
        with pytest.raises(ValidationError):
            Trajectory(y=np.zeros((5, 1)), w=np.zeros((4, 1)))

    def test_estimator_dims(self):
        e = EstimatorModel(
            Atil=np.eye(2) * 0.5, Ktil=np.zeros((2, 3)),
            Ctil=np.zeros((1, 2)), D0=np.zeros((1, 3)),
        )
        assert (e.n, e.p, e.q) == (2, 1, 3)


class TestValidate:
    def test_stable_model_passes(self):
        assert validate(make_innovation()).ok

    def test_unstable_a_reported(self):
        m = StateSpaceModel(
            A=2.0 * np.eye(2), B=np.eye(2),
            C=np.eye(2), D=np.zeros((2, 2)), p=1, q=1,
        )
        report = validate(m)
        assert not report.ok
        assert any("spectral radius" in v for v in report.violations)

    def test_indefinite_q_reported(self):
        m = make_innovation()
        m.Q = np.diag([1.0, -1.0])
        report = validate(m)
        assert not report.ok
        assert any("positive definite" in v for v in report.violations)

    @pytest.mark.parametrize("over, message", [
        ({"A22": [[1.2]]}, "spectral radius of assembled A is 1.2 >= 1"),
        ({"Q22": [[-0.5]]}, "Q22 not positive definite (eigenvalue: -0.5)"),
    ], ids=["unstable", "indefinite-q22"])
    def test_triangular_violations(self, over, message):
        assert validate(make_triangular()).ok
        assert validate(make_triangular(**over)).violations == [message]

    def test_unstable_estimator_reported(self):
        est = EstimatorModel(Atil=[[0.5, 1.0], [0.0, 1.1]],
                             Ktil=np.ones((2, 1)), Ctil=np.ones((1, 2)),
                             D0=[[0.0]])
        assert validate(est).violations == [
            "spectral radius of Atil is 1.1 >= 1"]
        assert validate(make_empty_estimator()).ok

    def test_report_is_truthy_boolean(self):
        assert bool(validate(make_innovation())) is True


class TestAssembleExtract:
    def test_round_trip(self):
        t = make_triangular()
        m = assemble(t)
        assert np.allclose(m.A, [[0.5, 0.1], [0.0, 0.3]])
        assert np.allclose(m.Q, [[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(m.K, [[0.2, 0.1], [0.0, 0.4]])
        assert np.allclose(m.C, [[1.0, 0.5], [0.0, 1.0]])
        # the lower-left blocks are exact zeros, also at an unequal partition
        for tri in (t, make_triangular_blocks(2, 3)):
            m, p1, p = assemble(tri), tri.p1, tri.p
            assert not m.A[p1:, :p1].any()
            assert not m.K[p1:, :p].any()
            assert not m.C[p:, :p1].any()
            assert np.array_equal(m.K[:p1, p:], tri.K12)
            assert np.array_equal(m.C[p:, p1:], tri.C22)

    def test_flip_state_signs_preserves_dynamics(self):
        t = make_triangular()
        f = flip_state_signs(t, [-1, 1])
        # similarity with S = diag(-1, 1): eigenvalues and Q unchanged
        assert np.allclose(np.sort(np.linalg.eigvals(f.A)),
                           np.sort(np.linalg.eigvals(t.A)))
        assert np.allclose(f.Q, t.Q)
        assert np.allclose(f.C11, -t.C11)
        assert np.allclose(f.A12, -t.A12)

    def test_flip_state_signs_rejects_bad_signs(self):
        with pytest.raises(ValidationError):
            flip_state_signs(make_triangular(), [2, 1])


class TestJson:
    @pytest.mark.parametrize("model", [
        StateSpaceModel(A=0.5 * np.eye(2), B=np.eye(2),
                        C=np.eye(2), D=np.zeros((2, 2)), p=1, q=1),
        make_innovation(),
        make_triangular(),
        EstimatorModel(Atil=[[0.5]], Ktil=[[1.0]], Ctil=[[2.0]], D0=[[0.3]]),
        make_triangular_blocks(0, 2),
        make_empty_estimator(),
    ])
    def test_dict_round_trip(self, model):
        back = model_from_dict(model_to_dict(model))
        assert type(back) is type(model)
        d1, d2 = model_to_dict(model), model_to_dict(back)
        assert d1 == d2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(make_innovation(), path)
        back = load_model(path)
        assert np.allclose(back.A, make_innovation().A)
        # models with an empty block: "[]" reads back as the empty matrix
        for model in (make_triangular_blocks(0, 2), make_empty_estimator()):
            save_model(model, path)
            assert model_to_dict(load_model(path)) == model_to_dict(model)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"kind": "mystery"})

    def test_missing_field_rejected(self):
        doc = model_to_dict(make_innovation())
        del doc["Q"]
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = model_to_dict(make_innovation())
        doc["extra"] = 1
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_inconsistent_n_rejected(self):
        doc = model_to_dict(make_innovation())
        doc["n"] = 7
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("dim", ["p", "q"])
    def test_inconsistent_estimator_dims_rejected(self, dim):
        doc = model_to_dict(EstimatorModel(Atil=[[0.5]], Ktil=[[1.0]],
                                           Ctil=[[2.0]], D0=[[0.3]]))
        doc[dim] = 2
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_transposed_block_rejected(self):
        # right size, wrong shape: K12 is 2x1, given as 1x2
        t = make_triangular_blocks(2, 1)
        doc = model_to_dict(t)
        doc["K12"] = t.K12.T.tolist()
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)
        with pytest.raises(ValidationError):
            TriangularJointModel(**{**vars(t), "K12": t.K12.T})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
