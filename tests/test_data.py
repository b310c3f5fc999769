"""Dataset generation, noise models, injection statistics, file round-trip."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coforget import data, errors
from coforget.errors import IngestionError, InputError

TOL = 1e-6
PACKAGE_ERRORS = (errors.ConfigurationError, errors.InputError, errors.StateError,
                  errors.IngestionError)
BAD_CELLS = ("nan", "-nan", "inf", "-inf", "1e999", "", " ", "x", "-1", "1.5", "0x1")


def damaged(draw, lines):
    """The text of a file's lines after one to four random faults: a line
    dropped, the file cut inside a line, two cells swapped (within a row or
    across rows), or a cell overwritten with a bad value."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4), label="n_faults")):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1), label="line")
        kind = draw(st.sampled_from(["drop", "cut", "swap", "bad"]), label="kind")
        if kind == "drop":
            del lines[i]
        elif kind == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])), label="keep")]
            del lines[i + 1:]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1), label="other_line")
            rows = {i: lines[i].split(","), j: lines[j].split(",")}
            a = draw(st.integers(0, len(rows[i]) - 1), label="cell")
            b = draw(st.integers(0, len(rows[j]) - 1), label="other_cell")
            rows[i][a], rows[j][b] = rows[j][b], rows[i][a]
            for k, cells in rows.items():
                lines[k] = ",".join(cells)
        else:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1), label="cell")] = draw(
                st.sampled_from(BAD_CELLS), label="value")
            lines[i] = ",".join(cells)
    return "".join(line + "\n" for line in lines)


class TestMakeBlobs:
    def test_deterministic_per_seed(self):
        a = data.make_blobs(2, 1, 2, 1.0, 42)
        b = data.make_blobs(2, 1, 2, 1.0, 42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_counts_balanced(self):
        ds = data.make_blobs(3, 100, 2, 1.0, 0)
        assert ds.n == 300
        assert np.all(np.bincount(ds.true_labels, minlength=3) == 100)
        assert np.array_equal(ds.observed_labels, ds.true_labels)

    def test_small_spread_shrinks_within_class_variance(self):
        spreads = []
        for seed in range(5):
            ds = data.make_blobs(3, 200, 4, 0.05, seed)
            cents = data.class_centroids(ds)
            resid = ds.features - cents[ds.true_labels]
            spreads.append(resid.var())
        wide = data.make_blobs(3, 200, 4, 2.0, 0)
        cents = data.class_centroids(wide)
        wide_var = (wide.features - cents[wide.true_labels]).var()
        assert max(spreads) < 0.01 * wide_var

    def test_test_split_carries_no_noise(self):
        ds = data.make_blobs(3, 50, 2, 1.0, 1, test_per_class=20)
        t = data.symmetric_matrix(3, 0.8)
        noisy = data.inject_noise(ds, t, 2)
        te = noisy.test_ids()
        assert np.array_equal(noisy.observed_labels[te], noisy.true_labels[te])


class TestTransitionMatrices:
    def test_symmetric_eta_zero_is_identity(self):
        np.testing.assert_array_equal(data.symmetric_matrix(10, 0.0), np.eye(10))

    def test_symmetric_formula(self):
        t = data.symmetric_matrix(10, 0.5)
        np.testing.assert_allclose(np.diag(t), 0.5, atol=TOL)
        off = t[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, 0.5 / 9, atol=TOL)

    def test_symmetric_two_class(self):
        np.testing.assert_allclose(
            data.symmetric_matrix(2, 0.9), [[0.1, 0.9], [0.9, 0.1]], atol=TOL
        )

    def test_asymmetric_eta_zero_is_identity(self):
        np.testing.assert_array_equal(data.asymmetric_matrix(3, 0.0, [1, 2, 0]), np.eye(3))

    def test_asymmetric_pairs(self):
        t = data.asymmetric_matrix(2, 0.4, [1, 0])
        np.testing.assert_allclose(t, [[0.6, 0.4], [0.4, 0.6]], atol=TOL)

    def test_rows_stochastic(self):
        for t in (
            data.symmetric_matrix(7, 0.35),
            data.asymmetric_matrix(5, 0.25, [1, 2, 3, 4, 0]),
        ):
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(t >= 0)


class TestInjection:
    def test_identity_matrix_changes_nothing(self):
        ds = data.make_blobs(4, 50, 3, 1.0, 3)
        out = data.inject_noise(ds, np.eye(4), 0)
        assert np.array_equal(out.observed_labels, out.true_labels)

    def test_features_and_true_labels_preserved(self):
        ds = data.make_blobs(3, 100, 4, 1.0, 5)
        out = data.inject_noise(ds, data.symmetric_matrix(3, 0.5), 9)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.true_labels, ds.true_labels)

    def test_symmetric_flip_rate(self):
        ds = data.make_blobs(10, 1000, 2, 1.0, 7)
        out = data.inject_noise(ds, data.symmetric_matrix(10, 0.5), 11)
        tr = out.train_ids()
        rate = (out.observed_labels[tr] != out.true_labels[tr]).mean()
        assert abs(rate - 0.5) < 0.02

    def test_asymmetric_mass_only_on_designated_pairs(self):
        pair = [1, 2, 0]
        ds = data.make_blobs(3, 500, 2, 1.0, 2)
        out = data.inject_noise(ds, data.asymmetric_matrix(3, 0.4, pair), 3)
        tr = out.train_ids()
        flipped = out.observed_labels[tr] != out.true_labels[tr]
        targets = np.array(pair)[out.true_labels[tr][flipped]]
        assert np.array_equal(out.observed_labels[tr][flipped], targets)

    def test_class_count_mismatch_rejected(self):
        ds = data.make_blobs(3, 10, 2, 1.0, 0)
        with pytest.raises(InputError):
            data.inject_noise(ds, data.symmetric_matrix(4, 0.2), 0)

    def test_empirical_transition_converges(self):
        # max-entry deviation within 3/sqrt(n_per_class * C) on ten seeds
        n_per_class, c, eta = 800, 5, 0.1
        bound = 3.0 / np.sqrt(n_per_class * c)
        t = data.symmetric_matrix(c, eta)
        for seed in range(10):
            ds = data.make_blobs(c, n_per_class, 2, 1.0, seed)
            out = data.inject_noise(ds, t, seed + 100)
            tr = out.train_ids()
            emp = data.empirical_transition(out.true_labels[tr], out.observed_labels[tr], c)
            assert np.abs(emp.matrix - t).max() <= bound


class TestInstanceNoise:
    def test_eta_zero_no_flips(self):
        ds = data.make_blobs(3, 100, 4, 1.5, 1)
        out = data.instance_noise(ds, 0.0, 2)
        assert np.array_equal(out.observed_labels, out.true_labels)

    def test_overall_rate_near_eta(self):
        ds = data.make_blobs(3, 2000, 4, 2.0, 3)
        out = data.instance_noise(ds, 0.3, 4)
        tr = out.train_ids()
        rate = (out.observed_labels[tr] != out.true_labels[tr]).mean()
        assert abs(rate - 0.3) < 0.05

    def test_boundary_samples_flip_more(self):
        # flipped samples sit closer to the competing centroid, on every seed
        for seed in range(5):
            ds = data.make_blobs(3, 800, 4, 2.0, seed)
            out = data.instance_noise(ds, 0.3, seed + 50)
            tr = out.train_ids()
            cents = data.class_centroids(ds)
            x, y = ds.features[tr], ds.true_labels[tr]
            dists = np.linalg.norm(x[:, None, :] - cents[None, :, :], axis=2)
            d_own = dists[np.arange(len(tr)), y]
            masked = dists.copy()
            masked[np.arange(len(tr)), y] = np.inf
            closeness = d_own / (d_own + masked.min(axis=1))
            flipped = out.observed_labels[tr] != out.true_labels[tr]
            assert closeness[flipped].mean() > closeness[~flipped].mean()

    def test_flips_target_nearest_other_class(self):
        ds = data.make_blobs(4, 300, 3, 1.5, 9)
        out = data.instance_noise(ds, 0.4, 10)
        tr = out.train_ids()
        cents = data.class_centroids(ds)
        x, y = ds.features[tr], ds.true_labels[tr]
        dists = np.linalg.norm(x[:, None, :] - cents[None, :, :], axis=2)
        masked = dists.copy()
        masked[np.arange(len(tr)), y] = np.inf
        nearest_other = masked.argmin(axis=1)
        flipped = out.observed_labels[tr] != out.true_labels[tr]
        assert np.array_equal(out.observed_labels[tr][flipped], nearest_other[flipped])


class TestEmpiricalTransition:
    def test_identity_when_clean(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        emp = data.empirical_transition(y, y, 3)
        np.testing.assert_array_equal(emp.matrix, np.eye(3))

    def test_hand_counts(self):
        true = np.array([0, 0, 1, 1])
        obs = np.array([0, 1, 1, 1])
        emp = data.empirical_transition(true, obs, 2)
        np.testing.assert_allclose(emp.matrix, [[0.5, 0.5], [0.0, 1.0]], atol=TOL)

    def test_unseen_rows_uniform(self):
        emp = data.empirical_transition([0, 0], [0, 1], 3)
        np.testing.assert_allclose(emp.matrix, [[0.5, 0.5, 0.0], [1 / 3] * 3, [1 / 3] * 3], atol=TOL)


class TestDatasetFile:
    def test_round_trip_exact(self, tmp_path):
        ds = data.make_blobs(3, 20, 4, 1.3, 11, test_per_class=5)
        ds = data.inject_noise(ds, data.symmetric_matrix(3, 0.4), 12)
        path = tmp_path / "blobs.csv"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.array_equal(back.observed_labels, ds.observed_labels)
        assert np.array_equal(back.is_test, ds.is_test)
        assert back.n_classes == ds.n_classes

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = data.make_blobs(2, 10, 3, 0.8, 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_dataset(ds, p1)
        data.save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_names_line(self, tmp_path):
        ds = data.make_blobs(2, 3, 2, 1.0, 0)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = "1,train,0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=":4"):
            data.load_dataset(path)

    @staticmethod
    def _saved(tmp_path):
        ds = data.make_blobs(3, 4, 2, 1.0, 0, test_per_class=2)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("line_no, row", [
        (4, "1,train,7,0,0.5,0.5"),
        (4, "1,train,0,-1,0.5,0.5"),
        (5, "2,train,0,3,0.5,0.5"),
        (14, "11,test,1,2,0.5,0.5"),
        (4, "1,train,0,0,nan,0.5"),
        (6, "3,train,0,0,0.5,inf"),
        (9, "6,train,0,0,-inf,0.5"),
        (4, "1,train,99999999999999999999999,0,0.5,0.5"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, line_no, row):
        path, lines = self._saved(tmp_path)
        lines[line_no - 1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:{line_no}: "):
            data.load_dataset(path)

    @pytest.mark.parametrize("header", ["3,0,14", "3,2,-1", "0,2,14"])
    def test_bad_sizes_name_line_two(self, tmp_path, header):
        path, lines = self._saved(tmp_path)
        lines[1] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:2: "):
            data.load_dataset(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_damaged_file_raises_only_package_errors(self, tmp_path, draw):
        path, lines = self._saved(tmp_path)
        path.write_text(damaged(draw.draw, lines))
        try:
            ds = data.load_dataset(path)
        except PACKAGE_ERRORS:
            return
        assert np.all(np.isfinite(ds.features))
        for labels in (ds.true_labels, ds.observed_labels):
            assert np.all((labels >= 0) & (labels < ds.n_classes))
        assert np.array_equal(ds.true_labels[ds.is_test], ds.observed_labels[ds.is_test])
