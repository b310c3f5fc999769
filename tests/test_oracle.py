"""Synthetic oracle statistics, embeddings, and oracle-file validation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coforget import data, net, oracle
from coforget.errors import IngestionError
from test_data import PACKAGE_ERRORS, damaged


@pytest.fixture(scope="module")
def blob_ds():
    return data.make_blobs(4, 50, 3, 1.0, 0, test_per_class=10)


class TestSyntheticOracle:
    def test_perfect_accuracy_matches_true_labels(self, blob_ds):
        table = oracle.synthetic_oracle(blob_ds, 1.0, 0.9, 1)
        assert np.array_equal(table.argmax(), blob_ds.true_labels)

    def test_rows_are_probability_vectors(self, blob_ds):
        table = oracle.synthetic_oracle(blob_ds, 0.7, 0.6, 2)
        np.testing.assert_allclose(table.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(table.probs > 0)

    def test_chance_accuracy_at_lower_bound(self):
        ds = data.make_blobs(4, 2500, 2, 1.0, 3)
        table = oracle.synthetic_oracle(ds, 0.25, 0.5, 4)
        acc = (table.argmax() == ds.true_labels).mean()
        assert abs(acc - 0.25) < 0.02

    def test_empirical_accuracy_tracks_parameter(self):
        ds = data.make_blobs(5, 2000, 2, 1.0, 5)
        table = oracle.synthetic_oracle(ds, 0.8, 0.7, 6)
        acc = (table.argmax() == ds.true_labels).mean()
        assert abs(acc - 0.8) < 0.02

    def test_deterministic_and_training_independent(self, blob_ds):
        t1 = oracle.synthetic_oracle(blob_ds, 0.7, 0.6, 7)
        t2 = oracle.synthetic_oracle(blob_ds, 0.7, 0.6, 7)
        assert np.array_equal(t1.probs, t2.probs)


class TestEmbeddings:
    def test_deterministic(self, blob_ds):
        table = oracle.synthetic_oracle(blob_ds, 0.9, 0.8, 1)
        e1 = oracle.oracle_embeddings(blob_ds, table, 8, 2)
        e2 = oracle.oracle_embeddings(blob_ds, table, 8, 2)
        assert np.array_equal(e1, e2)

    def test_width(self, blob_ds):
        table = oracle.synthetic_oracle(blob_ds, 0.9, 0.8, 1)
        emb = oracle.oracle_embeddings(blob_ds, table, 11, 3)
        assert emb.shape == (blob_ds.n, 11)
        assert np.all(np.isfinite(emb))

    def test_probe_on_embeddings_beats_raw_features(self):
        # overlapping blobs: raw features are ambiguous, a strong oracle's
        # class direction makes the embedding linearly separable
        ds = data.make_blobs(3, 200, 4, 4.0, 10, test_per_class=100)
        table = oracle.synthetic_oracle(ds, 0.95, 0.8, 11)
        emb = oracle.oracle_embeddings(ds, table, 8, 12)

        def probe_accuracy(inputs):
            arch = net.Architecture((inputs.shape[1], 3))
            theta = net.init_params(arch, 13)
            opt = net.make_optimizer(arch, 0.1, 0.9, 0.0, 1000)
            tr, te = ds.train_ids(), ds.test_ids()
            onehot = np.eye(3)[ds.true_labels]
            rng = np.random.default_rng(14)
            for epoch in range(1, 101):
                order = tr[rng.permutation(tr.shape[0])]
                for i in range(0, order.shape[0], 64):
                    ids = order[i:i + 64]
                    _, grad = net.ce_value_grad(arch, theta, inputs[ids], onehot[ids])
                    theta, opt = net.sgd_step(theta, grad, opt, epoch)
            probs = net.predict_proba(arch, theta, inputs[te])
            return (probs.argmax(axis=1) == ds.true_labels[te]).mean()

        acc_emb = probe_accuracy(emb)
        acc_raw = probe_accuracy(ds.features)
        assert acc_emb > acc_raw


class TestOracleFile:
    def test_round_trip(self, tmp_path, blob_ds):
        table = oracle.synthetic_oracle(blob_ds, 0.7, 0.6, 1)
        path = tmp_path / "oracle.csv"
        oracle.save_oracle_file(table, path)
        back = oracle.load_oracle_file(path, expected_ids=range(blob_ds.n))
        assert np.array_equal(back.probs, table.probs)

    def test_non_stochastic_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text(
            "# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}\n"
            "2\n0,0.5,0.5\n1,0.5,0.3\n"
        )
        with pytest.raises(IngestionError, match=":4"):
            oracle.load_oracle_file(path)

    @pytest.mark.parametrize("row", ["1,nan,nan", "1,0.5,nan", "1,inf,0.5"])
    def test_non_finite_row_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "oracle.csv"
        path.write_text(
            "# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}\n"
            f"2\n0,0.5,0.5\n{row}\n"
        )
        with pytest.raises(IngestionError, match=r"oracle\.csv:4: .*finite"):
            oracle.load_oracle_file(path)

    def test_missing_ids_listed(self, tmp_path):
        path = tmp_path / "oracle.csv"
        rows = "".join(f"{i},0.6,0.4\n" for i in range(10) if i != 7)
        path.write_text("# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}\n2\n" + rows)
        with pytest.raises(IngestionError, match=r"\[7\]"):
            oracle.load_oracle_file(path, expected_ids=range(10))

    def test_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}\n2\n")
        with pytest.raises(IngestionError, match=r"oracle\.csv: no sample rows"):
            oracle.load_oracle_file(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text(
            "# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}\n"
            "2\n0,0.6,0.4\n0,0.6,0.4\n"
        )
        with pytest.raises(IngestionError, match="duplicate"):
            oracle.load_oracle_file(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_damaged_file_raises_only_package_errors(self, tmp_path, draw):
        ds = data.make_blobs(3, 4, 2, 1.0, 0, test_per_class=2)
        path = tmp_path / "oracle.csv"
        oracle.save_oracle_file(oracle.synthetic_oracle(ds, 0.7, 0.6, 1), path)
        path.write_text(damaged(draw.draw, path.read_text().splitlines()))
        expected = draw.draw(st.sampled_from([None, range(ds.n)]), label="expected_ids")
        try:
            table = oracle.load_oracle_file(path, expected_ids=expected)
        except PACKAGE_ERRORS:
            return
        assert table.n > 0 and np.all(np.isfinite(table.probs)) and np.all(table.probs >= 0)
        np.testing.assert_allclose(table.probs.sum(axis=1), 1.0, atol=1e-6)
