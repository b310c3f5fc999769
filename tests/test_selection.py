"""Quantile rule, the three selection conditions, and the set algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coforget import selection
from coforget.config import MethodCfg
from coforget.errors import InputError


def _reference_selection_audit(path, train_ids, sets, audit) -> None:
    """The row-by-row selection audit writer, frozen as the reference for the
    bytes of selection.write_selection_audit."""
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "id,low_loss_scratch,loss_drop_scratch,low_loss_embed,loss_drop_embed,"
            "oracle_consistent,target_scratch,target_embed\n"
        )
        for i in np.asarray(train_ids, dtype=np.int64):
            i = int(i)
            fh.write(
                f"{i},{int(i in audit.low_scratch)},{int(i in audit.drop_scratch)},"
                f"{int(i in audit.low_embed)},{int(i in audit.drop_embed)},"
                f"{int(i in audit.consistent)},"
                f"{int(i in sets.targets_scratch)},{int(i in sets.targets_embed)}\n"
            )


class TestQuantileThreshold:
    def test_rank_rule_on_one_to_ten(self):
        values = np.arange(1.0, 11.0)
        thr = selection.quantile_threshold(values, 0.2)
        assert thr == 3.0
        assert set(np.flatnonzero(values < thr).tolist()) == {0, 1}

    def test_alpha_zero_is_minimum(self):
        values = np.array([4.0, 2.0, 9.0])
        assert selection.quantile_threshold(values, 0.0) == 2.0
        assert selection.cond_low_loss(values, 0.0) == set()

    def test_all_equal_selects_nothing(self):
        values = np.full(8, 3.3)
        assert selection.quantile_threshold(values, 0.5) == 3.3
        assert selection.cond_low_loss(values, 0.5) == set()

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            selection.quantile_threshold(np.array([]), 0.5)


class TestConditions:
    def test_low_loss_picks_the_single_low_value(self):
        losses = np.array([0.1, 5.0, 5.0, 5.0, 5.0])
        assert selection.cond_low_loss(losses, 0.2) == {0}

    def test_low_loss_count_on_distinct_values(self):
        rng = np.random.default_rng(0)
        losses = rng.permutation(np.linspace(0.1, 5.0, 10))
        assert len(selection.cond_low_loss(losses, 0.2)) == 2

    def test_loss_drop_picks_strongest_drop(self):
        prev = np.zeros(5)
        now = np.array([-0.5, -0.1, 0.2, 0.3, 0.4])
        assert selection.cond_loss_drop(now, prev, 0.2) == {0}

    def test_no_change_selects_nothing(self):
        now = np.array([1.0, 2.0, 3.0])
        assert selection.cond_loss_drop(now, now.copy(), 0.5) == set()

    def test_oracle_consistent_full_and_empty(self):
        labels = np.array([0, 1, 2])
        assert selection.cond_oracle_consistent(labels, labels) == {0, 1, 2}
        assert selection.cond_oracle_consistent((labels + 1) % 3, labels) == set()

    def test_oracle_consistent_hand_case(self):
        oracle_argmax = np.array([0, 1, 0, 2, 2])
        observed = np.array([0, 0, 0, 2, 1])
        assert selection.cond_oracle_consistent(oracle_argmax, observed) == {0, 2, 3}


class TestUnlearningSS:
    def test_forced_set_algebra(self):
        # D_pl={1,2}, D_drop={2,3}, consistent={3} -> {1,2}
        losses_now = np.array([5.0, 0.1, 0.2, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6])
        prev = losses_now.copy()
        prev[2] += 5.0
        prev[3] += 6.0
        d_pl = selection.cond_low_loss(losses_now, 0.2)
        d_drop = selection.cond_loss_drop(losses_now, prev, 0.2)
        assert d_pl == {1, 2}
        assert d_drop == {2, 3}
        oracle_argmax = np.zeros(10, dtype=np.int64)
        observed = np.ones(10, dtype=np.int64)
        observed[3] = 0  # only sample 3 is oracle consistent
        d_u, *_ = selection.unlearning_ss(losses_now, prev, oracle_argmax, observed, 0.2, 0.2)
        assert d_u == {1, 2}

    def test_consistency_superset_empties_selection(self):
        losses = np.linspace(0.1, 2.0, 10)
        prev = losses + 1.0
        labels = np.arange(10) % 3
        d_u, *_ = selection.unlearning_ss(losses, prev, labels, labels, 0.3, 0.3)
        assert d_u == set()

    def test_dropping_oracle_condition_never_shrinks_target(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(5, 40)
            now = rng.normal(size=n)
            prev = rng.normal(size=n)
            oracle_argmax = rng.integers(0, 3, n)
            observed = rng.integers(0, 3, n)
            with_f, *_ = selection.unlearning_ss(now, prev, oracle_argmax, observed, 0.2, 0.2)
            without_f, *_ = selection.unlearning_ss(
                now, prev, oracle_argmax, observed, 0.2, 0.2, oracle_consistent=False
            )
            assert with_f <= without_f


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p_low=st.floats(min_value=0.0, max_value=1.0),
    p_drop=st.floats(min_value=0.0, max_value=1.0),
)
def test_selection_identity_property(n, seed, p_low, p_drop):
    rng = np.random.default_rng(seed)
    now = rng.normal(size=n)
    prev = rng.normal(size=n)
    oracle_argmax = rng.integers(0, 4, n)
    observed = rng.integers(0, 4, n)
    d_u, d_pl, d_drop, d_cs = selection.unlearning_ss(
        now, prev, oracle_argmax, observed, p_low, p_drop
    )
    assert d_u == (d_pl | d_drop) - d_cs
    assert d_u.isdisjoint(d_cs)


class TestUnlearningSetup:
    @staticmethod
    def _losses(n):
        """(losses_now, losses_prev) per network, with the losses falling."""
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(2):
            prev = rng.normal(size=n) + 2.0
            pairs.append((rng.normal(size=n) + 1.0, prev))
        return tuple(pairs)

    def test_retained_pool_is_exact_complement(self):
        n = 10
        train_ids = np.arange(n)
        observed = np.zeros(n, dtype=np.int64)
        oracle_argmax = np.ones(n, dtype=np.int64)  # nothing protected
        sets, _ = selection.unlearning_setup(
            train_ids, observed, *self._losses(n), oracle_argmax,
            MethodCfg(p_low=0.2, p_drop=0.2),
        )
        union = set(sets.targets_scratch) | set(sets.targets_embed)
        assert set(sets.retained.tolist()) == set(range(n)) - union
        assert not union & set(sets.retained.tolist())

    def test_empty_targets_keep_full_pool(self):
        n = 6
        flat = (np.full(n, 1.0), np.full(n, 1.0))
        labels = np.arange(n, dtype=np.int64) % 2
        sets, _ = selection.unlearning_setup(
            np.arange(n), labels, flat, flat, labels,
            MethodCfg(p_low=0.05, p_drop=0.2),
        )
        assert sets.targets_scratch == frozenset() and sets.targets_embed == frozenset()
        assert np.array_equal(sets.retained, np.arange(n))

    def test_missing_checkpoint_raises(self):
        now = np.ones(4)
        with pytest.raises(InputError, match="expected 4 losses"):
            selection.unlearning_setup(
                np.arange(4), np.zeros(4, dtype=np.int64),
                (now, None), (now, now), np.zeros(4, dtype=np.int64),
                MethodCfg(p_low=0.2, p_drop=0.2),
            )

    @pytest.mark.parametrize("bad, match", [
        (np.ones(3), "expected 4 losses"),
        (np.ones((4, 1)), "expected 4 losses"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "finite"),
        (np.array([1.0, 1.0, np.inf, 1.0]), "finite"),
    ])
    @pytest.mark.parametrize("slot", range(4))
    def test_misaligned_or_non_finite_losses_raise(self, bad, match, slot):
        pairs = [np.ones(4)] * 4
        pairs[slot] = bad
        with pytest.raises(InputError, match=match):
            selection.unlearning_setup(
                np.arange(4), np.zeros(4, dtype=np.int64),
                tuple(pairs[:2]), tuple(pairs[2:]), np.zeros(4, dtype=np.int64),
                MethodCfg(p_low=0.2, p_drop=0.2),
            )

    def test_audit_file_round_trip(self, tmp_path):
        n = 8
        train_ids = np.arange(n)
        sets, audit = selection.unlearning_setup(
            train_ids, np.zeros(n, dtype=np.int64),
            *self._losses(n), np.ones(n, dtype=np.int64), MethodCfg(p_low=0.25, p_drop=0.25),
        )
        path = tmp_path / "audit.csv"
        selection.write_selection_audit(path, train_ids, sets, audit)
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1
        header = lines[0].split(",")
        du_col = header.index("target_scratch")
        flagged = {int(row.split(",")[0]) for row in lines[1:] if row.split(",")[du_col] == "1"}
        assert flagged == set(sets.targets_scratch)


@pytest.mark.parametrize("case", ["all-empty", "all-full", "no-ids", *range(6)])
def test_selection_audit_matches_row_by_row_writer(tmp_path, case):
    rng = np.random.default_rng(case if isinstance(case, int) else 99)
    n = 0 if case == "no-ids" else int(rng.integers(1, 60))
    train_ids = np.sort(rng.choice(200, size=n, replace=False)).astype(np.int64)
    if case == "all-empty":
        shares = [0.0] * 7
    elif case == "all-full":
        shares = [1.0] * 7
    else:
        shares = rng.choice([0.0, 0.05, 0.3, 0.8, 1.0], size=7)
    low_s, drop_s, low_e, drop_e, consistent, t_s, t_e = (
        set(train_ids[rng.random(n) < share].tolist()) for share in shares
    )
    sets = selection.SelectionSets(
        frozenset(t_s), frozenset(t_e), np.setdiff1d(train_ids, list(t_s | t_e))
    )
    audit = selection.SelectionAudit(low_s, drop_s, low_e, drop_e, consistent)
    selection.write_selection_audit(tmp_path / "new.csv", train_ids, sets, audit)
    _reference_selection_audit(tmp_path / "ref.csv", train_ids, sets, audit)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
