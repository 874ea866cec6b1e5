"""Tests for the row-disturbance oracle (the Rowhammer failure model)."""

import pytest

from repro.dram.rowstate import RowDisturbanceModel


def make_model(trh=10, rows=100, blast_radius=1):
    return RowDisturbanceModel(num_rows=rows, trh=trh, blast_radius=blast_radius)


class TestActivation:
    def test_disturbs_both_neighbours(self):
        model = make_model()
        model.activate(50)
        assert model.disturbance(49) == 1.0
        assert model.disturbance(51) == 1.0

    def test_does_not_disturb_self(self):
        model = make_model()
        model.activate(50)
        assert model.disturbance(50) == 0.0

    def test_activation_restores_own_row(self):
        """An ACT is a full row cycle: it refreshes the activated row."""
        model = make_model()
        model.activate(49)  # disturbs 50
        assert model.disturbance(50) == 1.0
        model.activate(50)  # activating 50 restores it
        assert model.disturbance(50) == 0.0

    def test_edge_rows_have_one_neighbour(self):
        model = make_model()
        model.activate(0)
        assert model.disturbance(1) == 1.0
        # No row -1 to disturb; no crash either.

    def test_blast_radius_two(self):
        model = make_model(blast_radius=2)
        model.activate(50)
        for victim in (48, 49, 51, 52):
            assert model.disturbance(victim) == 1.0


class TestFlipDetection:
    def test_flip_at_threshold(self):
        model = make_model(trh=3)
        for _ in range(3):
            model.activate(50)
        assert model.any_flip
        assert model.flips[0].row in (49, 51)

    def test_no_flip_below_threshold(self):
        model = make_model(trh=3)
        for _ in range(2):
            model.activate(50)
        assert not model.any_flip

    def test_flip_records_each_row_once(self):
        model = make_model(trh=2)
        for _ in range(10):
            model.activate(50)
        flipped_rows = [flip.row for flip in model.flips]
        assert len(flipped_rows) == len(set(flipped_rows))

    def test_refresh_resets_disturbance(self):
        model = make_model(trh=3)
        model.activate(50)
        model.activate(50)
        model.refresh_row(51)
        model.activate(50)
        assert model.disturbance(51) == 1.0
        assert not any(flip.row == 51 for flip in model.flips)


class TestMitigation:
    def test_mitigate_refreshes_both_victims(self):
        model = make_model()
        model.activate(50)
        refreshed = model.mitigate(50)
        assert sorted(refreshed) == [49, 51]
        assert model.disturbance(49) == 0.0
        assert model.disturbance(51) == 0.0

    def test_mitigation_disturbs_distance_two(self):
        """The transitive (Half-Double) channel: victim refreshes are
        silent activations disturbing rows two away."""
        model = make_model()
        model.mitigate(50)
        assert model.disturbance(48) == 1.0
        assert model.disturbance(52) == 1.0

    def test_mitigation_self_consistent(self):
        # The two victim refreshes must not leave residue on each other
        # or on the refreshed rows themselves.
        model = make_model()
        model.mitigate(50)
        assert model.disturbance(49) == 0.0
        assert model.disturbance(51) == 0.0

    def test_repeated_mitigation_accumulates_transitively(self):
        model = make_model(trh=5)
        for _ in range(5):
            model.mitigate(50)
        assert any(flip.row in (48, 52) for flip in model.flips)


class TestQueries:
    def test_max_disturbance_empty(self):
        assert make_model().max_disturbance() == 0.0

    def test_most_disturbed_row(self):
        model = make_model()
        model.activate(10)
        model.activate(10)
        model.activate(20)
        assert model.most_disturbed_row() in (9, 11)

    def test_auto_refresh_all_clears(self):
        model = make_model()
        model.activate(10)
        model.auto_refresh_all()
        assert model.max_disturbance() == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_rows": 0, "trh": 10},
            {"num_rows": 10, "trh": 0},
            {"num_rows": 10, "trh": 10, "blast_radius": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RowDisturbanceModel(**kwargs)
