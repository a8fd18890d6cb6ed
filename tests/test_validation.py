from quantocds.validation import (
    SWEEP_HAZARD_HIGH,
    SWEEP_HAZARD_LOW,
    deviation_sweep,
    reference_deviation_pct,
)

COARSE = dict(gammas=(-0.5, 0.0, 0.5), rhos=(-0.9, 0.9), n_y=41, n_t_per_year=10)


class TestDeviationSweepReference:
    def test_low_hazard_cells_carry_the_table(self):
        cells = deviation_sweep(h=SWEEP_HAZARD_LOW, **COARSE)
        assert len(cells) == 18
        for c in cells:
            assert c.reference_pct == reference_deviation_pct(c.gamma, c.rho, c.tenor)

    def test_other_hazard_gets_no_reference(self):
        cells = deviation_sweep(h=SWEEP_HAZARD_HIGH, **COARSE)
        assert len(cells) == 18
        assert all(c.reference_pct is None for c in cells)
