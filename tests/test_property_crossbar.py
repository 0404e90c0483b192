"""Property-based tests for the functional crossbar and its coupling design."""

import math

import numpy as np
import pytest
import schedule_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.crossbar import CrossbarArray, design_input_coupling, design_output_coupling
from repro.errors import SimulationError
from repro.scalesim.latency import layer_makespan_s


class TestCouplingDesignProperties:
    @given(st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_input_coupling_distributes_power_equally(self, columns):
        k_in = design_input_coupling(columns)
        remaining = 1.0
        for kappa in k_in:
            tapped = remaining * kappa
            assert tapped == pytest.approx(1.0 / columns, rel=1e-9)
            remaining *= 1.0 - kappa
        assert remaining == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_output_coupling_weighs_all_rows_equally(self, rows):
        k_out = design_output_coupling(rows)
        # Work in log-space to stay accurate for large N.  Walking from the
        # bottom row upwards, `log_tail` accumulates the through-transmissions
        # a row's contribution must still traverse on its way to the detector.
        log_tail = 0.0
        contributions = []
        for i in reversed(range(rows)):
            contributions.append(0.5 * math.log(k_out[i]) + log_tail)
            if k_out[i] < 1.0:
                log_tail += 0.5 * math.log1p(-k_out[i])
        expected = -0.5 * math.log(rows)
        assert np.allclose(contributions, expected, atol=1e-9)


class TestCrossbarMatvecProperties:
    @given(
        st.integers(2, 24),
        st.integers(1, 16),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matvec_matches_quantised_linear_algebra(self, rows, columns, data):
        weights = data.draw(
            arrays(float, (rows, columns), elements=st.floats(0.0, 1.0, allow_nan=False))
        )
        inputs = data.draw(
            arrays(float, (rows,), elements=st.floats(0.0, 1.0, allow_nan=False))
        )
        array = CrossbarArray(rows, columns)
        array.program_weights(weights)
        analog = array.matvec(inputs, quantize_output=False)
        reference = array.weights.T @ array.odac.modulate(inputs)
        assert np.allclose(analog, reference, atol=1e-9)
        # Outputs are bounded by the array's physical full scale.
        quantised = array.matvec(inputs, quantize_output=True)
        assert np.all(quantised >= 0.0) and np.all(quantised <= rows + 1e-9)

    @given(st.integers(2, 16), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_zero_weights_or_inputs_give_zero_output(self, rows, columns):
        array = CrossbarArray(rows, columns)
        array.program_weights(np.zeros((rows, columns)))
        assert np.allclose(array.matvec(np.ones(rows), quantize_output=False), 0.0)
        array.program_weights(np.ones((rows, columns)))
        assert np.allclose(array.matvec(np.zeros(rows), quantize_output=False), 0.0)

    @given(st.integers(2, 12), st.integers(1, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_in_inputs(self, rows, columns, data):
        """Increasing any non-negative input never decreases any output."""
        weights = data.draw(
            arrays(float, (rows, columns), elements=st.floats(0.0, 1.0, allow_nan=False))
        )
        inputs = data.draw(
            arrays(float, (rows,), elements=st.floats(0.0, 0.9, allow_nan=False))
        )
        index = data.draw(st.integers(0, rows - 1))
        array = CrossbarArray(rows, columns)
        array.program_weights(weights)
        base = array.matvec(inputs, quantize_output=False)
        bumped_inputs = inputs.copy()
        bumped_inputs[index] = min(1.0, bumped_inputs[index] + 0.1)
        bumped = array.matvec(bumped_inputs, quantize_output=False)
        assert np.all(bumped >= base - 1e-12)


class TestDualCoreScheduleProperties:
    """The chip clock against the event-driven oracle, on identical tiles."""

    tiles = st.integers(1, 200)
    job_time = st.floats(0.0, 1e-6)
    cores = st.sampled_from((1, 2))

    @given(tiles, job_time, job_time)
    @settings(max_examples=60, deadline=None)
    def test_dual_core_between_half_and_full_single_core_time(self, tiles, programming, compute):
        single = layer_makespan_s(tiles, programming, compute, 1)
        dual = layer_makespan_s(tiles, programming, compute, 2)
        assert dual <= single * (1 + 1e-12)
        assert dual >= 0.5 * single * (1 - 1e-12)
        assert dual >= tiles * compute * (1 - 1e-12)

    @given(tiles, job_time, job_time, cores)
    @settings(max_examples=100, deadline=None)
    def test_clock_agrees_with_the_event_driven_oracle(
        self, tiles, programming, compute, num_cores
    ):
        expected = schedule_oracle.makespan_s([(programming, compute)] * tiles, num_cores)
        assert layer_makespan_s(tiles, programming, compute, num_cores) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    @given(
        tiles,
        job_time,
        st.floats(-1e-6, -1e-18),
        cores,
        st.integers(-4, 8).filter(lambda n: n not in (1, 2)),
    )
    @settings(max_examples=30, deadline=None)
    def test_clock_rejects_negative_times_and_bad_core_counts(
        self, tiles, good, bad, num_cores, bad_cores
    ):
        for programming, compute in ((bad, good), (good, bad)):
            with pytest.raises(SimulationError):
                layer_makespan_s(tiles, programming, compute, num_cores)
        with pytest.raises(SimulationError):
            layer_makespan_s(tiles, good, good, bad_cores)
