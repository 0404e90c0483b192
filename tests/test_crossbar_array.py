"""Unit tests for the analytical functional crossbar array."""

import math

import numpy as np
import pytest

from repro.config import TechnologyConfig
from repro.crossbar import CrossbarArray, design_input_coupling, design_output_coupling
from repro.errors import ProgrammingError, SimulationError


class TestCouplingDesign:
    def test_input_coupling_gives_equal_power_per_column(self):
        columns = 16
        k_in = design_input_coupling(columns)
        remaining = 1.0
        tapped = []
        for kappa in k_in:
            tapped.append(remaining * kappa)
            remaining *= 1.0 - kappa
        assert np.allclose(tapped, 1.0 / columns)
        assert k_in[-1] == pytest.approx(1.0)

    def test_output_coupling_gives_equal_weight_per_row(self):
        rows = 16
        k_out = design_output_coupling(rows)
        # Contribution of row i: sqrt(k_i) * prod_{l>i} sqrt(1 - k_l) must be 1/sqrt(N).
        contributions = []
        for i in range(rows):
            factor = math.sqrt(k_out[i])
            for later in range(i + 1, rows):
                factor *= math.sqrt(1.0 - k_out[later])
            contributions.append(factor)
        assert np.allclose(contributions, 1.0 / math.sqrt(rows))

    def test_rejects_bad_sizes(self):
        with pytest.raises(SimulationError):
            design_input_coupling(0)
        with pytest.raises(SimulationError):
            design_output_coupling(0)


class TestProgramming:
    def test_program_quantises_weights_to_64_levels(self):
        array = CrossbarArray(8, 8)
        rng = np.random.default_rng(0)
        weights = rng.uniform(0, 1, (8, 8))
        stored = array.program_weights(weights)
        codes = stored * 63
        assert np.allclose(codes, np.round(codes), atol=1e-9)
        assert np.max(np.abs(stored - weights)) <= 0.5 / 63 + 1e-12

    def test_programming_statistics_accumulate(self):
        array = CrossbarArray(4, 4)
        array.program_weights(np.zeros((4, 4)))
        array.program_weights(np.ones((4, 4)))
        stats = array.statistics()
        assert stats["programming_events"] == 2
        assert stats["programming_energy_j"] == pytest.approx(2 * 16 * 100e-12)
        assert stats["programming_time_s"] == pytest.approx(2 * 100e-9)

    def test_program_rejects_wrong_shape_and_range(self):
        array = CrossbarArray(4, 4)
        with pytest.raises(ProgrammingError):
            array.program_weights(np.zeros((4, 5)))
        with pytest.raises(ProgrammingError):
            array.program_weights(np.full((4, 4), 1.5))
        with pytest.raises(ProgrammingError):
            array.program_weights(np.full((4, 4), np.nan))

    def test_compute_requires_programming(self):
        array = CrossbarArray(4, 4)
        with pytest.raises(SimulationError):
            array.matvec(np.zeros(4))


class TestMatvec:
    def test_matvec_matches_quantised_reference(self):
        rng = np.random.default_rng(1)
        array = CrossbarArray(16, 12)
        weights = rng.uniform(0, 1, (16, 12))
        inputs = rng.uniform(0, 1, 16)
        array.program_weights(weights)
        result = array.matvec(inputs, quantize_output=False)
        reference = array.weights.T @ array.odac.modulate(inputs)
        assert np.allclose(result, reference, atol=1e-9)

    def test_output_quantisation_error_bounded_by_adc_lsb(self):
        rng = np.random.default_rng(2)
        array = CrossbarArray(32, 8)
        array.program_weights(rng.uniform(0, 1, (32, 8)))
        inputs = rng.uniform(0, 1, 32)
        quantised = array.matvec(inputs, quantize_output=True)
        analog = array.matvec(inputs, quantize_output=False)
        lsb = 32 / 63  # full scale = rows, 6-bit ADC
        assert np.max(np.abs(quantised - analog)) <= lsb / 2 + 1e-9

    def test_column_fields_follow_equation_1_scaling(self):
        array = CrossbarArray(8, 4, laser_field=2.0)
        array.program_weights(np.ones((8, 4)))
        fields = array.column_fields(np.ones(8))
        expected = 2.0 / (8 * math.sqrt(4)) * 8  # all weights and inputs at 1
        assert np.allclose(fields, expected)

    def test_matmul_streams_multiple_vectors(self):
        rng = np.random.default_rng(3)
        array = CrossbarArray(8, 8)
        array.program_weights(rng.uniform(0, 1, (8, 8)))
        inputs = rng.uniform(0, 1, (5, 8))
        outputs = array.matmul(inputs, quantize_output=False)
        assert outputs.shape == (5, 8)
        assert np.allclose(outputs[2], array.matvec(inputs[2], quantize_output=False))

    def test_input_shape_validation(self):
        array = CrossbarArray(8, 8)
        array.program_weights(np.zeros((8, 8)))
        with pytest.raises(SimulationError):
            array.matvec(np.zeros(7))
        with pytest.raises(SimulationError):
            array.matmul(np.zeros((3, 7)))

    def test_higher_output_precision_reduces_error(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(0, 1, (32, 8))
        inputs = rng.uniform(0, 1, 32)
        errors = []
        for bits in (4, 6, 8):
            tech = TechnologyConfig(output_bits=bits, accumulator_bits=24)
            array = CrossbarArray(32, 8, technology=tech)
            array.program_weights(weights)
            quantised = array.matvec(inputs, quantize_output=True)
            analog = array.matvec(inputs, quantize_output=False)
            errors.append(float(np.max(np.abs(quantised - analog))))
        assert errors[0] > errors[1] > errors[2]
