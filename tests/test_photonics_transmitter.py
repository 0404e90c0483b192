"""Unit tests for the ring ODAC and RAMZI transmitter models."""

import numpy as np
import pytest

from repro.errors import DeviceModelError
from repro.photonics import RAMZIModulator, RingResonatorODAC


class TestRingResonatorODAC:
    def test_six_bit_dac_has_64_levels(self):
        odac = RingResonatorODAC(bits=6)
        assert odac.num_levels == 64

    def test_code_to_field_is_monotonic(self):
        odac = RingResonatorODAC(bits=6, oma_penalty_db=0.0)
        fields = [odac.code_to_field(code) for code in range(odac.num_levels)]
        assert fields == sorted(fields)
        assert fields[0] == pytest.approx(0.0)
        assert fields[-1] == pytest.approx(1.0)

    def test_oma_penalty_limits_full_scale(self):
        odac = RingResonatorODAC(oma_penalty_db=4.0)
        assert odac.max_field_transmission == pytest.approx(10 ** (-4.0 / 20.0))

    def test_modulate_quantises_values(self):
        odac = RingResonatorODAC(bits=6, oma_penalty_db=0.0)
        values = np.linspace(0, 1, 17)
        modulated = odac.modulate(values)
        codes = modulated * 63
        assert np.allclose(codes, np.round(codes), atol=1e-9)

    def test_modulate_rejects_out_of_range(self):
        odac = RingResonatorODAC()
        with pytest.raises(DeviceModelError):
            odac.modulate(np.array([1.5]))
        for bad in ([np.nan], [0.5, np.nan], [np.nan, 0.5], [np.inf], [-np.inf, 0.5]):
            with pytest.raises(DeviceModelError):
                odac.modulate(np.array(bad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_modulate_into_codes_is_the_integer_drive_code(self, dtype):
        odac = RingResonatorODAC(bits=6)
        rng = np.random.default_rng(3)
        values = np.concatenate(
            [rng.uniform(0, 1, 500), (np.arange(63) + 0.5) / 63, [0.0, 1.0, -1e-12, 1 + 1e-12]]
        )
        expected = np.round(np.clip(values, 0.0, 1.0) * 63)
        codes = np.empty(values.shape, dtype)
        returned = odac.modulate(values.copy(), out=codes)
        assert returned is codes
        assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("oma_penalty_db", [0.0, 4.0])
    def test_codes_match_the_fields_they_modulate(self, oma_penalty_db):
        odac = RingResonatorODAC(bits=6, oma_penalty_db=oma_penalty_db)
        values = np.random.default_rng(4).uniform(0, 1, 1000)
        fields = odac.modulate(values)
        codes = odac.modulate(values.copy(), out=np.empty(values.shape, np.float32))
        assert np.array_equal(codes, np.rint(fields * 63 / odac.max_field_transmission))

    def test_modulate_into_codes_rejects_out_of_range(self):
        odac = RingResonatorODAC()
        for bad in ([1.0 + 2e-12], [-2e-12], [np.nan], [0.5, np.nan], [np.inf]):
            with pytest.raises(DeviceModelError):
                odac.modulate(np.array(bad), out=np.empty(len(bad), np.float32))

    def test_driver_power_matches_paper_number(self):
        odac = RingResonatorODAC(driver_energy_per_sample_j=168e-15, sample_rate_hz=10e9)
        assert odac.dynamic_power_w == pytest.approx(1.68e-3)
        assert odac.total_power_w == pytest.approx(1.68e-3 + 0.72e-3)

    def test_energy_for_samples(self):
        odac = RingResonatorODAC()
        assert odac.energy_for_samples(1e9) == pytest.approx(168e-15 * 1e9)
        with pytest.raises(DeviceModelError):
            odac.energy_for_samples(-1)

    def test_value_code_round_trip(self):
        odac = RingResonatorODAC(bits=6)
        for code in (0, 1, 31, 63):
            assert odac.value_to_code(code / 63) == code


class TestRAMZIModulator:
    def test_constant_phase_property(self):
        ramzi = RAMZIModulator()
        values = np.linspace(0, 1, 64)
        assert ramzi.phase_is_constant(values)

    def test_modulate_scales_with_excess_loss(self):
        lossless = RAMZIModulator(excess_loss_db=0.0)
        lossy = RAMZIModulator(excess_loss_db=1.0)
        values = np.array([1.0])
        assert lossy.modulate(values)[0] < lossless.modulate(values)[0]

    def test_power_and_area_scale_with_ring_count(self):
        two_rings = RAMZIModulator(num_rings=2)
        four_rings = RAMZIModulator(num_rings=4)
        assert four_rings.total_power_w == pytest.approx(2 * two_rings.total_power_w)
        assert four_rings.area_mm2 == pytest.approx(2 * two_rings.area_mm2)

    def test_rejects_bad_ring_count(self):
        with pytest.raises(DeviceModelError):
            RAMZIModulator(num_rings=0)
