import math
import random

import pytest

from togglesim.power import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    DynamicPowerParams,
    StaticPowerParams,
    dynamic_power,
    leakage_current,
    static_power,
    thermal_voltage,
)


def exp_minus_one_series(x: float) -> float:
    # independent oracle: Taylor series of e^x - 1, converges fast for |x| <= 1
    term = x
    total = 0.0
    n = 1
    while abs(term) > 1e-30:
        total += term
        n += 1
        term *= x / n
    return total


class TestDynamicPower:
    def test_tau_one_reduces_to_cvf(self):
        p = DynamicPowerParams(1.0, 2.2e-12, 1.1, 5e8)
        assert dynamic_power(p) == 2.2e-12 * 1.1 * 5e8

    def test_quiet_bus_is_zero(self):
        p = DynamicPowerParams(0.0, 1e-12, 1.0, 1e6)
        assert dynamic_power(p) == 0.0

    def test_worked_product(self):
        p = DynamicPowerParams(0.25, 1e-12, 1.0, 1e6)
        assert dynamic_power(p) == pytest.approx(2.5e-7, rel=1e-12)

    def test_linearity_in_each_factor(self):
        rng = random.Random(11)
        for _ in range(50):
            tau = rng.uniform(0.01, 0.5)
            cap = rng.uniform(1e-13, 1e-11)
            freq = rng.uniform(1e5, 1e9)
            vdd = rng.uniform(0.5, 3.3)
            scale = rng.uniform(1.1, 2.0)
            base = dynamic_power(DynamicPowerParams(tau, cap, vdd, freq))
            for scaled in (
                DynamicPowerParams(min(tau * scale, 1.0), cap, vdd, freq),
                DynamicPowerParams(tau, cap * scale, vdd, freq),
                DynamicPowerParams(tau, cap, vdd, freq * scale),
            ):
                factor = (
                    min(tau * scale, 1.0) / tau
                    if scaled.tau != tau
                    else scale
                )
                assert dynamic_power(scaled) == pytest.approx(
                    base * factor, rel=1e-12
                )

    def test_square_law_voltage_exponent(self):
        rng = random.Random(12)
        for _ in range(50):
            vdd = rng.uniform(0.5, 3.3)
            scale = rng.uniform(1.1, 2.0)
            base = DynamicPowerParams(0.3, 1e-12, vdd, 1e8, voltage_exponent=2)
            scaled = DynamicPowerParams(0.3, 1e-12, vdd * scale, 1e8, voltage_exponent=2)
            assert dynamic_power(scaled) == pytest.approx(
                dynamic_power(base) * scale**2, rel=1e-12
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau=-0.1),
            dict(tau=1.5),
            dict(load_capacitance=0.0),
            dict(load_capacitance=-1e-12),
            dict(supply_voltage=0.0),
            dict(frequency=-1.0),
            dict(voltage_exponent=3),
            dict(tau=math.nan),
            dict(load_capacitance=math.inf),
            dict(supply_voltage=math.inf),
            dict(frequency=math.nan),
        ],
    )
    def test_invalid_params(self, kwargs):
        base = dict(tau=0.5, load_capacitance=1e-12, supply_voltage=1.0, frequency=1e6)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DynamicPowerParams(**base)

    @pytest.mark.parametrize(
        "vdd,exponent", [(1e200, 1), (1e300, 2)], ids=["product", "vdd-power"]
    )
    def test_overflow_raises(self, vdd, exponent):
        p = DynamicPowerParams(1.0, 1e200, vdd, 1e10, voltage_exponent=exponent)
        with pytest.raises(ValueError, match="dynamic power overflows"):
            dynamic_power(p)


class TestLeakageCurrent:
    def test_zero_voltage(self):
        assert leakage_current(1e-12, 0.0, 300.0) == 0.0

    def test_equals_saturation_at_ln2_thermal(self):
        v = thermal_voltage(300.0) * math.log(2)
        assert leakage_current(1e-12, v, 300.0) == pytest.approx(1e-12, rel=1e-12)

    def test_strongly_negative_asymptote(self):
        v = -40 * thermal_voltage(300.0)
        assert leakage_current(1e-12, v, 300.0) == pytest.approx(-1e-12, rel=1e-15)

    def test_overflow_guarded(self):
        # qV/kT just above 700 must be rejected, not overflow
        v = 701 * thermal_voltage(300.0)
        with pytest.raises(ValueError, match="exceed"):
            leakage_current(1e-12, v, 300.0)

    def test_monotonic_in_voltage(self):
        vt = thermal_voltage(300.0)
        samples = [leakage_current(1e-12, k * vt / 4, 300.0) for k in range(-20, 21)]
        assert all(a < b for a, b in zip(samples, samples[1:]))

    def test_agrees_with_series_for_small_arguments(self):
        rng = random.Random(13)
        vt = thermal_voltage(300.0)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0)
            got = leakage_current(1e-9, x * vt, 300.0)
            want = 1e-9 * exp_minus_one_series(x)
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            leakage_current(0.0, 0.1, 300.0)
        with pytest.raises(ValueError):
            leakage_current(1e-12, 0.1, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.inf, 0.1, 300.0),
            (math.nan, 0.1, 300.0),
            (1e-12, 0.1, math.inf),
            (1e-12, math.nan, 300.0),
            (1e-12, -math.inf, 300.0),
        ],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            leakage_current(*args)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_thermal_voltage_needs_positive_finite_temperature(self, temperature):
        with pytest.raises(ValueError):
            thermal_voltage(temperature)


class TestStaticPower:
    def test_zero_diode_voltage(self):
        p = StaticPowerParams(1e-12, 0.0, 300.0, 1.2)
        assert static_power(p) == 0.0

    def test_direct_product(self):
        # pick V so the leakage is exactly i_s, then P = i_s * Vdd
        v = thermal_voltage(300.0) * math.log(2)
        p = StaticPowerParams(1e-12, v, 300.0, 1.2)
        assert static_power(p) == pytest.approx(1.2e-12, rel=1e-12)

    def test_linear_in_supply_voltage(self):
        v = thermal_voltage(350.0) * 3.0
        low = StaticPowerParams(2e-12, v, 350.0, 0.9)
        high = StaticPowerParams(2e-12, v, 350.0, 1.8)
        assert static_power(high) == pytest.approx(2 * static_power(low), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(saturation_current=0.0),
            dict(temperature=-10.0),
            dict(supply_voltage=0.0),
            dict(saturation_current=math.inf),
            dict(temperature=math.inf),
            dict(supply_voltage=math.nan),
            dict(diode_voltage=math.inf),
            dict(diode_voltage=-math.inf),
            dict(diode_voltage=math.nan),
        ],
    )
    def test_invalid_params(self, kwargs):
        base = dict(
            saturation_current=1e-12, diode_voltage=0.1, temperature=300.0,
            supply_voltage=1.2,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            StaticPowerParams(**base)

    @pytest.mark.parametrize(
        "diode_voltage,quantity",
        [(0.5, "leakage current"), (0.01, "static power")],
        ids=["leakage", "product"],
    )
    def test_overflow_raises(self, diode_voltage, quantity):
        p = StaticPowerParams(1e300, diode_voltage, 300.0, 1e300)
        with pytest.raises(ValueError, match=f"{quantity} overflows"):
            static_power(p)

    def test_negative_diode_voltage_allowed(self):
        p = StaticPowerParams(1e-12, -40 * thermal_voltage(300.0), 300.0, 1.0)
        assert static_power(p) == pytest.approx(-1e-12, rel=1e-15)


def test_physical_constants_are_exact_si():
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert BOLTZMANN == 1.380649e-23
