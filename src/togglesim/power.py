"""CMOS power models: switching (dynamic) power and leakage (static) power.

Dynamic power on a bus is tau * C_load * Vdd^n * f, with the activity
factor tau scaling the ideal every-cycle-switching dissipation. The voltage
exponent n defaults to 1; the conventional square-law form is available via
n = 2.

Static power is the subthreshold leakage current times the supply voltage,
leakage following the diode law i_s * (exp(qV / kT) - 1).

A power or current too large for a float raises ValueError; none is
returned as inf.
"""

from __future__ import annotations

import math

from .bits import Record

ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K

# exp() overflows doubles just above exp(709); reject clearly before that.
_MAX_EXPONENT = 700.0


def _check_positive(name: str, value: float) -> None:
    """Physical magnitudes must be real, positive and finite (no inf, no NaN)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_tau(tau: float) -> float:
    """Return tau if it is an activity factor in [0, 1]; raise ValueError if not."""
    if not 0.0 <= tau <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return tau


class DynamicPowerParams(Record):
    """Inputs of dynamic_power: load_capacitance in F, supply_voltage in V and
    frequency in Hz."""

    __slots__ = ("tau", "load_capacitance", "supply_voltage", "frequency", "voltage_exponent")

    def __init__(self, tau: float, load_capacitance: float, supply_voltage: float,
                 frequency: float, voltage_exponent: int = 1) -> None:
        check_tau(tau)
        _check_positive("load_capacitance", load_capacitance)
        _check_positive("supply_voltage", supply_voltage)
        _check_positive("frequency", frequency)
        if voltage_exponent not in (1, 2):
            raise ValueError(f"voltage_exponent must be 1 or 2, got {voltage_exponent}")
        super().__init__(tau, load_capacitance, supply_voltage, frequency, voltage_exponent)


class StaticPowerParams(Record):
    """Inputs of static_power: saturation_current in A, diode_voltage in V (may
    be zero or negative), temperature in K and supply_voltage in V."""

    __slots__ = ("saturation_current", "diode_voltage", "temperature", "supply_voltage")

    def __init__(self, saturation_current: float, diode_voltage: float,
                 temperature: float, supply_voltage: float) -> None:
        _check_positive("saturation_current", saturation_current)
        _check_finite("diode_voltage", diode_voltage)
        _check_positive("temperature", temperature)
        _check_positive("supply_voltage", supply_voltage)
        super().__init__(saturation_current, diode_voltage, temperature, supply_voltage)


def _check_result(name: str, value: float) -> float:
    """Return a computed magnitude if it is finite; an overflow raises ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows the float range")
    return value


def dynamic_power(p: DynamicPowerParams) -> float:
    """Average switching power in watts: tau * C * V^n * f."""
    try:
        watts = p.tau * p.load_capacitance * p.supply_voltage**p.voltage_exponent * p.frequency
    except OverflowError:  # float ** int raises where float * float gives inf
        watts = math.inf
    return _check_result("dynamic power", watts)


def leakage_current(saturation_current: float, voltage: float, temperature: float) -> float:
    """Subthreshold leakage in amperes: i_s * (exp(qV / kT) - 1)."""
    _check_positive("saturation_current", saturation_current)
    _check_finite("voltage", voltage)
    _check_positive("temperature", temperature)
    exponent = ELEMENTARY_CHARGE * voltage / (BOLTZMANN * temperature)
    if exponent > _MAX_EXPONENT:
        raise ValueError(
            f"qV/kT = {exponent:.1f} exceeds {_MAX_EXPONENT:.0f}; result would overflow"
        )
    return _check_result("leakage current", saturation_current * math.expm1(exponent))


def static_power(p: StaticPowerParams) -> float:
    """Leakage power in watts: leakage current times supply voltage.

    For a circuit of n devices, sum the per-device leakages first and scale
    a single call, or sum per-device static_power results.
    """
    return _check_result(
        "static power",
        leakage_current(p.saturation_current, p.diode_voltage, p.temperature)
        * p.supply_voltage,
    )


def thermal_voltage(temperature: float) -> float:
    """kT/q in volts; handy for choosing diode voltages in tests and CLIs."""
    _check_positive("temperature", temperature)
    return BOLTZMANN * temperature / ELEMENTARY_CHARGE
