"""CMOS power models: switching (dynamic) power and leakage (static) power.

Dynamic power on a bus is tau * C_load * Vdd^n * f, with the activity
factor tau scaling the ideal every-cycle-switching dissipation. The voltage
exponent n defaults to 1; the conventional square-law form is available via
n = 2.

Static power is the subthreshold leakage current times the supply voltage,
leakage following the diode law i_s * (exp(qV / kT) - 1).

One overflow rule, `_unless_overflow`, covers all three quantities: one too
large for a float raises ValueError naming it, and none is returned as inf.
qV/kT is V/T times q/k, so a temperature too small for k*T is an overflow,
not a zero divisor. `cmd_power` is the `power` command's body.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from . import UsageError, stdio
from .bits import Record

ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K


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


class DynamicPowerParams(Record, namedtuple("DynamicPowerParams", "tau load_capacitance "
                                            "supply_voltage frequency voltage_exponent",
                                            defaults=[1])):
    """Inputs of dynamic_power: load_capacitance in F, supply_voltage in V and
    frequency in Hz."""

    __slots__ = ()

    def __new__(cls, tau: float, load_capacitance: float, supply_voltage: float,
                frequency: float, voltage_exponent: int = 1) -> DynamicPowerParams:
        check_tau(tau)
        _check_positive("load_capacitance", load_capacitance)
        _check_positive("supply_voltage", supply_voltage)
        _check_positive("frequency", frequency)
        if voltage_exponent not in (1, 2):
            raise ValueError(f"voltage_exponent must be 1 or 2, got {voltage_exponent}")
        return super().__new__(cls, tau, load_capacitance, supply_voltage, frequency,
                               voltage_exponent)


class StaticPowerParams(Record, namedtuple("StaticPowerParams", "saturation_current "
                                           "diode_voltage temperature supply_voltage")):
    """Inputs of static_power: saturation_current in A, diode_voltage in V (may
    be zero or negative), temperature in K and supply_voltage in V."""

    __slots__ = ()

    def __new__(cls, saturation_current: float, diode_voltage: float,
                temperature: float, supply_voltage: float) -> StaticPowerParams:
        _check_positive("saturation_current", saturation_current)
        _check_finite("diode_voltage", diode_voltage)
        _check_positive("temperature", temperature)
        _check_positive("supply_voltage", supply_voltage)
        return super().__new__(cls, saturation_current, diode_voltage, temperature,
                               supply_voltage)


def _unless_overflow(name: str, quantity: Callable[[], float]) -> float:
    """Return quantity(); one that overflows the float range raises ValueError."""
    try:
        value = quantity()
    except OverflowError:  # float ** int and math.expm1 raise where float * float gives inf
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows the float range")
    return value


def dynamic_power(p: DynamicPowerParams) -> float:
    """Average switching power in watts: tau * C * V^n * f."""
    return _unless_overflow("dynamic power", lambda: (
        p.tau * p.load_capacitance * p.supply_voltage**p.voltage_exponent * p.frequency))


def leakage_current(saturation_current: float, voltage: float, temperature: float) -> float:
    """Subthreshold leakage in amperes: i_s * (exp(qV / kT) - 1)."""
    _check_positive("saturation_current", saturation_current)
    _check_finite("voltage", voltage)
    _check_positive("temperature", temperature)
    exponent = voltage / temperature * (ELEMENTARY_CHARGE / BOLTZMANN)
    return _unless_overflow("leakage current",
                            lambda: saturation_current * math.expm1(exponent))


def static_power(p: StaticPowerParams) -> float:
    """Leakage power in watts: leakage current times supply voltage.

    For a circuit of n devices, sum the per-device leakages first and scale
    a single call, or sum per-device static_power results.
    """
    current = leakage_current(p.saturation_current, p.diode_voltage, p.temperature)
    return _unless_overflow("static power", lambda: current * p.supply_voltage)


def thermal_voltage(temperature: float) -> float:
    """kT/q in volts; handy for choosing diode voltages in tests and CLIs."""
    _check_positive("temperature", temperature)
    return BOLTZMANN * temperature / ELEMENTARY_CHARGE


def cmd_power(args) -> None:
    """The `power` command: print the power its parsed command line describes."""
    if (args.tau is None) == (args.from_report is None):
        raise UsageError("exactly one of --tau or --from-report is required")
    tau = args.tau
    if args.from_report is not None:
        import json  # here, not at the top: --tau reads no report

        try:
            if args.from_report == "-":  # stdin, as analyze - reads it
                payload = json.load(stdio("stdin"))
            else:
                with open(args.from_report, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            tau = payload["tau"]
            if isinstance(tau, bool) or not isinstance(tau, (int, float)):
                raise TypeError(f"tau must be a JSON number, got {json.dumps(tau)}")
            tau = check_tau(float(tau))
        except (OSError, OverflowError, RecursionError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cannot read tau from {args.from_report}: {exc}")  # exit 3
    try:
        params = DynamicPowerParams(tau=tau, load_capacitance=args.cap, supply_voltage=args.vdd,
                                    frequency=args.freq, voltage_exponent=args.vdd_exponent)
        powers = [("dynamic power", dynamic_power(params))]
        if args.isat is not None or args.vdiode is not None:
            if args.isat is None or args.vdiode is None:
                raise UsageError("static power needs both --isat and --vdiode")
            sp = StaticPowerParams(saturation_current=args.isat, diode_voltage=args.vdiode,
                                   temperature=args.temp, supply_voltage=args.vdd)
            powers.append(("static power", static_power(sp)))
    except ValueError as exc:
        raise UsageError(str(exc))
    for name, watts in powers:
        if not math.isfinite(watts * 1e6):
            raise UsageError(f"{name} of {watts:.6g} W overflows the float range in uW")
    for name, watts in powers:
        watts += 0.0  # IEEE -0.0 + 0.0 is 0.0: a -0 tau or vdiode prints 0, not -0
        print(f"{name + ':':15}{watts:.6g} W ({watts * 1e6:.6g} uW)")
