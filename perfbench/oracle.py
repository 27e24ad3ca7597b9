"""Plain-int reference for every number the benchmark checks.

Written from the documented conventions (bit 0 is the LSB; registers shift
toward the LSB; tap t is bit t-1; a CA cell's left neighbour is bit i+1),
not from the program, and it never imports togglesim. Words are ints.
"""

from __future__ import annotations


def galois(seed: int, width: int, taps, cycles: int) -> list[int]:
    """Internal LFSR: the exiting LSB re-enters at the MSB and XORs into tap t-1."""
    mask = 1 << (width - 1)
    for t in taps:
        if t != width:
            mask |= 1 << (t - 1)
    words = [seed]
    v = seed
    for _ in range(cycles):
        v = (v >> 1) ^ mask if v & 1 else v >> 1
        words.append(v)
    return words


def fibonacci(seed: int, width: int, taps, cycles: int) -> list[int]:
    """External LFSR: the parity of the tapped bits enters the vacated MSB."""
    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    words = [seed]
    v = seed
    for _ in range(cycles):
        v = (v >> 1) | (((v & mask).bit_count() & 1) << (width - 1))
        words.append(v)
    return words


def cellular(seed: int, width: int, rule: int, boundary: str, cycles: int) -> list[int]:
    """Rule 90 (left ^ right) or rule 150 (left ^ self ^ right) register."""
    full = (1 << width) - 1
    words = [seed]
    v = seed
    for _ in range(cycles):
        left = v >> 1
        right = (v << 1) & full
        if boundary == "cyclic":
            left |= (v & 1) << (width - 1)
            right |= v >> (width - 1)
        v = left ^ right if rule == 90 else left ^ v ^ right
        words.append(v)
    return words


def counter(start: int, width: int, words: int) -> list[int]:
    """Binary address counter wrapping at 2^width."""
    full = (1 << width) - 1
    return [(start + i) & full for i in range(words)]


def gray(values: list[int]) -> list[int]:
    return [v ^ (v >> 1) for v in values]


def bus_invert(values: list[int], width: int) -> list[int]:
    """Stan & Burleson bus-invert: drive the complement, invert line high, when
    more than half the data lines would flip. The invert line is bit `width`."""
    full = (1 << width) - 1
    line, invert = values[0], 0
    out = [line]
    for raw in values[1:]:
        if 2 * (line ^ raw).bit_count() > width:
            line, invert = raw ^ full, 1
        else:
            line, invert = raw, 0
        out.append((invert << width) | line)
    return out


def transitions(values: list[int], width: int) -> tuple[int, list[int]]:
    """Total XOR-popcount transitions and per-bit toggle counts.

    Per-bit toggles use a bit-sliced counter: planes[k] holds bit k of every
    line's running count, and each XOR word is added to all lines at once.
    """
    total = 0
    planes: list[int] = []
    prev = values[0]
    for cur in values[1:]:
        carry = prev ^ cur
        prev = cur
        total += carry.bit_count()
        k = 0
        while carry:
            if k == len(planes):
                planes.append(0)
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
            k += 1
    toggles = [
        sum(((plane >> bit) & 1) << k for k, plane in enumerate(planes))
        for bit in range(width)
    ]
    if sum(toggles) != total:
        raise AssertionError("oracle per-bit toggles disagree with the total")
    return total, toggles


class Report:
    """Exact activity of one trace: total, per-bit toggles and tau."""

    def __init__(self, values: list[int], width: int):
        self.width = width
        self.transfers = len(values) - 1
        self.total, self.toggles = transitions(values, width)
        self.tau = self.total / (width * self.transfers)

    def tau_display(self, decimals: int = 2) -> str:
        """Half-up rounding of total / (width * transfers), in integers."""
        den = self.width * self.transfers
        scale = 10**decimals
        scaled = (2 * self.total * scale + den) // (2 * den)
        return f"{scaled // scale}.{scaled % scale:0{decimals}d}"

    def table(self) -> str:
        toggles = " ".join(
            f"bit{i}={self.toggles[i]}" for i in reversed(range(self.width))
        )
        return (
            f"lines               {self.width}\n"
            f"transfers           {self.transfers}\n"
            f"total transitions   {self.total}\n"
            f"switching activity  {self.tau_display()}\n"
            f"per-bit toggles     {toggles}\n"
        )

    def csv(self) -> str:
        rows = ["line,toggles,width,transfers,tau"]
        rows += [f"bit{i},{c},,," for i, c in enumerate(self.toggles)]
        rows.append(f"summary,{self.total},{self.width},{self.transfers},{self.tau!r}")
        return "\n".join(rows) + "\n"

    def json(self) -> dict:
        """The `analyze --format json` payload; its key set is part of the contract."""
        return {
            "width": self.width,
            "transfers": self.transfers,
            "total_transitions": self.total,
            "tau": self.tau,
            "tau_display": float(self.tau_display()),
            "per_bit_toggles": self.toggles,
        }


def render_trace(values: list[int], width: int, radix: str) -> str:
    if radix == "bin":
        body = [format(v, f"0{width}b") for v in values]
    else:
        body = [format(v, f"0{(width + 3) // 4}X") for v in values]
    return "\n".join([f"width={width} radix={radix}", *body]) + "\n"


def probe_summary(values: list[int], width: int, power: dict) -> dict:
    """What the probe_replay child reports: probe totals, three activity
    reports, the gray reduction and the dynamic power of each trace."""
    raw = Report(values, width)
    reports = {
        "raw": raw,
        "gray": Report(gray(values), width),
        "businvert": Report(bus_invert(values, width), width + 1),
    }
    weighted = sum(
        i * (a ^ b).bit_count() for i, (a, b) in enumerate(zip(values, values[1:]), 1)
    )
    return {
        "probe": {
            "records": len(values),
            "final_total": raw.total,
            "weighted_sum": weighted,
            "last_dataout": values[-2],
        },
        "reports": {
            name: {"total": r.total, "toggles": r.toggles, "tau": r.tau}
            for name, r in reports.items()
        },
        "gray_reduction": {
            "relative_reduction": (raw.tau - reports["gray"].tau) / raw.tau,
            "transitions_delta": raw.total - reports["gray"].total,
        },
        "power_w": {  # tau * C * V^1 * f, in the program's order of operations
            name: r.tau * power["cap"] * power["vdd"] * power["freq"]
            for name, r in reports.items()
        },
    }


REFERENCE_SEED = 0b1011001010110110
REFERENCE_TAPS = (16, 14, 13, 11)


def table_counts() -> dict:
    """Transition counts `togglesim tables` must compute: the four address
    counters over a full period from zero, and the four stock generators
    from the reference seed over 8, 16 and 32 transfers."""
    counters = {}
    for width in (4, 8):
        binary = counter(0, width, 1 << width)
        counters[f"binary{width}"] = transitions(binary, width)[0]
        counters[f"gray{width}"] = transitions(gray(binary), width)[0]
    generators = {}
    for name, run in (
        ("lfsr_internal", lambda n: galois(REFERENCE_SEED, 16, REFERENCE_TAPS, n)),
        ("lfsr_external", lambda n: fibonacci(REFERENCE_SEED, 16, REFERENCE_TAPS, n)),
        ("ca90", lambda n: cellular(REFERENCE_SEED, 16, 90, "null", n)),
        ("ca150", lambda n: cellular(REFERENCE_SEED, 16, 150, "null", n)),
    ):
        generators[name] = [transitions(run(n), 16)[0] for n in (8, 16, 32)]
    return {"counters": counters, "generators": generators}
