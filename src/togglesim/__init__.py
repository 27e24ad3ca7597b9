"""Switching-activity profiler for clocked bus traces.

Models a transition-counting bus probe, generates the standard BIST
stimulus streams (Galois/Fibonacci LFSRs, rule-90/150 cellular automata,
binary and gray counters), measures switching activity, applies
low-transition encodings, and estimates CMOS dynamic and static power.

Each name is imported from the module that defines it, such as
`from togglesim.trace import Trace`; the package root re-exports nothing.
It defines `UsageError`, which every CLI command's body raises.
"""

__version__ = "0.1.0"


class UsageError(Exception):
    """An invalid command line: the CLI reports it and exits 2."""
