"""Switching-activity profiler for clocked bus traces.

Models a transition-counting bus probe, generates the standard BIST
stimulus streams (Galois/Fibonacci LFSRs, rule-90/150 cellular automata,
binary and gray counters), measures switching activity, applies
low-transition encodings, and estimates CMOS dynamic and static power.

Each name is imported from the module that defines it, such as
`from togglesim.trace import Trace`; the package root re-exports nothing.
It defines `UsageError`, which every CLI command's body raises, and
`stdio`, through which each body reaches the standard streams.
"""

import sys

__version__ = "0.1.0"


class UsageError(Exception):
    """An invalid command line: the CLI reports it and exits 2."""


def stdio(name):
    """`sys.stdin`, `sys.stdout` or `sys.stderr`, as `name` says. Python sets
    one to None where the process started with its file descriptor closed,
    and a command's use of it then fails as a failed read or write: exit 3."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(f"{name} is closed")
    return stream
