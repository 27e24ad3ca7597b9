"""Switching-activity profiler for clocked bus traces.

Models a transition-counting bus probe, generates the standard BIST
stimulus streams (Galois/Fibonacci LFSRs, rule-90/150 cellular automata,
binary and gray counters), measures switching activity, applies
low-transition encodings, and estimates CMOS dynamic and static power.

Each name is imported from the module that defines it, such as
`from togglesim.bits import Trace`; the package root re-exports nothing.
"""

__version__ = "0.1.0"
