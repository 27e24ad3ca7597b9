"""A plain command line, parsed without argparse.

`parse` reads `togglesim.cli.GRAMMAR`, which `cli.main` passes in: this
module never imports `cli`, which `python -m togglesim.cli` runs as
`__main__`. It accepts only the lines whose meaning needs none of
argparse's rules for options: the command name, then the command's full
flags, each followed by its value as a word of its own, switches, and
`analyze`'s one positional, `-` or a word that does not start with `-`.
Every value has the declared type and is among the declared choices, and
every required argument is present. Such a line gets the namespace that
`cli.build_parser().parse_args` returns for it; any other line gets None,
and argparse parses it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace


def parse(argv: list[str] | None, grammar: dict) -> SimpleNamespace | None:
    """The parsed arguments of `argv` (None: `sys.argv[1:]`, as for argparse),
    a plain command line of `grammar`, as a `SimpleNamespace`; else None."""
    words = iter(sys.argv[1:] if argv is None else argv)
    command = next(words, None)
    if command not in grammar:
        return None
    values, arguments = {"command": command}, {}
    for flags, kind, choices, default, _ in grammar[command][1:]:
        names = flags.split()
        dest = names[-1].lstrip("-").replace("-", "_")  # argparse's dest
        values[dest] = default
        # a flag starts with "-" and is never "-", so the positional is keyed "-"
        arguments.update(dict.fromkeys(names if flags[0] == "-" else "-", (dest, kind, choices)))
    try:
        for word in words:
            flag = word.startswith("-") and word != "-"
            # a repeated flag's last value holds, but a second positional is argparse's
            dest, kind, choices = arguments[word] if flag else arguments.pop("-")
            if flag and kind is not bool:
                word = next(words)
                if word.startswith("-"):  # a flag, or a negative number: argparse's
                    return None
            value = kind(word) if kind else word  # a switch: bool of its flag, True
            if choices and value not in choices:
                return None
            values[dest] = value
    except (KeyError, StopIteration, ValueError):  # an unknown flag, no value, a bad value
        return None
    if "-" in arguments or ... in values.values():  # a required argument is missing
        return None
    return SimpleNamespace(**values)
