"""The CLI's argparse parser, for help text and usage errors.

`cli.build_parser` builds it from `cli.GRAMMAR`. Of the CLI's command lines,
only one that `cmdline.parse` declines, `--help` or a usage error among
them, loads this module, and with it argparse, `gettext` and `locale`.
"""

import argparse

from . import stdio


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text fails as any other output does (exit
    3): argparse's print_help ignores an OSError and never flushes."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file or stdio("stdout"), flush=True)


def build(grammar: dict) -> Parser:
    """The parser of `grammar`, laid out as `cli.GRAMMAR` is."""
    parser = Parser(
        prog="togglesim",
        description="Switching-activity profiler: stimulus generation, "
        "transition counting, and CMOS power estimates for bus traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, *arguments) in grammar.items():
        command_parser = sub.add_parser(command, help=summary)
        for flags, kind, choices, default, help in arguments:
            if kind is bool:
                options = {"action": "store_true"}
            else:
                options = {"type": kind, "choices": choices}
            if default is ...:
                options["required"] = True
            else:
                options["default"] = default
            command_parser.add_argument(*flags.split(), help=help, **options)
    return parser
