"""The plain parse of qba.cli held against argparse, without pytest, so
that any interpreter can run it:

    PYTHONPATH=src python tests/parse_parity.py < argvs.json

reads a JSON list of argvs and prints a JSON object: how many of them the
plain parse reads ("plain") and each argv on which it and argparse
disagree, with how ("disagreements").
"""
import argparse
import contextlib
import io
import json
import sys

from qba import cli


def plainly_formed(argv) -> bool:
    """argv starts with a subcommand, and every later item that starts
    with '-' is exactly one of its option strings other than -h and
    --help."""
    sub = cli._subcommands(cli._shared_parser()).get(argv[0]) if argv else None
    return sub is not None and all(
        arg in sub._option_string_actions and arg not in ("-h", "--help")
        for arg in argv[1:] if arg.startswith("-"))


def disagreement(argv) -> str | None:
    """None when the plain parse agrees with argparse on argv: where it
    reads argv, the subcommand's parse_known_args gives the same namespace
    and no extras; where argparse prints usage, help or an error, it
    declines; and where argparse accepts a plainly formed argv whose option
    values do not start with '-', it reads it. Else what went wrong."""
    plain = cli._plain_parse(argv)
    parser = cli._shared_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused = True
        else:
            refused = False
    if plain is None:
        return None if refused or not plainly_formed(argv) else "declined"
    if refused:
        return "read an argv that argparse refuses"
    expected = cli._subcommands(parser)[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    return None if expected == (plain, []) else f"read {plain}, argparse gives {expected}"


if __name__ == "__main__":
    argvs = json.load(sys.stdin)
    print(json.dumps({
        "plain": sum(cli._plain_parse(argv) is not None for argv in argvs),
        "disagreements": [[argv, why] for argv in argvs
                          if (why := disagreement(argv)) is not None]}))
