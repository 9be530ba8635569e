"""Set-up probe: what one `orchard` call pays before its first compute call.

    PYTHONPATH=src python3 perfbench/probe_setup.py <orchard CLI arguments>

Starts the interpreter, imports `orchard.cli`, parses the arguments and
reads the input through the CLI's own steps (`cli._load_pointset`, or
`cli._parse_curve` + `cli._parse_point` + building the ten point
configuration), then exits.  `run.py` times it from spawn to exit as
`setup_s`.
"""

from __future__ import annotations

import sys

import orchard.cli as cli


def main(argv: list[str]) -> None:
    args = cli.build_parser().parse_args(argv)
    if getattr(args, "infile", None):
        cli._load_pointset(args.infile)
    else:
        _, curve = cli._parse_curve(args.curve)
        base = [cli._parse_point(tok) for tok in args.base.split(",")]
        cli.build_tenpoint_weierstrass(curve, *base,
                                       cli._parse_point(args.delta))


if __name__ == "__main__":
    main(sys.argv[1:])
