"""Traced in-process run of one `orchard` CLI call.

    PYTHONPATH=src python3 perfbench/traced.py --trace-out T --stdout-out O \
        -- <orchard CLI arguments>

Runs `orchard.cli.run` on the arguments with span-recording wrappers
around the public functions the call reaches (and `cli._load_pointset`,
which is the CLI's parse + `pointset_from_doc` step).  A span is
(id, name, start, end, parent) on the `time.perf_counter` clock, which
`run.py` shares, so it can place the spans between spawn and exit.
Counters are taken from the wrapped functions' return values, inside a
`trace.count` span so that their cost shows as tracing overhead and not
as CLI time.  Spans and counters stay in memory and are written once,
after the call, to T; the captured stdout goes to O so that `run.py`
can check it.  The exit code is the CLI's.

Spans come from this file only; `richlines.spanned_lines` is one span
(its join, gcd and grouping stages have no spans of their own).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter
from math import comb

import orchard.cli as cli
import orchard.richlines as richlines
from orchard.grouplaw import WeierstrassCurve


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _bits(points) -> int:
    return max(abs(v).bit_length() for p in points for v in p.h)


def count_pointset(c: dict, args, ps) -> None:
    c["projective.points"] = ps.n
    c["projective.coord_bits_max"] = _bits(ps.points)


def count_table(c: dict, args, table) -> None:
    hist = Counter(table.entries.values())
    c["richlines.histogram"] = {str(m): hist[m] for m in sorted(hist)}
    c["richlines.lines_stored"] = len(table.entries)
    c["richlines.rich_lines"] = sum(v for m, v in hist.items() if m >= 3)
    c["richlines.pairs"] = sum(v * comb(m, 2) for m, v in hist.items())


def count_members(c: dict, args, members) -> None:
    c["richlines.lines_stored"] = len(members)
    c["richlines.rich_lines"] = len(members)
    c["richlines.members"] = sum(len(idx) for idx in members.values())
    c["richlines.pairs"] = comb(args[0].n, 2)


def count_cantilever(c: dict, args, obj) -> None:
    a, b, k = obj.lattice_points()
    c["projective.points"] = len(obj.points())
    c["projective.coord_bits_max"] = _bits(obj.points())
    c["tenpoint.triples_checked"] = len(a) * len(b) * len(k)


# (owner, attribute, span name, counter hook)
WRAPS = [
    (cli, "_load_pointset", "cli.load", count_pointset),
    (cli, "build_tenpoint_weierstrass", "cli.load", None),
    (cli, "spanned_lines", "richlines.spanned_lines", count_table),
    (cli, "k_rich_count", "richlines.k_rich_count", None),
    (cli, "tripartite_count", "richlines.tripartite_count", None),
    (richlines, "line_members", "richlines.line_members", count_members),
    (cli, "extend_cantilever", "tenpoint.extend", count_cantilever),
    (cli, "verify_lattice", "tenpoint.verify_lattice", None),
    (WeierstrassCurve, "contains", "grouplaw.contains", None),
]


def instrument(tracer: Tracer) -> None:
    for owner, attr, name, hook in WRAPS:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, _fn=fn, _name=name, _hook=hook, **kwargs):
            with tracer.span(_name):
                out = _fn(*args, **kwargs)
            if _hook is not None:
                with tracer.span("trace.count"):
                    _hook(tracer.counters, args, out)
            return out

        setattr(owner, attr, traced)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--stdout-out", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    instrument(tracer)
    buf = io.StringIO()
    with tracer.span("cli.run"), contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    out = buf.getvalue().encode("utf-8")
    tracer.counters["cli.stdout_bytes"] = len(out)
    with open(args.stdout_out, "wb") as fh:
        fh.write(out)
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
