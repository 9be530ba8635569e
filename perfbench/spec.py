"""The benchmark's workloads: one `orchard` CLI call each, at two sizes.

`full` is the measured size; `tiny` runs the same code paths in well
under a second per call and exists for `selftest.py`.  Standard library
only: `run.py` imports this module and must stay small, because a child
spawned from it starts with the parent's resident-set high-water mark.
"""

from __future__ import annotations

SIZES = {
    # random rational points, parallel-AP row length, cantilever extension
    "full": {"points": 2000, "aps": 300, "extend": 30},
    "tiny": {"points": 150, "aps": 20, "extend": 3},
}

# sha256 of the `cantilever` stdout at each size, pinned at the commit
# that defined the benchmark.  The CLI itself checks the index law and
# curve membership (exit 3 otherwise); the digest pins the printed points.
LATTICE_DIGEST = {
    "full": "1a47f84f06c956b6a65e463ea40d4c91a37aef7dd092a0671f091a82cebd05fc",
    "tiny": "db339f9bc68267171a861f19f9fff168df9c27ccd4b7f469c80cfea4a180701a",
}

# input: which generated file the call reads (None: the call reads no file).
# argv: the CLI arguments; {input} and {extend} are filled in per run.
# cores: how many cores the run is pinned to (the call's processes).
WORKLOADS = {
    "sparse-count": {
        "input": "sparse",
        "argv": ["count", "--in", "{input}", "--k", "3"],
        "cores": 1,
    },
    # Not in BENCHMARK.json: its run-to-run spread stayed above a third of
    # the bound (see README.md).  Run it by hand for the --workers path.
    "sparse-count-w2": {
        "input": "sparse",
        "argv": ["count", "--in", "{input}", "--k", "3", "--workers", "2"],
        "cores": 2,
    },
    "rich-tripartite": {
        "input": "tripartite",
        "argv": ["count", "--in", "{input}", "--tripartite", "1,2,3"],
        "cores": 1,
    },
    "lattice-verify": {
        "input": None,
        "argv": ["cantilever", "--curve", "weierstrass:0,17",
                 "--base=-2:3,-1:4,4:9", "--delta", "8:23",
                 "--extend", "{extend}"],
        "cores": 1,
    },
}


def cli_argv(workload: str, size: str, input_path: str | None) -> list[str]:
    """The `orchard` arguments of one call of the workload."""
    fill = {"{input}": input_path, "{extend}": str(SIZES[size]["extend"])}
    return [fill.get(a, a) for a in WORKLOADS[workload]["argv"]]
