"""A spawned `python -m orchard.cli` call, which ends in cli.main.

main flushes stdout and stderr and then ends the process with os._exit,
skipping interpreter teardown, so what a caller of the command sees (the
exit code, the whole stdout, the processes left running) is checked in a
fresh process, with stdout buffered (PYTHONUNBUFFERED unset) and not.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from orchard import gen_parallel_aps
from orchard.cli import pointset_to_doc, run

SRC = Path(__file__).resolve().parent.parent / "src"
CANTILEVER = ["cantilever", "--curve", "weierstrass:0,17",
              "--base=-2:3,-1:4,4:9", "--delta", "8:23", "--extend", "3"]
UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True],
                                     ids=["buffered", "unbuffered"])


def command(argv, unbuffered=False):
    """`python -m orchard.cli argv` and the environment to run it in."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return [sys.executable, "-m", "orchard.cli", *argv], env


def spawn(argv, unbuffered=False, stdout=subprocess.PIPE,
          stderr=subprocess.PIPE, **kwargs):
    """The finished call of argv, its output as bytes."""
    cmd, env = command(argv, unbuffered)
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=stderr,
                          timeout=60, **kwargs)


# (argv, exit code); {missing} is a path that does not exist
CASES = {"help": (["--help"], 0),
         "bound": (["bound", "--n", "10"], 0),
         "usage-error": (["bogus-subcommand"], 2),
         "missing-in-file": (["count", "--in", "{missing}"], 2),
         "cantilever": (CANTILEVER, 0)}


@UNBUFFERED
@pytest.mark.parametrize("case", list(CASES))
def test_spawned_call_keeps_the_exit_code_and_stdout(case, unbuffered,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    # argparse wraps help to the terminal width: the same for both calls
    monkeypatch.setenv("COLUMNS", "80")
    template, code = CASES[case]
    argv = [a.format(missing=tmp_path / "nope.json") for a in template]
    assert run(argv) == code
    out = capsys.readouterr().out
    child = spawn(argv, unbuffered)
    assert child.returncode == code, child.stderr
    assert child.stdout.decode("utf-8") == out
    assert bool(out) == (code == 0)
    assert b"Traceback" not in child.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@UNBUFFERED
@pytest.mark.parametrize("argv", [["bound", "--n", "10"], CANTILEVER],
                         ids=["bound", "cantilever"])
def test_a_failed_final_write_exits_2(argv, unbuffered):
    # buffered, the write fails only at the flush after run has returned
    with open("/dev/full", "wb") as full:
        child = spawn(argv, unbuffered, stdout=full)
    assert child.returncode == 2
    assert child.stderr.startswith(b"error: [Errno 28] ")
    assert child.stderr.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("argv, stdout_full, unbuffered", [
    (["count", "--in", "{missing}"], False, False),
    (["count", "--in", "{missing}"], False, True),
    (["bound", "--n", "2"], False, False),
    (["bound", "--n", "2"], False, True),
    (["bound", "--n", "10"], True, True)],
    ids=["missing-in-file", "missing-in-file-unbuffered", "bad-n",
         "bad-n-unbuffered", "full-stdout-unbuffered"])
def test_a_message_that_cannot_be_written_keeps_the_exit_code(
        argv, stdout_full, unbuffered, tmp_path):
    # stderr is /dev/full, so the error message itself fails to print; the
    # call still exits 2 (it exited 120 buffered and 1 unbuffered)
    argv = [a.format(missing=tmp_path / "nope.json") for a in argv]
    with open("/dev/full", "wb") as full:
        child = spawn(argv, unbuffered,
                      stdout=full if stdout_full else subprocess.PIPE,
                      stderr=full)
    assert child.returncode == 2
    assert not child.stdout


@UNBUFFERED
def test_a_closed_stdout_exits_0(unbuffered):
    # with descriptor 1 closed, sys.stdout is None and print writes nothing
    child = spawn(["bound", "--n", "10"], unbuffered, stdout=None,
                  preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (0, b"")


def test_a_worker_pool_leaves_no_process(tmp_path):
    # the call leads its own process group; os._exit skips the atexit
    # handler of multiprocessing, so the pool's workers must be joined
    # before run returns, and the group is empty once the call exits
    points = tmp_path / "in.json"
    points.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(3))))
    cmd, env = command(["count", "--in", str(points), "--workers", "2"])
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE,
                          start_new_session=True) as child:
        out, err = child.communicate(timeout=60)
    assert (child.returncode, out) == (0, b"8\n"), err
    try:
        os.killpg(child.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(child.pid, signal.SIGKILL)
    pytest.fail("the call left a process of its group running")
