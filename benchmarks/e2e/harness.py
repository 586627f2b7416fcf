"""Plumbing shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(HERE, "results")

#: Client threads / conversion ranks used to generate load.
CLIENTS = min(2, os.cpu_count() or 1)
#: Hard limit on any one child (the contract allows a run 180 s).
CHILD_TIMEOUT = 120.0


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout holds only
    the benchmark and not the program it measures."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.stderr.write(f"benchmark: no program under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(work_dir: str) -> dict[str, str]:
    """Environment of every child: the program importable, no tracing
    or fault injection inherited, two pool workers, fixed hashing, and
    the cost model kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TRACE", "REPRO_FAULTS")
           and not k.startswith("REPRO_BENCH_")}
    env.update(PYTHONPATH=os.pathsep.join((SRC, ROOT)),
               PYTHONHASHSEED="0", REPRO_EXECUTOR_WORKERS="2",
               REPRO_COST_MODEL=os.path.join(work_dir, "cost-model.json"))
    return env


def fresh_dir(*parts: str) -> str:
    """An empty directory at the joined path."""
    path = os.path.join(*parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class ChildResult(NamedTuple):
    """Exit code, wall time, peak RSS and output of one finished child."""

    returncode: int
    seconds: float
    maxrss_kb: int
    output: str

    @property
    def last_line(self) -> str:
        lines = self.output.strip().splitlines()
        return lines[-1] if lines else "no output"


def launcher(argv: list[str], log_path: str, timeout: float) -> list[str]:
    """argv that runs *argv* under :mod:`launch`, which reports the
    child's exit code, wall time and peak RSS as one JSON line."""
    return [sys.executable, "-S", os.path.join(HERE, "launch.py"),
            log_path, str(timeout), *argv]


def run_child(argv: list[str], env: dict[str, str], log_path: str,
              timeout: float = CHILD_TIMEOUT) -> ChildResult:
    """Run *argv* to completion from the checkout root.  Wall time and
    peak RSS (the child's and its reaped descendants') are taken by the
    launcher, next to the child; output goes to *log_path*; a child
    that overruns *timeout* is killed and reported as exit code -9."""
    done = subprocess.run(launcher(argv, log_path, timeout), cwd=ROOT,
                          env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, check=True)
    report = json.loads(done.stdout)
    with open(log_path, "r", errors="replace") as log:
        output = log.read()
    return ChildResult(report["returncode"], report["seconds"],
                       report["maxrss_kb"], output)


def cli(*args: str) -> list[str]:
    """argv of one ``repro`` CLI invocation."""
    return [sys.executable, "-m", "repro.cli", *args]


def timed_rounds(names: list[str], seconds: float, max_rounds: int = 0):
    """Yield *names* round-robin for *seconds* (or *max_rounds* rounds
    when non-zero); the first round always completes, so every name is
    yielded at least once."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for name in names:
            if rounds and time.perf_counter() >= deadline:
                return
            yield name
        rounds += 1
        if time.perf_counter() >= deadline \
                or (max_rounds and rounds >= max_rounds):
            return


#: What one :meth:`Reference.sample` takes on the reference box (2 vCPU
#: Xeon 2.1 GHz microVM, python 3.11) when nothing disturbs it.
REFERENCE_NOMINAL_S = 0.062


class Reference:
    """A fixed computation of the harness's own — render 10 k records to
    SAM text with numpy and str, deflate, hash and split them — timed
    between the ops of a run to tell how fast the box is *right now*.

    The reference box is a microVM on a shared host: the same commit
    reads 1.3-1.8x slower for minutes at a time.  A run therefore
    reports its times at the box's nominal speed: every wall time is
    divided by ``min(samples) / REFERENCE_NOMINAL_S`` — how slow the box
    was at its quietest during the run — one factor per run, printed as
    ``machine_factor``.  The program under test is
    not part of the reference, so a change to it moves the metrics and
    not the factor.
    """

    def __init__(self) -> None:
        from .gen import Dataset
        import numpy as np
        self._data = Dataset(0, 10_000)
        self._all = np.arange(self._data.n)
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the computation once."""
        import hashlib
        import zlib
        t0 = time.perf_counter()
        body = self._data.render("sam", self._all)
        zlib.compress(body[:1 << 19], 6)
        hashlib.sha256(body).digest()
        fields = [line.split(b"\t") for line in body.split(b"\n")]
        self.samples.append(time.perf_counter() - t0)
        del fields

    def factor(self) -> float:
        """How much slower than nominal the box ran during the run."""
        return min(self.samples) / REFERENCE_NOMINAL_S


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict[str, object]:
    """Where the numbers were taken; ``noisy`` flags a busy box."""
    import numpy
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m": load,
            "noisy": load > nproc / 2}
