"""Workload table, child-process runner and certificate checks.

Each workload is a fixed `barthslice` command line whose seeds derive from
the benchmark's own `--seed`.  The checks here are written against the
paper's claims, not against the package's own verdict functions, so a
package change that corrupts a certificate and its self-check at once is
still caught:

* census: kernel dim n(9-n)/2 for n <= 8 (4 for n >= 8) in at least
  ceil(99% of the trials);
* family: every trial at dim 4 and `family_check` true;
* witness: every stage true, `points_checked` = points and Jacobian rank
  3n(n-1)/2.

Where `pinned.json` holds the sha256 of a command's stdout at that seed
(recorded from a known-good commit), the bytes must match it exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_PATH = HERE / "pinned.json"

PRIME = 2147483647
SEED_LIMIT = 1 << 64
SETUP_ARGV = ("dims", "--n", "1")
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # census | family | witness
    n_min: int
    n_max: int
    trials: int = 1       # trials per charge (census, family)
    seeds_per_pass: int = 1
    window: int = 5       # rational sampling window (witness)
    points: int = 32      # rank-check directions (witness)

    @property
    def charges(self) -> range:
        return range(self.n_min, self.n_max + 1)

    @property
    def systems_per_process(self) -> int:
        """Fiber systems certified by one child: trials x charges."""
        return self.trials * len(self.charges)

    def cli_seeds(self, bench_seed: int) -> list[int]:
        """The CLI seeds one pass runs, one child process each."""
        k = self.seeds_per_pass
        return [(k * bench_seed + i) % SEED_LIMIT for i in range(k)]

    def argv(self, cli_seed: int) -> list[str]:
        args = [self.command, "--n-min", str(self.n_min), "--n-max", str(self.n_max),
                "--seed", str(cli_seed)]
        if self.command == "witness":
            return args + ["--prime", "rational", "--window", str(self.window),
                           "--points", str(self.points)]
        return args + ["--prime", str(PRIME), "--trials", str(self.trials)]

    def field_name(self) -> str:
        return f"QQ(window={self.window})" if self.command == "witness" else f"GF({PRIME})"


# Each stresses a different layer; README.md maps every layer metric to the
# end-to-end metric and workload it should move.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-gate",
            "acceptance census n=4..8, 100 trials: hundreds of small systems, bound by "
            "per-call overhead, fiber_system assembly and sampling, not by elimination",
            "census", 4, 8, trials=100,
        ),
        Workload(
            "family-large",
            "family n=20..24, 1 trial each: 570x460 to 828x648 GF(p) systems, ~95% "
            "elimination; where block solver and blocked elimination would show",
            "family", 20, 24, trials=1,
        ),
        Workload(
            "witness-rational",
            "rational witness n=4..7 window 5 over 16 seeds: fraction-free QQ kernel, "
            "modular rank probe and Fraction-heavy monad checks; where multi-modular shows",
            "witness", 4, 7, seeds_per_pass=16,
        ),
    )
}


# ---------------------------------------------------------------------------
# Expectations, written from the paper's claims


def expected_dim(n: int) -> int:
    return n * (9 - n) // 2 if n <= 8 else 4


def census_threshold(trials: int) -> int:
    return -(-99 * trials // 100)


def check_certificates(w: Workload, cli_seed: int, certs) -> list[str]:
    """Problems with parsed certificates; empty when every claim holds."""
    if not isinstance(certs, list) or [c.get("n") for c in certs] != list(w.charges):
        return ["certificate list does not cover the charges"]
    problems = []
    for c in certs:
        n = c["n"]
        where = f"n={n}"
        dims = {int(k): v for k, v in c["fiber_dims"].items()}
        if c["seed"] != str(cli_seed) or c["field"] != w.field_name():
            problems.append(f"{where}: seed or field differs")
        if w.command == "witness":
            wit = c["witness"] or {}
            stages = ("residual_zero", "pencil_finite_ok", "pencil_infinity_ok",
                      "monad_ok", "point_ranks_ok", "jacobian_full")
            if not all(wit.get(s) is True for s in stages):
                problems.append(f"{where}: a witness stage is not true")
            if wit.get("jacobian_rank") != 3 * n * (n - 1) // 2:
                problems.append(f"{where}: Jacobian rank {wit.get('jacobian_rank')}")
            if wit.get("points_checked") != w.points:
                problems.append(f"{where}: {wit.get('points_checked')} points checked")
            if wit.get("fiber_dim") != expected_dim(n) or dims != {expected_dim(n): 1}:
                problems.append(f"{where}: fiber dim {dims}")
            continue
        if c["trials"] != w.trials or sum(dims.values()) != w.trials:
            problems.append(f"{where}: trial count differs")
        if dims.get(expected_dim(n), 0) < census_threshold(w.trials):
            problems.append(f"{where}: {dims} misses the census threshold")
        if (c["family_check"] is True) != (w.command == "family"):
            problems.append(f"{where}: family_check is {c['family_check']}")
    return problems


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(w: Workload | None, cli_seed: int, returncode: int, stdout: bytes,
                 pinned: dict) -> list[str]:
    """Problems with one child's result; `w` None means the setup command."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    digest = hashlib.sha256(stdout).hexdigest()
    if w is None:
        return [] if digest == pinned["dims"] else ["dims output hash differs"]
    want = pinned[w.name].get(str(cli_seed))
    if want is not None:
        return [] if digest == want else [f"stdout hash differs from pinned seed {cli_seed}"]
    try:
        certs = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        return check_certificates(w, cli_seed, certs)
    except (AttributeError, KeyError, TypeError, ValueError):
        return ["malformed certificate"]


# ---------------------------------------------------------------------------
# Child processes


def thread_caps() -> dict:
    """BLAS/OpenMP thread counts capped at nproc."""
    threads = str(os.cpu_count() or 1)
    return {var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict:
    """Environment for children: the checkout's sources, BLAS capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **thread_caps())
    env.pop("PYTHONHOME", None)
    return env


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_kb: int
    returncode: int
    stdout: bytes


def run_child(argv, env: dict) -> ChildResult:
    """Run one `barthslice` process and wait for it.

    Peak RSS comes from this child's own rusage (os.wait4); RUSAGE_CHILDREN
    would report the maximum over every earlier child as well.
    """
    cmd = [sys.executable, "-m", "barthslice.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, usage.ru_maxrss, proc.returncode, stdout)
