"""Tests of the benchmark itself: metric names, certificate checks, replay drift.

Small workloads stand in for the benchmark's own so these run in seconds.
"""

import copy
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from replay import (ROOT_SPAN, Counters, NullTracer, ReplayDrift, Tracer,  # noqa: E402
                    compare, replay)
from workloads import (WORKLOADS, Workload, check_certificates, check_output,  # noqa: E402
                       expected_dim)

from barthslice.census import fiber_census, witness_certificate  # noqa: E402
from barthslice.fields import PrimeField, RationalField  # noqa: E402
from barthslice.rng import SeededRng  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL_CENSUS = Workload("small-census", "", "census", 4, 5, trials=3)
SMALL_FAMILY = Workload("small-family", "", "family", 8, 8, trials=2)
SMALL_WITNESS = Workload("small-witness", "", "witness", 4, 5, points=4)


def _cli_bytes(w: Workload, seed: int) -> bytes:
    """The CLI's stdout for `w` at `seed`, computed in-process."""
    if w.command == "witness":
        field = RationalField(sample_window=w.window)
        certs = [witness_certificate(n, SeededRng(seed), field, points=w.points)
                 for n in w.charges]
    else:
        certs = [fiber_census(n, w.trials, SeededRng(seed), PrimeField(),
                              check_family=w.command == "family") for n in w.charges]
    return (json.dumps([c.to_json_dict() for c in certs], indent=2) + "\n").encode()


def test_benchmark_json_matches_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert ("setup_s", "s", "lower") == next(m for m in run.END_TO_END if m[0] == "setup_s")[:3]


def test_metric_name_grammar():
    names = [m[0] for m in run.END_TO_END + run.PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, better, *bound in run.END_TO_END + run.PER_LAYER:
        assert UNIT.fullmatch(unit) and better in ("lower", "higher")
        assert all(0 < b <= 0.25 for b in bound)
    assert not NAME.fullmatch("_leading_underscore")
    assert not NAME.fullmatch("x" * 65)
    assert not NAME.fullmatch("has space")


@pytest.mark.parametrize("w", [SMALL_CENSUS, SMALL_FAMILY, SMALL_WITNESS],
                         ids=lambda w: w.name)
def test_good_certificates_pass(w):
    stdout = _cli_bytes(w, 3)
    assert check_output(w, 3, 0, stdout, {w.name: {}}) == []
    pinned = {w.name: {"3": hashlib.sha256(stdout).hexdigest()}}
    assert check_output(w, 3, 0, stdout, pinned) == []


def _corruptions(w: Workload, certs: list):
    """Each yields a certificate list with one claim broken."""
    def edit(fn):
        bad = copy.deepcopy(certs)
        fn(bad)
        return bad

    yield edit(lambda c: c.pop())
    yield edit(lambda c: c[0].update(seed="999"))
    if w.command == "witness":
        yield edit(lambda c: c[0]["witness"].update(monad_ok=False))
        yield edit(lambda c: c[1]["witness"].update(jacobian_rank=29))
        yield edit(lambda c: c[0]["witness"].update(points_checked=1))
        yield edit(lambda c: c[0].update(fiber_dims={"9": 1}))
    else:
        n0 = str(expected_dim(certs[0]["n"]))
        yield edit(lambda c: c[0].update(fiber_dims={n0: w.trials - 1, "3": 1}))
        yield edit(lambda c: c[0].update(trials=w.trials + 1))
        yield edit(lambda c: c[0].update(family_check=w.command != "family"))


@pytest.mark.parametrize("w", [SMALL_CENSUS, SMALL_FAMILY, SMALL_WITNESS],
                         ids=lambda w: w.name)
def test_corrupted_certificate_is_detected(w):
    stdout = _cli_bytes(w, 3)
    certs = json.loads(stdout)
    for bad in _corruptions(w, certs):
        assert check_certificates(w, 3, bad), bad
    # pinned seeds compare bytes: any change at all is caught
    pinned = {w.name: {"3": hashlib.sha256(stdout).hexdigest()}}
    flipped = stdout.replace(b'"n": 4', b'"n": 5', 1) if w.n_min == 4 else stdout + b" "
    assert check_output(w, 3, 0, flipped, pinned)
    assert check_output(w, 3, 1, stdout, pinned) == ["exit code 1"]
    assert check_output(w, 3, 0, b"not json", {w.name: {}}) == ["stdout is not JSON"]
    assert check_output(w, 3, 0, b'[{"n": 4}]', {w.name: {}})
    assert check_output(w, 3, 0, b"[1, 2]", {w.name: {}})


@pytest.mark.parametrize("w", [SMALL_CENSUS, SMALL_FAMILY, SMALL_WITNESS],
                         ids=lambda w: w.name)
def test_replay_reproduces_certificate(w):
    certs = json.loads(_cli_bytes(w, 3))
    tracer = Tracer(f"{w.name}/0")
    counters = Counters()
    compare(replay(w, 3, tracer, counters), certs)
    compare(replay(w, 3, NullTracer(), Counters()), certs)
    self_ms = tracer.self_ms()
    assert tracer.calls()["linalg.kernel_basis"] == counters.kernels == w.systems_per_process
    assert all(ms >= 0 for ms in self_ms.values())
    assert set(self_ms) - {ROOT_SPAN} <= set(run.LAYER_SPANS)
    assert counters.hits == counters.kernels
    assert (counters.max_bits > 0) == (w.command == "witness")


@pytest.mark.parametrize("w", [SMALL_CENSUS, SMALL_WITNESS], ids=lambda w: w.name)
def test_replay_drift_is_detected(w):
    certs = json.loads(_cli_bytes(w, 3))
    verdicts = replay(w, 3, NullTracer(), Counters())
    bad = copy.deepcopy(certs)
    if w.command == "witness":
        bad[1]["witness"]["jacobian_rank"] -= 1
    else:
        bad[1]["fiber_dims"] = {"9": w.trials}
    with pytest.raises(ReplayDrift):
        compare(verdicts, bad)
    with pytest.raises(ReplayDrift):
        compare(verdicts, certs[:1])


def test_self_time_subtracts_children():
    t = Tracer("t/0")
    t.records = [["replay", 0, 100, None], ["a", 10, 40, 0], ["b", 50, 60, 0]]
    assert t.self_ms() == {"replay": 60 / 1e6, "a": 30 / 1e6, "b": 10 / 1e6}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(40)]
    pct, value = run.tail_percentile(samples)
    assert pct == 75 and sum(s > value for s in samples) == 10


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
