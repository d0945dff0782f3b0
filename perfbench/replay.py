"""In-process replay of a workload with spans around each layer call.

The replay draws from the same substream labels as the CLI
(`census/n=../trial=..`, `witness/n=../{half,coeffs,points}`) and calls only
the package's public functions, so it recomputes the child's certificate.
It must reproduce the certificate's fiber dims, family verdicts and
witness verdicts; any difference raises ReplayDrift instead of yielding
numbers.  The two private samplers the witness uses (kernel point and
direction) are re-implemented here draw for draw; a change to their draw
order shows up as drift.

Counters (shapes, ranks, elimination work, bit-heights, hit fraction) are
computed here from the matrices and results the replay holds, not read
from the program.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

from workloads import PRIME, Workload, expected_dim

from barthslice.barth import (SliceData, canonical_fiber_solutions, fiber_from_vec,
                              fiber_system, jacobian, residual, vec_fiber)
from barthslice.census import sample_half
from barthslice.fields import PrimeField, RationalField
from barthslice.linalg import kernel_basis, rank, spans_match
from barthslice.monad import build_gamma, monad_condition, pencil_check, point_rank_check
from barthslice.rng import SeededRng

ROOT_SPAN = "replay"


class ReplayDrift(RuntimeError):
    """The replay did not reproduce the certificate it shadows."""


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index]."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.records: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_ms(self) -> dict[str, float]:
        """Per-name self time: span duration minus its direct children's."""
        child_ns = [0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.records, child_ns):
            out[name] = out.get(name, 0.0) + (end - start - inner) / 1e6
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.records:
            out[name] = out.get(name, 0) + 1
        return out

    def write_jsonl(self, fh):
        for i, (name, start, end, parent) in enumerate(self.records):
            fh.write(json.dumps({"trace": self.trace_id, "id": i, "name": name,
                                 "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.records)
        t.records.append([self.name, time.perf_counter_ns(), 0, t._open[-1] if t._open else None])
        t._open.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.records[self.index][2] = time.perf_counter_ns()
        t._open.pop()
        return False


class NullTracer:
    """Tracing off: the same replay code with spans that record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Counters:
    """Counts computed from the replay's own matrices and results."""

    def __init__(self):
        self.kernels = 0
        self.rows = 0
        self.cols = 0
        self.rank = 0
        self.work = 0
        self.max_bits = 0
        self.hits = 0
        self.points_checked = 0

    def kernel(self, n: int, system, basis):
        r = system.cols - len(basis)
        self.kernels += 1
        self.rows += system.rows
        self.cols += system.cols
        self.rank += r
        self.work += system.rows * system.cols * r
        self.hits += len(basis) == expected_dim(n)
        if isinstance(system.field, RationalField):
            for vec in basis:
                for x in vec:
                    self.max_bits = max(self.max_bits, abs(x.numerator).bit_length(),
                                        x.denominator.bit_length())


def replay_census(w: Workload, seed: int, tracer, counters: Counters) -> list[dict]:
    """Census or family run at one CLI seed; returns per-charge verdicts."""
    field = PrimeField(PRIME)
    rng = SeededRng(seed)
    family = w.command == "family"
    out = []
    for n in w.charges:
        hist: dict[int, int] = {}
        family_ok = True if family else None
        for trial in range(w.trials):
            with tracer.span("census.sample_half"):
                half = sample_half(rng.substream(f"census/n={n}/trial={trial}"), field, n)
            with tracer.span("barth.fiber_system"):
                system = fiber_system(half)
            with tracer.span("linalg.kernel_basis"):
                basis = kernel_basis(system)
            counters.kernel(n, system, basis)
            hist[len(basis)] = hist.get(len(basis), 0) + 1
            if not family:
                continue
            if len(basis) != 4:
                family_ok = False
                continue
            with tracer.span("barth.canonical"):
                canonical = [vec_fiber(f) for f in canonical_fiber_solutions(half)]
            with tracer.span("linalg.spans_match"):
                if not spans_match(field, basis, canonical, n * (n + 3)):
                    family_ok = False
        out.append({"n": n, "fiber_dims": hist, "family_check": family_ok})
    return out


def _kernel_point(rng: SeededRng, field, basis: list, width: int) -> list:
    # same draws as census._nonzero_kernel_point
    z = field.zero()
    for _ in range(64):
        coeffs = [field.sample(rng) for _ in basis]
        point = [z] * width
        for c, vec in zip(coeffs, basis):
            if c == z:
                continue
            for k in range(width):
                point[k] = field.add(point[k], field.mul(c, vec[k]))
        if any(e != z for e in point):
            return point
    raise ReplayDrift("no nonzero kernel point in 64 draws")


def _direction(rng: SeededRng, field) -> list:
    # same draws as census._sample_direction, bounded here
    z = field.zero()
    for _ in range(64):
        v = [field.sample(rng) for _ in range(4)]
        if any(c != z for c in v):
            return v
    raise ReplayDrift("no nonzero direction in 64 draws")


def replay_witness(w: Workload, seed: int, tracer, counters: Counters) -> list[dict]:
    """Rational witness run at one CLI seed; returns per-charge verdicts."""
    field = RationalField(sample_window=w.window)
    rng = SeededRng(seed)
    out = []
    for n in w.charges:
        with tracer.span("census.sample_half"):
            half = sample_half(rng.substream(f"witness/n={n}/half"), field, n)
        with tracer.span("barth.fiber_system"):
            system = fiber_system(half)
        with tracer.span("linalg.kernel_basis"):
            basis = kernel_basis(system)
        counters.kernel(n, system, basis)
        if not basis:
            raise ReplayDrift(f"n={n}: trivial kernel")
        with tracer.span("census.kernel_point"):
            point = _kernel_point(rng.substream(f"witness/n={n}/coeffs"), field, basis,
                                  n * (n + 3))
            fiber = fiber_from_vec(field, n, point)
            x = SliceData(half, fiber)
        with tracer.span("barth.residual"):
            residual_zero = residual(x).is_zero()
        with tracer.span("monad.pencil_check"):
            pencil = pencil_check(field, half.a1, half.a2, fiber.b1, fiber.b2)
        with tracer.span("monad.monad_condition"):
            gamma = build_gamma(x)
            monad_ok = monad_condition(gamma)
        with tracer.span("monad.point_rank"):
            dir_rng = rng.substream(f"witness/n={n}/points")
            points_ok, checked = True, 0
            for _ in range(w.points):
                checked += 1
                if not point_rank_check(gamma, _direction(dir_rng, field)):
                    points_ok = False
                    break
        counters.points_checked += checked
        with tracer.span("barth.jacobian"):
            jac = jacobian(x)
        with tracer.span("linalg.jacobian_rank"):
            jac_rank = rank(jac)
        out.append({
            "n": n,
            "fiber_dims": {len(basis): 1},
            "witness": {
                "fiber_dim": len(basis),
                "residual_zero": residual_zero,
                "pencil_finite_ok": pencil.finite_ok,
                "pencil_infinity_ok": pencil.infinity_ok,
                "monad_ok": monad_ok,
                "point_ranks_ok": points_ok,
                "points_checked": checked,
                "jacobian_rank": jac_rank,
                "jacobian_full": jac_rank == 3 * n * (n - 1) // 2,
            },
        })
    return out


def replay(w: Workload, seed: int, tracer, counters: Counters) -> list[dict]:
    with tracer.span(ROOT_SPAN):
        if w.command == "witness":
            return replay_witness(w, seed, tracer, counters)
        return replay_census(w, seed, tracer, counters)


def compare(verdicts: list[dict], certs: list) -> None:
    """Raise ReplayDrift unless the replay matches the CLI certificates."""
    if [v["n"] for v in verdicts] != [c["n"] for c in certs]:
        raise ReplayDrift("replayed charges differ from the certificate")
    for v, c in zip(verdicts, certs):
        dims = {int(k): val for k, val in c["fiber_dims"].items()}
        if v["fiber_dims"] != dims:
            raise ReplayDrift(f"n={v['n']}: replay dims {v['fiber_dims']} vs certificate {dims}")
        for key in ("family_check", "witness"):
            if key in v and v[key] != c[key]:
                raise ReplayDrift(f"n={v['n']}: replay {key} {v[key]} vs certificate {c[key]}")
