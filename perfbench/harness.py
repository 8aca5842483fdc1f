"""Measurement helpers shared by the workloads.

Nothing here imports bellmix: the statistics, the output gate, the failure
ledger, the span recorder and the speed calibration work on plain numbers,
text and processes, so they can be tested without running the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance of the output gate on every numeric field.
GATE_ATOL = 1e-12

# A tail percentile is reported only with at least this many ops beyond it.
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The calibration kernel's nominal duration. Every reported time is scaled by
# CAL_REF_S / (measured kernel time around that op), so it reads as the time
# on a machine where the kernel takes exactly CAL_REF_S.
CAL_REF_S = 0.001
CAL_CHUNKS = 3
CAL_INTERVAL_S = 0.25
# Pin calibration chunks to each allowed CPU only up to this many CPUs.
CAL_MAX_PINNED_CPUS = 4


def median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values) -> float:
    """Mean without the slowest fifth, which drops readings hit by preemption."""
    ordered = sorted(values)
    return float(statistics.fmean(ordered[: max(1, len(ordered) - len(ordered) // 5)]))


def tail_percentile(latencies):
    """(percentile, value, n) of the highest ladder rung with >= 10 ops beyond it.

    Nearest-rank percentile: the value at rank ceil(p/100 * n) of the sorted
    latencies, so exactly n - rank ops lie beyond it. Failed ops enter as
    +inf. Returns None when even the median has fewer than 10 ops beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n
    return None


# ---------------------------------------------------------------- output gate


def _numeric(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def compare_csv(text: str, golden: str, text_columns=("source",)):
    """Compare a CSV with its golden copy field by field.

    Returns (ok, max_abs_deviation, reason). Numeric fields must agree within
    GATE_ATOL, empty fields must be empty in both, text columns must be equal.
    """
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    gold = [line.split(",") for line in golden.splitlines() if line.strip()]
    if not rows or rows[0] != gold[0]:
        return False, math.inf, "header differs"
    if len(rows) != len(gold):
        return False, math.inf, f"{len(rows) - 1} rows, golden has {len(gold) - 1}"
    header = gold[0]
    worst = 0.0
    for lineno, (row, ref) in enumerate(zip(rows[1:], gold[1:]), start=2):
        if len(row) != len(ref):
            return False, math.inf, f"line {lineno}: {len(row)} fields, golden has {len(ref)}"
        for column, value, expected in zip(header, row, ref):
            if column in text_columns or expected == "":
                if value != expected:
                    return False, math.inf, f"line {lineno} {column}: {value!r} != {expected!r}"
                continue
            try:
                deviation = abs(_numeric(value) - _numeric(expected))
            except ValueError as exc:
                return False, math.inf, f"line {lineno} {column}: {exc}"
            worst = max(worst, deviation)
            if deviation > GATE_ATOL:
                return False, worst, f"line {lineno} {column}: |{value} - {expected}| > {GATE_ATOL}"
    return True, worst, ""


def compare_tree(value, golden, path="$"):
    """Compare a JSON value with a golden JSON value; extra keys are ignored.

    Returns (ok, max_abs_deviation, reason). Floats must agree within
    GATE_ATOL; integers, booleans and strings must be equal.
    """
    if isinstance(golden, dict):
        if not isinstance(value, dict):
            return False, math.inf, f"{path}: expected an object"
        worst = 0.0
        for key, expected in golden.items():
            if key not in value:
                return False, math.inf, f"{path}.{key}: missing"
            ok, deviation, reason = compare_tree(value[key], expected, f"{path}.{key}")
            if not ok:
                return False, deviation, reason
            worst = max(worst, deviation)
        return True, worst, ""
    if isinstance(golden, list):
        if not isinstance(value, list) or len(value) != len(golden):
            return False, math.inf, f"{path}: expected a list of {len(golden)}"
        worst = 0.0
        for index, (item, expected) in enumerate(zip(value, golden)):
            ok, deviation, reason = compare_tree(item, expected, f"{path}[{index}]")
            if not ok:
                return False, deviation, reason
            worst = max(worst, deviation)
        return True, worst, ""
    if isinstance(golden, float) and not isinstance(value, bool) and isinstance(value, (int, float)):
        if not math.isfinite(value):
            return False, math.inf, f"{path}: non-finite {value!r}"
        deviation = abs(value - golden)
        if deviation > GATE_ATOL:
            return False, deviation, f"{path}: |{value} - {golden}| > {GATE_ATOL}"
        return True, deviation, ""
    if type(value) is not type(golden) or value != golden:
        return False, math.inf, f"{path}: {value!r} != {golden!r}"
    return True, 0.0, ""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class GateResult:
    ok: bool
    max_deviation: float
    reason: str = ""
    sha256: str = ""


# ------------------------------------------------------------ failure ledger


@dataclass
class Ledger:
    """Closed-loop op log. A failed op counts as beyond every latency limit."""

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    reconstructions: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    gates: list = field(default_factory=list)

    def record(self, raw_s, scaled_s, cpu_s, ok, reconstructions=0, reason="", gate=None):
        self.attempted += 1
        self.raw.append(raw_s)
        self.scaled.append(scaled_s)
        self.cpu.append(cpu_s)
        if gate is not None:
            self.gates.append(gate)
        if ok:
            self.latencies.append(scaled_s)
            self.reconstructions += reconstructions
        else:
            self.failed += 1
            self.latencies.append(math.inf)
            self.failures.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def gate_summary(self) -> dict:
        return {
            "checked": len(self.gates),
            "passed": sum(1 for g in self.gates if g.ok),
            "max_deviation": finite_or_none(max((g.max_deviation for g in self.gates), default=0.0)),
            "sha256": sorted({g.sha256 for g in self.gates if g.sha256}),
        }


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


# ---------------------------------------------------------- process helpers


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its largest waited-for child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run_child(argv, env, cwd, timeout=120.0):
    """Run a child to completion; returns (returncode, stdout, stderr)."""
    proc = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


# --------------------------------------------------------------- calibration


class Calibrator:
    """Machine-speed index from a fixed numpy kernel run around and during ops.

    A shared host's speed can drift by up to 2x over tens of seconds, and
    the program's time and CPU time drift with it. The kernel does what the
    program mostly does, small-array numpy calls and dict churn from Python,
    and does not touch bellmix, so a change to the program cannot move it.
    Each measurement runs CAL_CHUNKS kernel chunks on each CPU before and
    after the op, because the two vCPUs drift independently and pool workers
    and CLI children run on either; an op that runs in this process
    (`inline`) is also sampled every CAL_INTERVAL_S by a SIGALRM handler,
    whose time is taken out of the op's time. The scale factor is CAL_REF_S
    over the trimmed mean chunk time of that window.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._flat = rng.normal(size=(36, 16)) + 1j * rng.normal(size=(36, 16))
        self._counts = rng.integers(1, 1000, 36).astype(float)
        self._rho = np.eye(4, dtype=complex) / 4.0
        self._window = None
        self._spent = 0.0
        self.readings = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _chunk(self) -> float:
        """One kernel chunk: RrhoR-like numpy steps on fixed data, then dict churn."""
        flat, counts, rho = self._flat, self._counts, self._rho
        eye = np.eye(4, dtype=complex)
        acc = 0.0
        start = time.perf_counter()
        for _ in range(6):
            probs = np.clip(np.real(flat @ rho.T.reshape(16)), 1e-15, None)
            r_op = ((counts / (counts.sum() * probs)) @ flat).reshape(4, 4)
            step = eye + 0.1 * r_op
            candidate = step @ rho @ step.conj().T
            candidate = 0.5 * (candidate + candidate.conj().T)
            candidate /= np.real(np.trace(candidate))
            acc += float(counts @ np.log(np.clip(np.real(flat @ candidate.T.reshape(16)), 1e-15, None)))
        for i in range(200):
            table = {k: (k, str(k + i)) for k in range(8)}
            acc += sum(key for key, _text in table.values())
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("calibration kernel produced a non-finite sum")
        return elapsed

    def _on_each_cpu(self) -> list:
        """CAL_CHUNKS chunks pinned to each CPU this process may use, affinity restored after."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > CAL_MAX_PINNED_CPUS:
            return [self._chunk() for _ in range(CAL_CHUNKS * 2)]
        chunks = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                chunks.extend(self._chunk() for _ in range(CAL_CHUNKS))
        finally:
            os.sched_setaffinity(0, cpus)
        return chunks

    def _on_alarm(self, _signum, _frame) -> None:
        if self._window is None:
            return
        start = time.perf_counter()
        self._window.append(self._chunk())
        self._spent += time.perf_counter() - start

    def measure(self, fn, inline=False):
        """Run fn() inside a calibration window.

        Returns (result, seconds, scale, cpu_seconds); seconds and
        cpu_seconds exclude the in-op samples, and seconds * scale is the
        reference-speed time.
        """
        window = self._on_each_cpu()
        self._spent = 0.0
        if inline:
            self._window = window
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._window = None
        window.extend(self._on_each_cpu())
        reading = trimmed_mean(window)
        self.readings.append(reading)
        return result, elapsed - self._spent, CAL_REF_S / reading, cpu - self._spent


# ------------------------------------------------------------------- tracing


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def duration(self) -> float:
        """Reference-speed duration (see Calibrator)."""
        return (self.end - self.start) * self.scale


class Tracer:
    """In-memory spans with name, start, end and parent; written out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(len(self.spans), name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else None, dict(attrs))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def rescale(self, first: int, factor: float) -> None:
        """Apply one calibration factor to every span recorded since index `first`."""
        for span in self.spans[first:]:
            span.scale = factor

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.named(name)]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "scale": s.scale,
                     **({"attrs": s.attrs} if s.attrs else {})}
                    for s in self.spans
                ],
                fh,
            )
            fh.write("\n")


def src_lines(src_dir: str) -> int:
    """Lines of Python under the program's source tree."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(src_dir):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total
