"""End-to-end benchmark of the reproduction, as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measured command is a fresh
``python -m repro.cli`` process (``PYTHONPATH=src``) with fresh state
directories under ``.perfbench-work/`` and ``--jobs 1``.  Workloads:

* ``paper-sweep`` -- the paper's E3 acceptance sweep (4 cores, 12 tasks,
  FP-TS/FFD/WFD, paper overheads, 200 sets per point), scalar then
  ``--batch``, repeated for S seconds;
* ``criteria-campaign`` -- the default ``repro campaign --criteria`` grid
  on an empty ``--cache``, then five times on the filled one;
* ``admission-open`` -- open-loop ``POST /v1/admission`` traffic against
  ``repro serve`` at 40 and 80 req/s, then a closed loop, 2 connections.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs each command once untraced and once through
``perfbench/launch.py`` (spans at every layer boundary) and prints the
per-layer metrics, the tracing overhead, and checks that both runs gave
identical outputs.  Human-readable lines come first; the last line of
stdout is one JSON object.  ``perfbench/manifest.json`` documents the
workloads, the metric mapping and the committed output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (benchmark-local module)

MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
WORKLOADS = ("paper-sweep", "criteria-campaign", "admission-open")
ALGORITHMS = ("FP-TS", "FFD", "WFD")
#: The CLI's default sweep seed; output digests are committed for it.
DEFAULT_SEED = 2011
#: Percentile ladder for tails: report the highest one with at least
#: ten samples beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: List[float]) -> Tuple[Optional[float], float]:
    """(p, value): the highest ladder percentile with >= 10 samples
    beyond it, or (None, max) when there are too few samples."""
    n = len(samples)
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p, percentile(samples, p)
    return None, max(samples) if samples else 0.0


def median(values: List[float]) -> float:
    return statistics.median(values)


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop: the host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """How slow the host runs right now, relative to the reference.

    On a shared host the speed of identical CPU-bound work can drift by
    15-25% over tens of seconds.  Each timing is therefore
    bracketed by probes; dividing it by the mean of the probes before
    and after, over ``manifest.json``'s ``reference_probe_s``, reports
    it at the reference host speed.  The program under test cannot
    influence the probe, which runs in this process while no child is.
    """

    def __init__(self) -> None:
        self.reference_s = MANIFEST["reference_probe_s"]
        self.last = probe()

    def mark(self) -> float:
        """Slowdown factor over the interval since the previous mark."""
        now = probe()
        factor = (self.last + now) / 2 / self.reference_s
        self.last = now
        return factor


class Samples:
    """One kind of timing: raw seconds and seconds at reference speed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw: List[float] = []
        self.ref: List[float] = []

    def add(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.ref.append(seconds / factor)

    def report(self) -> float:
        """Print both medians; return the one at reference speed."""
        print(f"{self.name} = {median(self.raw):.4f} s measured, "
              f"{median(self.ref):.4f} s at reference host speed "
              f"(median of {len(self.raw)})")
        return median(self.ref)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Run:
    """One benchmark run: children, counters, and reported lines."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self._names = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh(self, stem: str) -> Path:
        """A new, unused path under the run's work directory."""
        self._names += 1
        return self.work / f"{stem}-{self._names}"

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; report it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}")
        return ok

    def argv(self, args: List[str], spans: Optional[Path]) -> List[str]:
        if spans is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(HERE / "launch.py"), str(spans), *args]

    def reap(self, proc: subprocess.Popen, timeout: float) -> int:
        """Wait for ``proc`` (killed after ``timeout``); record its RSS."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def command(self, args: List[str], spans=None) -> Tuple[float, str]:
        """Run one CLI command; (wall seconds spawn->exit, stdout)."""
        out_path = self.fresh("stdout")
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(args, spans), cwd=ROOT, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
            )
            rc = self.reap(proc, CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
        text = out_path.read_text(encoding="utf-8", errors="replace")
        self.check(rc == 0, f"repro {' '.join(args)} exited {rc}:\n{text}")
        return wall, text

    def setup_help(self, speed: HostSpeed, repeats: int = 7) -> Samples:
        """Spawn-to-exit of ``repro --help`` (after one warm-up)."""
        self.command(["--help"])
        speed.mark()
        setup = Samples("setup_s")
        for _ in range(repeats):
            setup.add(self.command(["--help"])[0], speed.mark())
        return setup


def strip_engine(text: str) -> str:
    """Command output without the engine timing line."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("engine:")
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_spans(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def import_metrics(run: Run, repeats: int = 3) -> Dict[str, float]:
    """Median per-module cumulative import times of ``repro.cli``."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, env=run.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        run.check(proc.returncode == 0, f"importtime: {proc.stderr[-400:]}")
        samples.append(layers.parse_importtime(proc.stderr))
    return {key: median([s[key] for s in samples]) for key in samples[0]}


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------


def sweep_args(seed: int, size: str) -> List[str]:
    sets = "200" if size == "full" else "4"
    return ["sweep", "--cores", "4", "--n-tasks", "12", "--algorithms",
            ",".join(ALGORITHMS), "--overheads", "paper", "--sets", sets,
            "--seed", str(seed), "--jobs", "1"]


def check_sweep(run: Run, seed: int, size: str, scalar: str, batch: str):
    table = strip_engine(scalar)
    run.check(table == strip_engine(batch),
              "scalar and --batch acceptance tables differ")
    if seed == DEFAULT_SEED and size == "full":
        run.check(
            digest(table.encode()) == MANIFEST["digests"]["paper-sweep"],
            "sweep table does not match the committed digest",
        )


def paper_sweep(run: Run, seed: int, seconds: float, size: str) -> dict:
    args = sweep_args(seed, size)
    run.command(["sweep", "--sets", "1", "--jobs", "1"])  # warm-up
    if run.trace:
        walls, tables, dumps = {}, {}, []
        for traced in (False, True):
            for mode, extra in (("scalar", []), ("batch", ["--batch"])):
                spans = run.fresh("spans") if traced else None
                wall, text = run.command(args + extra, spans=spans)
                walls[traced, mode] = wall
                tables[traced, mode] = text
                if traced:
                    dumps.append(load_spans(spans))
            check_sweep(run, seed, size, tables[traced, "scalar"],
                        tables[traced, "batch"])
        run.check(strip_engine(tables[False, "scalar"])
                  == strip_engine(tables[True, "scalar"]),
                  "traced sweep output differs from the untraced one")
        metrics = layers.span_metrics(dumps)
        metrics["trace.overhead_s"] = sum(
            walls[True, m] - walls[False, m] for m in ("scalar", "batch")
        )
        return metrics

    speed = HostSpeed()
    setup = run.setup_help(speed)
    scalar_s, batch_s = Samples("sweep_s"), Samples("sweep_batch_s")
    deadline = time.perf_counter() + seconds
    while not scalar_s.raw or time.perf_counter() < deadline:
        wall, scalar = run.command(args)
        scalar_s.add(wall, speed.mark())
        wall, batch = run.command(args + ["--batch"])
        batch_s.add(wall, speed.mark())
        check_sweep(run, seed, size, scalar, batch)
    return {
        "setup_s": setup.report(),
        "base_ms": scalar_s.report() * 1000,
        "variant_ms": batch_s.report() * 1000,
    }


# ----------------------------------------------------------------------
# criteria-campaign
# ----------------------------------------------------------------------


def campaign_args(size: str, cache: Path, csv: Path) -> List[str]:
    grid = [] if size == "full" else ["--sets", "2", "--core-counts", "2",
                                      "--task-counts", "8"]
    return ["campaign", "--criteria", *grid, "--jobs", "1",
            "--cache", str(cache), "--csv", str(csv)]


def campaign_pass(run: Run, size: str, warm_passes: int, traced: bool,
                  speed: Optional[HostSpeed] = None):
    """Cold pass on a fresh cache, then ``warm_passes`` on the filled one.

    Returns (cold, warms, cold CSV bytes, span dumps); each pass is
    (wall seconds, host factor), the factor 1 without ``speed``.
    """
    cache = run.fresh("cache")
    dumps = []

    def one(expect_cold: bool):
        csv = run.fresh("campaign").with_suffix(".csv")
        spans = run.fresh("spans") if traced else None
        wall, text = run.command(campaign_args(size, cache, csv), spans)
        if spans is not None:
            dumps.append(load_spans(spans))
        engine = [line for line in text.splitlines()
                  if line.startswith("engine:")]
        marker = " 0 hit(s)" if expect_cold else " 0 miss(es)"
        run.check(bool(engine) and marker in engine[-1],
                  f"campaign cache state: expected{marker} in {engine}")
        factor = speed.mark() if speed is not None else 1.0
        return (wall, factor), csv.read_bytes() if csv.exists() else b""

    cold, cold_csv = one(expect_cold=True)
    if size == "full":
        run.check(digest(cold_csv) == MANIFEST["digests"]["criteria-campaign"],
                  "campaign CSV does not match the committed digest")
    warms = []
    for _ in range(warm_passes):
        warm, warm_csv = one(expect_cold=False)
        warms.append(warm)
        run.check(warm_csv == cold_csv and bool(cold_csv),
                  "warm campaign CSV differs from the cold one")
    return cold, warms, cold_csv, dumps


def criteria_campaign(run: Run, seed: int, seconds: float, size: str) -> dict:
    # The campaign CLI takes no seed: its inputs are fixed, so ``seed``
    # is unused here (see manifest.json).
    warm_up = run.fresh("cache")
    run.command(campaign_args("tiny", warm_up, warm_up.with_suffix(".csv")))
    if run.trace:
        cold, warm, csv, _ = campaign_pass(run, size, 1, traced=False)
        t_cold, t_warm, t_csv, dumps = campaign_pass(run, size, 1, True)
        run.check(t_csv == csv,
                  "traced campaign CSV differs from the untraced one")
        metrics = layers.span_metrics(dumps)
        metrics["trace.overhead_s"] = (
            t_cold[0] + t_warm[0][0] - cold[0] - warm[0][0]
        )
        return metrics

    speed = HostSpeed()
    setup = run.setup_help(speed)
    cold_s, warm_s = Samples("campaign_cold_s"), Samples("campaign_warm_s")
    deadline = time.perf_counter() + seconds
    while not cold_s.raw or time.perf_counter() < deadline:
        cold, warms, _, _ = campaign_pass(run, size, 5, False, speed)
        cold_s.add(*cold)
        for warm in warms:
            warm_s.add(*warm)
    return {
        "setup_s": setup.report(),
        "base_ms": cold_s.report() * 1000,
        "variant_ms": warm_s.report() * 1000,
    }


# ----------------------------------------------------------------------
# admission-open
# ----------------------------------------------------------------------


def uunifast_discard(rng: random.Random, n: int, total: float) -> List[float]:
    while True:
        shares, left = [], total
        for i in range(1, n):
            following = left * rng.random() ** (1.0 / (n - i))
            shares.append(left - following)
            left = following
        shares.append(left)
        if max(shares) <= 1.0:
            return shares


def admission_queries(seed: int, count: int) -> List[dict]:
    """``count`` admission bodies; about 20% repeat an earlier task set.

    Fresh sets: 12 tasks, U/m uniform in [0.6, 1.0] on 4 cores
    (UUniFast-discard), periods log-uniform in [10, 1000] ms on a 1 ms
    grid, working sets 16..256 KiB.
    """
    rng = random.Random(seed)
    tasksets: List[list] = []
    for index in range(count):
        if index and rng.random() < 0.2:
            tasksets.append(tasksets[rng.randrange(index)])
            continue
        shares = uunifast_discard(rng, 12, rng.uniform(0.6, 1.0) * 4)
        tasks = []
        for number, share in enumerate(shares):
            period_us = 1000 * round(
                math.exp(rng.uniform(math.log(10), math.log(1000)))
            )
            tasks.append({
                "name": f"t{number:02d}",
                "wcet_us": max(1, round(share * period_us)),
                "period_us": period_us,
                "deadline_us": period_us,
                "wss_kib": rng.choice((16, 32, 64, 128, 256)),
            })
        tasksets.append(tasks)
    return [
        {"tasks": tasks, "cores": 4, "algorithms": list(ALGORITHMS),
         "overheads": "paper"}
        for tasks in tasksets
    ]


def taskset_key(query: dict) -> str:
    return json.dumps(query["tasks"], sort_keys=True)


def repeat_share(queries: List[dict]) -> float:
    """Share of ``queries`` whose task set was already sent earlier."""
    seen, repeats = set(), 0
    for query in queries:
        key = taskset_key(query)
        repeats += key in seen
        seen.add(key)
    return repeats / len(queries) if queries else 0.0


def oracle(queries: List[dict]) -> Dict[str, dict]:
    """In-process verdicts of repro.experiments.algorithms.accept."""
    sys.path.insert(0, str(SRC))
    from repro.experiments.algorithms import accept
    from repro.model.task import Task
    from repro.model.taskset import TaskSet
    from repro.model.time import US
    from repro.overhead.model import OverheadModel

    model = OverheadModel.paper_core_i7(12 // 4)
    verdicts: Dict[str, dict] = {}
    for query in queries:
        key = taskset_key(query)
        if key in verdicts:
            continue
        taskset = TaskSet([
            Task(name=t["name"], wcet=t["wcet_us"] * US,
                 period=t["period_us"] * US, deadline=t["deadline_us"] * US,
                 wss=t["wss_kib"] * 1024)
            for t in query["tasks"]
        ]).assign_rate_monotonic()
        verdicts[key] = {name: accept(name, taskset, 4, model)
                         for name in ALGORITHMS}
    return verdicts


class Server:
    """One ``repro serve`` child on a fresh data dir and a free port."""

    def __init__(self, run: Run, spans: Optional[Path] = None) -> None:
        self.run = run
        data_dir = run.fresh("service")
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--data-dir", str(data_dir)]
        with open(run.fresh("stderr"), "wb") as stderr:
            start = time.perf_counter()
            # Unbuffered, so the "listening on" line arrives at once.
            self.proc = subprocess.Popen(
                run.argv(args, spans), cwd=ROOT,
                env=dict(run.env, PYTHONUNBUFFERED="1"),
                stdout=subprocess.PIPE, stderr=stderr,
            )
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        while True:
            try:
                status, _ = request(self.port, "GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() - start > 60:
                self.stop()
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        rc = self.run.reap(self.proc, 30.0)
        self.proc.stdout.close()
        return rc


def request(port: int, method: str, path: str, body: bytes = b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body or None,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def drive(port: int, bodies: List[bytes], rate: Optional[float],
          seconds: float) -> List[tuple]:
    """Send ``bodies`` over at most 2 connections.

    ``rate`` set: open loop, request i due at ``t0 + i / rate``.
    ``rate`` None: closed loop for ``seconds`` (or until bodies run out).
    Returns per sent request (due, sent, done, status, response body).
    """
    results: List[Optional[tuple]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05
    stop_at = t0 + seconds

    def worker():
        while True:
            with lock:
                index = cursor[0]
                if index >= len(bodies):
                    return
                if rate is None and time.perf_counter() >= stop_at:
                    return
                cursor[0] += 1
            if rate is None:
                due = time.perf_counter()
            else:
                due = t0 + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, data = request(port, "POST", "/v1/admission",
                                       bodies[index])
            except OSError as exc:
                status, data = 0, str(exc).encode()
            results[index] = (due, sent, time.perf_counter(), status, data)

    helper = threading.Thread(target=worker)
    helper.start()
    worker()
    helper.join()
    return [r for r in results if r is not None]


def admission_session(run: Run, queries, verdicts, phases, spans=None,
                      speed: Optional[HostSpeed] = None):
    """Drive one server through the phases; check every verdict.

    Returns (per-phase (results, host factor), answers in send order);
    the factor is 1 without ``speed``.
    """
    server = Server(run, spans)
    outcomes, answers, offset = [], [], 0
    try:
        for rate, seconds, count in phases:
            chunk = queries[offset:offset + count]
            bodies = [
                json.dumps(dict(q, request_id=offset + i)).encode()
                for i, q in enumerate(chunk)
            ]
            results = drive(server.port, bodies, rate, seconds)
            factor = speed.mark() if speed is not None else 1.0
            for query, (_, _, _, status, data) in zip(chunk, results):
                answer = None
                if status == 200:
                    answer = json.loads(data)
                expected = verdicts[taskset_key(query)]
                got = answer.get("verdicts") if answer else None
                run.check(got == expected,
                          f"admission: status {status}, verdicts {got}, "
                          f"oracle {expected}")
                answers.append(answer)
            outcomes.append((results, factor))
            offset += count
    finally:
        run.check(server.stop() == 0, "repro serve did not exit cleanly")
    return outcomes, answers


def latencies_ms(results) -> List[float]:
    """Latency from the due time; a failed request misses every limit."""
    return [
        (done - due) * 1000 if status == 200 else math.inf
        for due, _, done, status, _ in results
    ]


def admission_open(run: Run, seed: int, seconds: float, size: str) -> dict:
    # The two rates alternate in ``rounds`` short chunks, not two long
    # phases, so each rate samples the whole run: host-speed swings last
    # seconds and would otherwise land on one rate only.
    rates, rounds = (40.0, 80.0), 8
    if size == "full":
        chunk_s, closed_s, closed_cap = 0.05 * seconds, 0.2 * seconds, 300
    else:
        chunk_s, closed_s, closed_cap = 0.125, 0.5, 40
    phases = [(rate, chunk_s, int(rate * chunk_s))
              for _ in range(rounds) for rate in rates]
    phases.append((None, closed_s, int(closed_cap * closed_s)))
    queries = admission_queries(seed, sum(count for _, _, count in phases))
    verdicts = oracle(queries)  # untimed, before any server starts

    def at_rate(outcomes, rate):
        return [(results, factor) for (results, factor), phase
                in zip(outcomes, phases) if phase[0] == rate]

    def open_loop(outcomes):
        return [r for rate in rates for results, _ in at_rate(outcomes, rate)
                for r in results]

    if run.trace:
        plain, plain_answers = admission_session(
            run, queries, verdicts, phases)
        spans = run.fresh("spans")
        traced, traced_answers = admission_session(
            run, queries, verdicts, phases, spans=spans)
        common = min(len(plain_answers), len(traced_answers))
        run.check(
            [a and a["verdicts"] for a in plain_answers[:common]]
            == [a and a["verdicts"] for a in traced_answers[:common]],
            "traced admission verdicts differ from the untraced ones",
        )
        fixed = open_loop(traced)
        client = {
            "latency_ms": [(done - sent) * 1000 for _, sent, done, *_ in
                           (r for results, _ in traced for r in results)],
            "lag_tail_ms": tail_percentile(
                [(sent - due) * 1000 for due, sent, *_ in fixed])[1],
            "repeat_share": repeat_share(queries[:len(traced_answers)]),
            "degraded": sum(1 for a in traced_answers
                            if a and "degraded" in a),
            "shed": sum(1 for results, _ in traced for r in results
                        if r[3] in (429, 503)),
        }
        metrics = layers.span_metrics([load_spans(spans)], client)
        metrics["trace.overhead_s"] = sum(
            done - sent for _, sent, done, *_ in fixed
        ) - sum(done - sent for _, sent, done, *_ in open_loop(plain))
        return metrics

    speed = HostSpeed()
    setup = Samples("setup_s")
    for _ in range(5):
        server = Server(run)
        run.check(server.stop() == 0, "repro serve did not exit cleanly")
        setup.add(server.setup_s, speed.mark())
    outcomes, answers = admission_session(
        run, queries, verdicts, phases, speed=speed)

    p50 = {}
    for rate in rates:
        chunks = at_rate(outcomes, rate)
        raw = [lat for results, _ in chunks
               for lat in latencies_ms(results)]
        # Median over chunks of each chunk's p50 at reference speed.
        p50[rate] = median([
            percentile(latencies_ms(results), 50) / factor
            for results, factor in chunks
        ])
        p, tail = tail_percentile(raw)
        lag = tail_percentile([(sent - due) * 1000 for results, _ in chunks
                               for due, sent, *_ in results])
        label = f"p{p:g}" if p is not None else "max"
        print(f"admit_p50_ms_r{rate:g} = {percentile(raw, 50):.4f} ms "
              f"measured, {p50[rate]:.4f} ms at reference host speed "
              f"(n={len(raw)})")
        print(f"admit_p99_ms_r{rate:g} = {tail:.4f} ms measured, reported "
              f"at {label}: the highest percentile with >= 10 of "
              f"n={len(raw)} samples beyond it "
              f"(generator lag {label} {lag[1]:.3f} ms)")
    closed = outcomes[-1][0]
    ok = [r for r in closed if r[3] == 200]
    span = (max(r[2] for r in closed) - min(r[1] for r in closed)
            if closed else 0.0)
    capacity = len(ok) / span if span > 0 else 0.0
    print(f"admit_capacity_rps = {capacity:.2f} req/s measured "
          f"(closed loop, 2 connections, {len(closed)} requests)")
    sent = queries[:len(answers)]
    print(f"repeat_share = {repeat_share(sent):.4f} "
          f"(of {len(sent)} queries sent)")
    return {
        "setup_s": setup.report(),
        "base_ms": p50[40.0],
        "variant_ms": p50[80.0],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

RUNNERS = {
    "paper-sweep": paper_sweep,
    "criteria-campaign": criteria_campaign,
    "admission-open": admission_open,
}


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run (tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(work, bool(args.trace))
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={metadata.version('numpy')}")
    try:
        values = RUNNERS[args.workload](run, args.seed, args.seconds,
                                        args.size)
        if args.trace:
            values.update(import_metrics(run))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        values["peak_rss_mb"] = run.peak_rss_kb / 1024
    print(f"fail_ratio = {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for name in sorted(units):
        value = values[name]
        print(f"{name} = {value} {units[name]}")
        metrics[name] = {"value": value if math.isfinite(value) else 1e12,
                         "unit": units[name]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
