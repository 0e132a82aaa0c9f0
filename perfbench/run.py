"""The repository benchmark: seeded closed-loop workloads over ``repro``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 25
    python3 perfbench/run.py --workload store-mixed --trace 1
    python3 perfbench/run.py            # every workload, one table

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``explore-cold`` -- ``repro.explore`` / ``repro.reach`` on generated
  terms, every request against cold kernel caches;
* ``check-stream`` -- equivalence requests as JSON lines through
  ``repro.store.batch.serve`` without a store, kernel caches warm;
* ``store-mixed`` -- the same ``serve`` loop over a fresh on-disk
  ``VerdictStore``: skewed repeats of small pairs, misses and hits.

Each is a closed loop: one client, one process, the next request sent
when the previous answer is in.  Rounds of requests run until
``--seconds`` have passed (and at least 100 requests were answered); a
round is never cut short.  Every answer is checked against the answer
its construction fixes (``workloads.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same rounds untraced and then traced (``spans.py``) and reports
per-layer metrics, per round, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch files of a run (stores, span dumps); ignored by git.
OUT = HERE / ".out"

WORKLOADS = ("explore-cold", "check-stream", "store-mixed")
#: Every run answers at least this many requests, so that the 90th
#: percentile has at least ten samples beyond it.
MIN_REQUESTS = 100
#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_REPEATS = 7

#: The speed of the host drifts: on a 2-vCPU Xeon VM (2.1 GHz), one
#: pure-Python loop took 45 ms at one time and 24 ms half an hour later,
#: and swung between 24 and 42 ms within one minute; every wall-clock
#: time moved with it.  So a fixed reference loop runs between requests
#: (at most every SAMPLE_EVERY_S, outside the timed region), and a
#: round's times are scaled by REFERENCE_S / (the loop's median time over
#: the round): times are seconds on a host where the loop takes
#: REFERENCE_S.  The loop shares no code with ``repro``, so a change to
#: the program moves scaled times exactly as much as raw ones.
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.1

#: What a fresh process does before it can answer its first request.
_SETUP_CODE = {
    "explore-cold": ("import repro\n"
                     "from repro.calculi import registry\n"
                     "registry.resolve('bpi'); registry.resolve('lossy')\n"),
    "check-stream": ("import repro\n"
                     "from repro.store import batch\n"
                     "from repro.calculi import registry\n"
                     "registry.resolve('bpi')\n"),
    "store-mixed": ("import sys, repro\n"
                    "from repro.store import batch\n"
                    "from repro.store.db import VerdictStore\n"
                    "from repro.calculi import registry\n"
                    "registry.resolve('bpi')\n"
                    "VerdictStore(sys.argv[1]).close()\n"),
}

#: Per-layer metrics of a traced run: layer self time and entries per
#: round, counts per round from the program's public results, and ratios.
PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in ("core.parser", "core.canonical", "core.substitution",
                     "core.semantics", "flow", "store.codec")
       for kind, unit in (("calls", "count/round"), ("self_s", "s/round"))},
    **{f"{layer}.self_s": "s/round"
       for layer in ("api", "core.reduction", "calculi.bpi",
                     "calculi.lossy", "lts.graph", "lts.weak",
                     "equiv.check", "equiv.onthefly", "store.db",
                     "store.batch")},
    "store.db.lookup_self_s": "s/round",
    "store.db.record_self_s": "s/round",
    "lts.states": "count/round",
    "equiv.pairs": "count/round",
    "core.syntax.interned": "count/round",
    "core.syntax.intern_hit_ratio": "ratio",
    "flow.refuted_share": "ratio",
    "store.db.hit_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.rounds": "count",
    "host.loop_s": "s",
}

END_TO_END_UNITS = {
    "setup_s": "s", "request_p50_s": "s", "request_p90_s": "s",
    "throughput_rps": "1/s", "states_per_s": "1/s",
    "decided_share": "ratio", "peak_rss_mb": "MB",
}


# -- outcomes -----------------------------------------------------------------

@dataclass
class Tally:
    """What a run of rounds answered, and how fast."""

    seconds: list[float] = field(default_factory=list)
    decided: int = 0
    failed: int = 0
    explored: int = 0       # states of complete explorations
    states: int = 0         # closed-form states of the terms answered
    state_seconds: float = 0.0
    reaches: int = 0
    refuted: int = 0
    # per round: requests / busy time and states / time spent on them
    round_rps: list[float] = field(default_factory=list)
    round_states_per_s: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # per round
    errors: list[str] = field(default_factory=list)

    def end_round(self, done: int, states: int, state_s: float,
                  scale: float) -> None:
        """Scale the times of the round that began at request *done* to
        the reference host, and note the round's rates."""
        self.seconds[done:] = [t * scale for t in self.seconds[done:]]
        self.state_seconds = state_s + (self.state_seconds - state_s) * scale
        self.scales.append(scale)
        self.round_rps.append((len(self.seconds) - done)
                              / sum(self.seconds[done:]))
        self.round_states_per_s.append((self.states - states)
                                       / (self.state_seconds - state_s))

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


class InternTally:
    """Intern-table counts summed over cache lifetimes (a lifetime ends
    at ``clear_caches``); read from ``repro.core.cache_stats``."""

    def __init__(self) -> None:
        self.interned = self.hits = self.misses = 0
        self.mark()

    def mark(self) -> None:
        from repro.core import cache_stats
        s = cache_stats()
        self._base = (s["hits"], s["misses"])

    def flush(self) -> None:
        from repro.core import cache_stats
        s = cache_stats()
        self.interned += s["interned"]
        self.hits += s["hits"] - self._base[0]
        self.misses += s["misses"] - self._base[1]
        self.mark()


# -- workloads ----------------------------------------------------------------

class Workload:
    """Runs the rounds of one workload and checks every answer."""

    name = ""
    #: The layer of the span the benchmark opens around each request.
    root = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.make_round = workloads.ROUNDS[self.name]
        self.interns: InternTally | None = None
        self.clock: HostClock | None = None

    def fresh_kernel(self) -> None:
        """Cold kernel caches, outside any timed region."""
        from repro.core import clear_caches
        if self.interns is not None:
            self.interns.flush()
        clear_caches()
        gc.collect()
        if self.interns is not None:
            self.interns.mark()

    def prepare(self) -> None:
        """Untimed work before the first round."""

    def tick(self) -> None:
        """Between two requests: let the host clock take a sample."""
        if self.clock is not None:
            self.clock.tick()

    def run_round(self, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the rounds opened."""


class ExploreCold(Workload):
    name = "explore-cold"
    root = "request"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.entry: Callable[[Any], Any] = self.request

    @staticmethod
    def request(req: Any) -> Any:
        import repro
        if req.kind == "explore":
            return repro.explore(req.src, calculus=req.calculus)
        return repro.reach(req.src, req.chan, calculus=req.calculus)

    def run_round(self, index: int, tally: Tally) -> None:
        clock = time.perf_counter
        for req in self.make_round(self.seed, index):
            self.tick()
            self.fresh_kernel()
            t0 = clock()
            try:
                result = self.entry(req)
            except Exception as exc:  # a request error is a failed op
                tally.seconds.append(clock() - t0)
                tally.fail(f"{req.family}: {exc!r}")
                continue
            dt = clock() - t0
            tally.seconds.append(dt)
            if req.kind == "explore":
                if not result.complete:
                    continue  # undecided: a budget tripped
                if result.n_states != req.answer:
                    tally.fail(f"{req.family}: {result.n_states} states, "
                               f"expected {req.answer}")
                    continue
                tally.explored += result.n_states
                tally.states += result.n_states
                tally.state_seconds += dt
            else:
                tally.reaches += 1
                tally.refuted += result.stats.get("presolve") == "flow"
                if result.is_unknown:
                    continue
                if bool(result) != req.answer:
                    tally.fail(f"{req.family} reach {req.chan}: "
                               f"{result.truth.value}")
                    continue
            tally.decided += 1


class ServeWorkload(Workload):
    """Requests fed one at a time through ``repro.store.batch.serve``."""

    root = "store.batch"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.store import batch
        self.entry: Callable[..., int] = batch.serve
        self.store: Any = None

    def ask(self, req: Any, tally: Tally) -> dict[str, Any] | None:
        """Serve *req*; the answer line, or None when it failed."""
        self.tick()
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            self.entry(io.StringIO(req.line + "\n"), out, store=self.store)
        except Exception as exc:  # a request error is a failed op
            tally.seconds.append(time.perf_counter() - t0)
            tally.fail(f"{req.family}: {exc!r}")
            return None
        dt = time.perf_counter() - t0
        tally.seconds.append(dt)
        tally.states += req.states
        tally.state_seconds += dt
        try:
            answer = json.loads(out.getvalue())
        except ValueError:
            tally.fail(f"{req.family}: no answer line")
            return None
        if "error" in answer:
            tally.fail(f"{req.family}: {answer['error']}")
            return None
        truth = answer.get("truth")
        if truth == "unknown":
            return answer  # undecided
        if truth != ("true" if req.answer else "false"):
            tally.fail(f"{req.family}: {truth}, expected {req.answer}")
            return None
        tally.decided += 1
        return answer


class CheckStream(ServeWorkload):
    name = "check-stream"

    def prepare(self) -> None:
        # A live service has answered these shapes before: warm the kernel.
        self.run_round(-1, Tally())

    def run_round(self, index: int, tally: Tally) -> None:
        for req in self.make_round(self.seed, index):
            self.ask(req, tally)


class StoreMixed(ServeWorkload):
    name = "store-mixed"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stores: list[dict[str, int]] = []

    def run_round(self, index: int, tally: Tally) -> None:
        from repro.store.db import VerdictStore
        self.close()
        self.fresh_kernel()
        path = OUT / f"store-{os.getpid()}.db"
        path.unlink(missing_ok=True)
        self.store = VerdictStore(path)
        decided: set[int] = set()
        for req in self.make_round(self.seed, index):
            answer = self.ask(req, tally)
            if answer is None or req.cap == workloads.STARVED_CAP:
                continue
            # A congruent respelling of a decided pair shares its row.
            if req.pair in decided and answer["source"] != "store":
                tally.decided -= 1
                tally.fail(f"{req.family}: repeat of a decided pair "
                           f"missed the store")
            elif answer["truth"] != "unknown":
                decided.add(req.pair)
        self.stores.append(dict(self.store.counters))

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            Path(self.store.path).unlink(missing_ok=True)
            self.store = None


WORKLOAD_TYPES = {w.name: w for w in (ExploreCold, CheckStream, StoreMixed)}


# -- measuring ----------------------------------------------------------------

def reference_loop() -> int:
    """Fixed interpreter work: dict updates on tuple keys, str, a sort."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(20_000):
        key = (i % 257, i % 31)
        counts[key] = counts.get(key, 0) + 1
        acc += len(str(i))
    return acc + len(sorted(counts.items()))


class HostClock:
    """Samples of :func:`reference_loop`, taken between requests."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def tick(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def take_scale(self) -> float:
        """REFERENCE_S / (median sample since the last call); the latest
        sample also opens the next period."""
        scale = REFERENCE_S / statistics.median(self.samples)
        self.samples = self.samples[-1:]
        return scale


def run_rounds(work: Workload, tally: Tally, *, seconds: float | None = None,
               rounds: int | None = None) -> int:
    """Whole rounds until *seconds* passed and MIN_REQUESTS were answered,
    or exactly *rounds* of them; returns how many ran."""
    t_end = time.perf_counter() + (seconds or 0.0)
    index = 0
    work.clock = clock = HostClock()
    clock.sample()
    while True:
        if rounds is not None and index >= rounds:
            return index
        if (rounds is None and index and time.perf_counter() >= t_end
                and len(tally.seconds) >= MIN_REQUESTS):
            return index
        done, states, state_s = (len(tally.seconds), tally.states,
                                 tally.state_seconds)
        work.run_round(index, tally)
        clock.sample()
        tally.end_round(done, states, state_s, clock.take_scale())
        index += 1


def setup_seconds(workload: str) -> float:
    """Median time from starting a fresh interpreter to ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = _SETUP_CODE[workload] + "print('ready', flush=True)\n"
    db = OUT / f"setup-{os.getpid()}.db"
    times = []
    clock = HostClock()
    clock.sample()
    for _ in range(SETUP_REPEATS):
        db.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, str(db)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline() if child.stdout else ""
            ready = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup of {workload} failed")
        clock.sample()
        times.append(ready * clock.take_scale())
    db.unlink(missing_ok=True)
    return statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    work = WORKLOAD_TYPES[workload](seed)
    setup = setup_seconds(workload)
    try:
        work.prepare()
        tally = Tally()
        run_rounds(work, tally, seconds=seconds)
    finally:
        work.close()
    lat = tally.seconds
    metrics = {
        "setup_s": setup,
        "request_p50_s": statistics.median(lat),
        "request_p90_s": statistics.quantiles(lat, n=10)[-1],
        # Rates are medians over rounds: every round asks the same mix,
        # and a median shrugs off the seconds when a shared host runs
        # faster or slower than usual.
        "throughput_rps": statistics.median(tally.round_rps),
        "states_per_s": statistics.median(tally.round_states_per_s),
        "decided_share": tally.decided / len(lat),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    res = result(tally, {k: (v, END_TO_END_UNITS[k])
                         for k, v in metrics.items()})
    res["host_loop_s"] = REFERENCE_S / statistics.fmean(tally.scales)
    return res


def traced(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """Half the time untraced, then the same rounds traced."""
    import spans

    work = WORKLOAD_TYPES[workload](seed)
    recorder = spans.Recorder()
    pairs = [0]

    def count_pairs(verdict: Any) -> None:
        states = verdict.stats.get("states")
        if isinstance(states, int):
            pairs[0] += states

    recorder.on_result("repro.api.check", count_pairs)
    try:
        work.prepare()
        plain = Tally()
        rounds = run_rounds(work, plain, seconds=seconds / 2)
        recorder.install()
        work.entry = recorder.wrap_call(work.root, work.entry)
        if isinstance(work, StoreMixed):
            work.stores.clear()
        work.interns = InternTally()
        tally = Tally()
        run_rounds(work, tally, rounds=rounds)
        work.interns.flush()
    finally:
        recorder.uninstall()
        work.close()
    recorder.write(OUT / f"spans-{workload}.bin")
    layers = recorder.summary()
    per_round = 1.0 / rounds
    scale = statistics.fmean(tally.scales)  # span times to the reference
    interns = work.interns
    stores = getattr(work, "stores", [])
    lookups = sum(s["lookups"] for s in stores)
    counts = {
        "lts.states": tally.explored,
        "equiv.pairs": pairs[0],
        "core.syntax.interned": interns.interned,
    }
    ratios = {
        "core.syntax.intern_hit_ratio":
            interns.hits / max(1, interns.hits + interns.misses),
        "flow.refuted_share": tally.refuted / max(1, tally.reaches),
        "store.db.hit_ratio": sum(s["hits"] for s in stores) / max(1, lookups),
        "trace.overhead": sum(tally.seconds) / sum(plain.seconds),
    }
    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER.items():
        if name in counts:
            value = counts[name] * per_round
        elif name in ratios:
            value = ratios[name]
        elif name == "trace.rounds":
            value = float(rounds)
        elif name == "host.loop_s":
            value = REFERENCE_S / scale
        else:
            layer, _, kind = name.rpartition(".")
            if kind.endswith("_self_s"):  # store.db.lookup_self_s
                layer, kind = f"{layer}.{kind[:-7]}", "self_s"
            value = layers[layer][kind] * per_round
            if kind == "self_s":
                value *= scale
        metrics[name] = (value, unit)
    plain.failed += tally.failed
    plain.errors += tally.errors
    plain.seconds += tally.seconds
    return result(plain, metrics)


def result(tally: Tally,
           metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    return {"correct": tally.failed == 0, "attempted": len(tally.seconds),
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            **({"errors": tally.errors} if tally.errors else {})}


# -- command line -------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of every metric."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} failed", file=sys.stderr)
            return 1
        rows[workload] = json.loads(lines[-1])
    for workload, res in rows.items():
        print(f"== {workload}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one table)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    res = run(args.workload, args.seed, args.seconds)
    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if "host_loop_s" in res:
        print(f"{args.workload} host reference loop "
              f"{res.pop('host_loop_s') * 1000:.2f} ms: times above are "
              f"scaled to {REFERENCE_S * 1000:.0f} ms")
    for why in res.pop("errors", ()):
        print(f"FAILED {why}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
