"""The trapwall benchmark: two seeded workloads driven through `trapwall.cli.main`.

Usage, from the root of a source checkout (the program is imported from src/):

    python3 bench/run.py --workload {search_scan,cli_requests} \
        --seed N --seconds S --trace {0,1}

One process runs one workload, with one thread and one client in a closed
loop: each `cli.main(argv)` call starts when the previous one has returned,
exactly as the console script calls it, with stdout and stderr captured in
memory. A workload is a fixed, seeded list of requests (one round). The
first round is checked against the benchmark's own arithmetic (`checks`,
which shares no code with trapwall); every later round must print
byte-identical output. Rounds repeat until --seconds have passed. Every
round repeats the same requests, so a cache of results across calls would
show as a speed-up; the program has none.

--trace 0 prints the end-to-end metrics. A shared virtual machine can run
tens of percent slower for seconds to minutes at a time, so wall_s and
latency_p50_ms use each request's fastest call of the run ("best"), as timeit
reports the best of its repeats. The tail is taken over every call: only
calls give it ten samples beyond it on search_scan, which has nine requests,
and over runs of tens of seconds it spread less than the slowest request's
best:
  setup_s          median wall time of a fresh `python3 -c "import trapwall.cli"`,
                   sampled after each round (at least SETUP_SAMPLES times)
  wall_s           the round's wall time from best calls: their sum
  items_per_s      scanned (r, n) cases (search_scan) or requests
                   (cli_requests) per second of wall_s
  latency_p50_ms   median over the round's requests of their best call
  latency_tail_ms  over every timed call of the run, the highest whole
                   percentile with at least ten calls beyond it
  ok_ratio         1 - failed_ratio: calls with the predicted exit code and a
                   correct output, over calls attempted
  peak_rss_mib     peak resident memory of this process
The notes printed before the metrics give the median and fastest round.

--trace 1 alternates untraced rounds with rounds that have a span around
every public function of each layer module (see `tracing`), and prints
per-layer metrics for one round: counts, and self times of the fastest traced
round. trace.overhead_ratio compares the best calls of traced and untraced
rounds. Spans are written to bench/out/<workload>.spans.tsv.gz. No layer
queues work in this single-threaded program, so no layer has a wait time to
report.

The last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PACKAGE = "trapwall"
LAYERS = ("sexagesimal", "geometry", "wall_solver", "party_wall", "cli")
SETUP_SAMPLES = 21  # at least this many; one is taken after every round
TRACE_DIR = os.path.join(HERE, "out")
NO_SPANS = (0, 0, 0, 0)  # calls, raised, self ns, span ns of a function that never ran
CHECK_ERRORS = (checks.CheckError, ValueError, KeyError, TypeError, IndexError, AttributeError)


def load_program(src: str) -> dict:
    """Import the layer modules from src/, refusing any other copy of the package."""
    if not os.path.isfile(os.path.join(src, PACKAGE, "cli.py")):
        raise SystemExit(f"bench: no {PACKAGE} sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    for module in modules.values():
        if not os.path.abspath(module.__file__).startswith(src + os.sep):
            raise SystemExit(f"bench: imported {module.__file__}, not the copy under {src}")
    return modules


class SetupTimer:
    """Wall times of fresh interpreters importing trapwall.cli.

    Samples are taken between rounds, so that their median covers the whole
    run and not just its first seconds.
    """

    def __init__(self, src: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=src)
        probe = subprocess.run(
            [sys.executable, "-c", f"import {PACKAGE}.cli as m; print(m.__file__)"],
            env=self.env, capture_output=True, text=True, check=True,
        )
        if not os.path.abspath(probe.stdout.strip()).startswith(src + os.sep):
            raise SystemExit(f"bench: a fresh interpreter imported {probe.stdout.strip()}")
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {PACKAGE}.cli"],
            env=self.env, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        self.times.append(time.perf_counter() - start)


class Runner:
    """Sends one workload's requests to cli.main and judges every reply."""

    def __init__(self, cli, requests: list[workloads.Request]) -> None:
        self.cli = cli
        self.requests = requests
        self.replies: list[tuple] = []  # (exit code, stdout, stderr) of the checked round
        self.passed: list[bool] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.facts: dict[str, int] = {}

    def call(self, argv: list[str]) -> tuple:
        argv = list(argv)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails this call, not the run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue(), elapsed

    def _fail(self, request: workloads.Request, reason: str) -> None:
        self.failures.append(f"{' '.join(request.argv)}: {reason}")

    def check_round(self) -> None:
        """One untimed round whose outputs are checked by the benchmark's own arithmetic."""
        for request in self.requests:
            code, out, err, _ = self.call(request.argv)
            self.attempted += 1
            self.replies.append((code, out, err))
            try:
                checks.require(code == request.expect_exit, f"exit {code!r}, expected {request.expect_exit}")
                for key, value in request.check(out, err).items():
                    self.facts[key] = self.facts.get(key, 0) + value
            except CHECK_ERRORS as exc:
                self.passed.append(False)
                self._fail(request, str(exc))
            else:
                self.passed.append(True)

    def round(self, index: int, tracer: Tracer | None = None) -> list[int]:
        """One timed round; each call's ns. Replies must match the checked round."""
        gc.collect()
        latencies = []
        for i, request in enumerate(self.requests):
            if tracer is not None:
                tracer.request = index * len(self.requests) + i
            code, out, err, elapsed = self.call(request.argv)
            latencies.append(elapsed)
            self.attempted += 1
            if not self.passed[i]:
                self._fail(request, "failed its check")
            elif (code, out, err) != self.replies[i]:
                self._fail(request, "output differs from the checked round")
        return latencies

    def measure(self, seconds: float, after_round=lambda: None) -> list[list[int]]:
        """Timed rounds until `seconds` have passed; after_round runs untimed after each."""
        end = time.perf_counter() + seconds
        rounds: list[list[int]] = []
        while not rounds or time.perf_counter() < end:
            rounds.append(self.round(len(rounds)))
            after_round()
        return rounds

    def measure_traced(self, seconds: float, tracer: Tracer, layers: dict) -> tuple[list, list]:
        """Untraced and traced rounds in turn until `seconds` have passed; spans only in the traced."""
        end = time.perf_counter() + seconds
        untraced: list[list[int]] = []
        traced: list[list[int]] = []
        while not traced or time.perf_counter() < end:
            untraced.append(self.round(len(untraced)))
            tracer.install(layers, PACKAGE)
            try:
                traced.append(self.round(len(traced), tracer))
            finally:
                tracer.uninstall()
        return untraced, traced

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def tail_percentile(samples: list[int]) -> tuple[int, int]:
    """(p, index) of the highest whole percentile of sorted samples with at least ten beyond it.

    With fewer than eleven samples no percentile qualifies and the maximum is taken.
    """
    count = len(samples)
    for p in range(99, 0, -1):
        index = -(-p * count // 100) - 1  # nearest rank
        if count - 1 - index >= 10:
            return p, index
    return 100, count - 1


def end_to_end(runner: Runner, rounds: list[list[int]], setup: list[float]) -> tuple[dict, list[str]]:
    best = sorted(map(min, zip(*rounds)))  # each request's fastest call of the run
    wall_s = sum(best) / 1e9
    calls = sorted(elapsed for timed in rounds for elapsed in timed)
    p, index = tail_percentile(calls)
    items = sum(request.items for request in runner.requests)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(best) / 1e6, "ms"),
        "latency_tail_ms": (calls[index] / 1e6, "ms"),
        "ok_ratio": (1 - len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    round_s = [sum(r) / 1e9 for r in rounds]
    notes = [
        f"{len(rounds)} rounds of {len(runner.requests)} calls and {items} items; "
        f"round wall time median {statistics.median(round_s):.4f} s, min {min(round_s):.4f} s",
        f"latency_tail_ms is p{p} of {len(calls)} calls ({len(calls) - 1 - index} beyond it)",
        f"failed_ratio {len(runner.failures) / runner.attempted} ({len(runner.failures)} of {runner.attempted})",
        f"setup_s is the median of {len(setup)} interpreter starts",
    ]
    return metrics, notes


def per_layer(runner: Runner, untraced: list[list[int]], traced: list[list[int]], tracer: Tracer) -> tuple[dict, list[str]]:
    per_round = len(runner.requests)
    totals = list(tracer.totals(lambda request: request // per_round).values())

    def stat(name: str, field: int) -> float:
        pick = statistics.median_low if field < 2 else min  # counts; times of the fastest round
        return pick(t.get(name, NO_SPANS)[field] for t in totals)

    def layer_self(layer: str) -> float:
        return min(sum(v[2] for k, v in t.items() if k.startswith(layer + ".")) for t in totals)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0  # a ratio with no base reads 0; its base is reported

    def calls(name: str) -> float:
        return stat(name, 0)

    def self_s(name: str) -> float:
        return stat(name, 2) / 1e9

    cases = sum(r.items for r in runner.requests if r.kind == "search")
    wall_codes = [code for r, (code, _, _) in zip(runner.requests, runner.replies) if r.kind == "wall"]
    output_bytes = sum(len(out.encode()) for _, out, _ in runner.replies)
    overall = tracer.totals(lambda request: 0)[0]  # every traced round together

    def span(name: str) -> int:
        return overall.get(name, NO_SPANS)[3]

    oracle_share = ratio(span("wall_solver.verify_split"), span("wall_solver.search_hits"))
    overhead = sum(map(min, zip(*traced))) / sum(map(min, zip(*untraced)))
    s, c, r = "s", "count", "ratio"
    metrics = {
        "sexagesimal.parse_sex.calls": (calls("sexagesimal.parse_sex"), c),
        "sexagesimal.parse_sex.self_s": (self_s("sexagesimal.parse_sex"), s),
        "sexagesimal.rational_to_sex.calls": (calls("sexagesimal.rational_to_sex"), c),
        "sexagesimal.rational_to_sex.self_s": (self_s("sexagesimal.rational_to_sex"), s),
        "sexagesimal.rational_to_sex.raised": (stat("sexagesimal.rational_to_sex", 1), c),
        "sexagesimal.exact_ratio": (ratio(
            calls("sexagesimal.rational_to_sex") - stat("sexagesimal.rational_to_sex", 1),
            calls("sexagesimal.rational_to_sex")), r),
        "sexagesimal.truncate_sex.calls": (calls("sexagesimal.truncate_sex"), c),
        "sexagesimal.truncate_sex.self_s": (self_s("sexagesimal.truncate_sex"), s),
        "sexagesimal.sqrt_sex.self_s": (self_s("sexagesimal.sqrt_sex"), s),
        "sexagesimal.is_regular.calls": (calls("sexagesimal.is_regular"), c),
        "sexagesimal.is_regular.self_s": (self_s("sexagesimal.is_regular"), s),
        "sexagesimal.self_s": (layer_self("sexagesimal") / 1e9, s),
        "geometry.transversal_at.calls": (calls("geometry.transversal_at"), c),
        "geometry.transversal_at.self_s": (self_s("geometry.transversal_at"), s),
        "geometry.cumulative_area.calls": (calls("geometry.cumulative_area"), c),
        "geometry.cumulative_area.self_s": (self_s("geometry.cumulative_area"), s),
        "geometry.complement_area.calls": (calls("geometry.complement_area"), c),
        "geometry.complement_area.self_s": (self_s("geometry.complement_area"), s),
        "geometry.self_s": (layer_self("geometry") / 1e9, s),
        "wall_solver.cases": (cases, c),
        "wall_solver.hit_ratio": (ratio(runner.facts.get("hits", 0), cases), r),
        "wall_solver.search_hits.span_s": (stat("wall_solver.search_hits", 3) / 1e9, s),
        "wall_solver.search_hits.self_s": (self_s("wall_solver.search_hits"), s),
        "wall_solver.scan_ns_per_case": (ratio(stat("wall_solver.search_hits", 2), cases), "ns"),
        "wall_solver.verify_split.calls": (calls("wall_solver.verify_split"), c),
        "wall_solver.verify_split.self_s": (self_s("wall_solver.verify_split"), s),
        "wall_solver.oracle_share": (oracle_share, r),
        "wall_solver.solve_k0.calls": (calls("wall_solver.solve_k0"), c),
        "wall_solver.solve_k0.self_s": (self_s("wall_solver.solve_k0"), s),
        "wall_solver.no_solution_ratio": (ratio(wall_codes.count(1), len(wall_codes)), r),
        "wall_solver.self_s": (layer_self("wall_solver") / 1e9, s),
        "party_wall.plan_wall.calls": (calls("party_wall.plan_wall"), c),
        "party_wall.plan_wall.self_s": (self_s("party_wall.plan_wall"), s),
        "party_wall.scribe_trace_smt26.self_s": (self_s("party_wall.scribe_trace_smt26"), s),
        "party_wall.scribe_trace_obverse1.self_s": (self_s("party_wall.scribe_trace_obverse1"), s),
        "party_wall.self_s": (layer_self("party_wall") / 1e9, s),
        "cli.main.calls": (calls("cli.main"), c),
        "cli.wall_requests": (len(wall_codes), c),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), s),
        "cli.self_s": (layer_self("cli") / 1e9, s),
        "cli.render.calls": (calls("cli.render"), c),
        "cli.value_record.calls": (calls("cli.value_record"), c),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_ratio": (overhead, r),
    }
    notes = [f"{len(traced)} traced and {len(untraced)} untraced rounds; counts per round, times of the fastest round"]
    for layer in LAYERS:
        layer_ns = sum(v[2] for k, v in overall.items() if k.startswith(layer + "."))
        notes.append(f"{layer} self time {100 * ratio(layer_ns, span('cli.main')):.1f}% of cli.main span time")
    parser_share = ratio(overall.get("cli.build_parser", NO_SPANS)[2], span("cli.main"))
    notes.append(f"cli.build_parser self time {100 * parser_share:.1f}% of cli.main span time")
    by_request = tracer.totals(lambda request: request % per_round)
    for i, request in enumerate(runner.requests):
        if request.kind == "search":
            t = by_request[i]
            main_ns = t.get("cli.main", NO_SPANS)[3]
            notes.append(
                f"{' '.join(request.argv[:5])}: {main_ns / len(traced) / 1e6:.1f} ms a call, "
                f"scan self {100 * ratio(t.get('wall_solver.search_hits', NO_SPANS)[2], main_ns):.1f}%, "
                f"verify_split {100 * ratio(t.get('wall_solver.verify_split', NO_SPANS)[3], main_ns):.1f}%"
            )
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    modules = load_program(src)
    runner = Runner(modules["cli"], workloads.WORKLOADS[args.workload](args.seed))
    runner.check_round()

    if args.trace == 0:
        setup = SetupTimer(src)
        rounds = runner.measure(args.seconds, setup.sample)
        while len(setup.times) < SETUP_SAMPLES:
            setup.sample()
        metrics, notes = end_to_end(runner, rounds, setup.times)
    else:
        tracer = Tracer()
        untraced, traced = runner.measure_traced(args.seconds, tracer, modules)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}.spans.tsv.gz"))
        metrics, notes = per_layer(runner, untraced, traced, tracer)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = runner.result({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
