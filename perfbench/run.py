"""E8 benchmark of liechar: one workload per run, one JSON line of results.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload e8_eigen_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
cli_p50_ms); ``--trace 1`` runs the workload once untraced and once with
spans around every layer and prints the per-layer metrics.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; a copy of
it, and the spans of a traced run, go to ``perfbench/out/``.  See README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import tempfile
from pathlib import Path

import meter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("e8_from_nothing", "e8_eigen_sweep", "e8_cli_cached")
A_COEFF_PAIRS = ((1, 4), (2, 4), (3, 4), (4, 4), (4, 5), (4, 6), (4, 7),
                 (4, 8))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_liechar(clock) -> float:
    """Import the package from this tree's ``src``; return the import time."""
    package = SRC / "liechar" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from a liechar "
                 "source tree")
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import liechar
    elapsed = clock() - t0
    if Path(liechar.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported {liechar.__file__}, not {package}")
    return elapsed


class Run:
    """State of one benchmark run: set-up figures, tally, spans, metrics."""

    def __init__(self, args, clock, import_s: float):
        # imported only now: both import liechar, put on the path above
        import spans
        import workloads as wl

        self.args = args
        self.clock = clock
        self.spans = spans
        self.wl = wl
        self.import_s = import_s
        self.tally = wl.Tally()
        self.rounds = wl.rounds_for(args.workload, args.seconds)
        self.metrics: dict = {}
        self.setup_spans: list = []
        self.run_spans: list = []
        self.counts: dict = {}
        self.cli_rounds: list = []
        self.tracer = None
        self.disk: dict = {"written": 0, "bytes": 0}
        self.chars_computed = 0

    # -- set-up ------------------------------------------------------------

    def setup(self):
        wl = self.wl
        reps = 1 if self.args.trace else wl.SETUP_REPS
        tracer = self.spans.Tracer(self.clock)
        if self.args.trace and self.args.workload != "e8_cli_cached":
            self.spans.install(tracer)
        setup_s, init_s = [], []
        try:
            for _ in range(reps):
                self.state = wl.setup_once(self.args.workload, self.clock)
                setup_s.append(self.state["setup_s"])
                init_s.append(self.state["algebra_init_s"])
        finally:
            tracer.uninstall()
        self.setup_spans = self.spans.tracer_spans(tracer)
        self.counts = dict(tracer.counts)
        self.setup_s = self.spans.median(setup_s)
        self.algebra_init_s = self.spans.median(init_s)
        if self.args.workload == "e8_cli_cached":
            self.runner = wl.CliRunner(self.clock)
            warm = []
            for _ in range(reps):
                call = self.runner.run("dim", (wl.weight(8),))
                if call.code != 0:
                    sys.exit(f"perfbench: warm-up invocation failed: "
                             f"{call.stderr.strip()}")
                warm.append(call.seconds)
            self.runner.calls.clear()
            self.setup_s += self.spans.median(warm)
        self.setup_s += self.import_s

    # -- timed work ------------------------------------------------------------

    def work(self) -> float:
        """The run's rounds; returns their summed time.  Each round's outputs
        are checked right after it, outside the timed window and the spans."""
        wall = 0.0
        self.cli_rounds = []
        if self.args.workload == "e8_eigen_sweep":
            # a fresh algebra, so every run of the work computes the same
            # Weyl dimensions in its first pass
            self.state["algebra"] = self.wl.new_algebra(self.args.workload)
        rng = random.Random(self.args.seed)
        order2 = list(self.wl.CLI_CHARS)
        for _ in range(self.rounds):
            seconds, check = self.one_round(rng, order2)
            wall += seconds
            with self.untraced():
                check()
        return wall

    def one_round(self, rng, order2):
        wl, name, clock = self.wl, self.args.workload, self.clock
        tables, tally = self.state["tables"], self.tally
        if name == "e8_from_nothing":
            algebra = wl.new_algebra(name)
            seconds, result = wl.from_nothing_phase(algebra, tables, clock)
            self.chars_computed = len(result["cache"].cached_weights()) \
                - (wl.RANK + 1)
            return seconds, lambda: wl.check_from_nothing(algebra, tables,
                                                          result, tally)
        algebra = self.state["algebra"]
        if name == "e8_eigen_sweep":
            operator = self.state["operator"]
            seconds, bad = wl.sweep_pass(algebra, operator, tables.chars, clock)
            return seconds, lambda: wl.check_sweep(operator, tables, bad, tally)
        t0 = clock()
        result = wl.cli_round(self.runner, order2, rng)
        seconds = clock() - t0
        self.cli_rounds.append(result)
        self.disk = wl.cache_stats(result)
        return seconds, lambda: wl.check_cli_round(algebra, tables, result,
                                                   tally)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.spans.install(self.tracer)

    def timed(self):
        self.wall_s = self.work()

    def traced(self):
        """The same work again with spans; per-layer figures from it."""
        wl = self.wl
        if self.args.workload == "e8_cli_cached":
            with tempfile.TemporaryDirectory(dir=wl.OUT, prefix="spans-") as tmp:
                self.runner = wl.CliRunner(self.clock, Path(tmp))
                self.traced_wall_s = self.work()
                self.run_spans, child_counts = wl.child_spans(Path(tmp))
            self.counts = dict(child_counts)
            return
        self.tracer = self.spans.Tracer(self.clock)
        self.spans.install(self.tracer)
        try:
            self.traced_wall_s = self.work()
        finally:
            self.tracer.uninstall()
        self.run_spans = self.spans.tracer_spans(self.tracer)
        for key, value in self.tracer.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def probe(self):
        """cli_p50_ms on the in-process workloads: ``verify`` requests."""
        wl = self.wl
        runner = wl.CliRunner(self.clock)
        runner.run("dim", (wl.weight(8),))  # compiles bytecode, untimed
        runner.calls.clear()
        for kind, ws in wl.CLI_PROBE:
            runner.run(kind, ws)
        wl.check_probe(runner.calls, self.tally)
        return runner.calls

    # -- metrics -------------------------------------------------------------

    def end_to_end(self):
        spans = self.spans
        if self.args.workload == "e8_cli_cached":
            calls = self.runner.calls
            rss = max(c.peak_rss_mb for c in calls)
        else:
            rss = meter.peak_rss_mb()
            calls = self.probe()
        self.metrics = {
            "wall_s": (self.wall_s, "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "cli_p50_ms": (1000 * spans.median([c.seconds for c in calls]), "ms"),
        }

    def per_layer(self):
        spans = self.spans
        all_spans = list(self.setup_spans)
        base = len(all_spans)
        all_spans.extend((n, s, e, p + base if p >= 0 else -1)
                         for n, s, e, p in self.run_spans)
        totals = spans.layer_totals(all_spans)
        counts = self.counts

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        def self_s(name):
            return totals.get(name, {}).get("self_s", 0.0)

        def incl_s(name):
            return totals.get(name, {}).get("incl_s", 0.0)

        def cli_p50_ms(part, kinds=None):
            times = [c.seconds for r in self.cli_rounds for c in r[part]
                     if kinds is None or c.kind in kinds]
            return 1000 * spans.median(times) if times else 0.0

        klimyk_s = self_s("repth.klimyk")
        weights = counts.get("repth.klimyk.weights", 0)
        m = {
            "repth.klimyk.calls": (calls("repth.klimyk"), "count"),
            "repth.klimyk.computed": (counts.get("repth.klimyk.computed", 0), "count"),
            "repth.klimyk.self_s": (klimyk_s, "s"),
            "repth.klimyk.weights": (weights, "count"),
            "repth.klimyk.weights_per_s": (weights / klimyk_s if klimyk_s else 0.0, "1/s"),
            "repth.orbit.calls": (counts.get("repth.orbit.calls", 0), "count"),
            "repth.orbit.weights": (counts.get("repth.orbit.weights", 0), "count"),
            "repth.freudenthal.calls": (calls("repth.freudenthal"), "count"),
            "repth.freudenthal.self_s": (self_s("repth.freudenthal"), "s"),
            "repth.weyl_dim.calls": (calls("repth.weyl_dim"), "count"),
            "repth.weyl_dim.self_s": (self_s("repth.weyl_dim"), "s"),
            "repth.dominance_gap.calls": (calls("repth.dominance_gap"), "count"),
            "repth.dominance_gap.self_s": (self_s("repth.dominance_gap"), "s"),
            "rootsys.algebra_init_ms": (1000 * self.algebra_init_s, "ms"),
            "zpoly.mul.calls": (calls("zpoly.mul"), "count"),
            "zpoly.mul.term_products": (counts.get("zpoly.mul.term_products", 0), "count"),
            "zpoly.mul.self_s": (self_s("zpoly.mul"), "s"),
            "zpoly.add.calls": (calls("zpoly.add"), "count"),
            "zpoly.add.self_s": (self_s("zpoly.add"), "s"),
            "zpoly.deriv.calls": (calls("zpoly.deriv"), "count"),
            "zpoly.deriv.self_s": (self_s("zpoly.deriv"), "s"),
            "zpoly.evaluate.self_s": (self_s("zpoly.evaluate"), "s"),
            "zpoly.parse.terms": (counts.get("zpoly.parse.terms", 0), "count"),
            "zpoly.parse.self_s": (self_s("zpoly.parse"), "s"),
            "csop.apply.calls": (calls("csop.apply"), "count"),
            "csop.apply.self_s": (self_s("csop.apply"), "s"),
            "csop.epsilon.calls": (counts.get("csop.epsilon.calls", 0), "count"),
        }
        for j, k in A_COEFF_PAIRS:
            m[f"csop.a_coeff_s.{j}_{k}"] = (incl_s(f"csop.a_coeff.{j}_{k}"), "s")
        m.update({
            "charlib.chars.computed": (self.chars_computed or self.disk["written"], "count"),
            "charlib.recursion.self_s": (self_s("charlib.character_poly"), "s"),
            "charlib.verify_eigen_s": (incl_s("charlib.verify_eigen"), "s"),
            "charlib.dim_identity_s": (incl_s("charlib.dim_identity"), "s"),
            "charlib.disk.written": (self.disk["written"], "count"),
            "charlib.disk.read": (counts.get("charlib.disk.read", 0), "count"),
            "charlib.disk.bytes": (self.disk["bytes"], "B"),
            "cli.cold_start_ms": (cli_p50_ms("small", {"dim"}), "ms"),
            "cli.char_compute_p50_ms": (cli_p50_ms("pass1"), "ms"),
            "cli.char_read_p50_ms": (cli_p50_ms("pass2"), "ms"),
            "cli.invocations": (sum(len(r[part]) for r in self.cli_rounds
                                    for part in ("pass1", "pass2", "small")),
                                "count"),
            "trace.overhead_s": (self.traced_wall_s - self.wall_s, "s"),
            "trace.coverage": (spans.top_level_seconds(self.run_spans)
                               / self.traced_wall_s, "share"),
        })
        self.metrics = m

    def dump_trace(self):
        path = self.wl.OUT / (f"trace-{self.args.workload}-seed{self.args.seed}"
                              ".spans")
        self.spans.dump_spans(path, self.setup_spans + self.run_spans,
                              self.counts)


def main(argv=None) -> int:
    args = parse_args(argv)
    with meter.SpeedClock() as clock:
        import_s = import_liechar(clock)
        run = Run(args, clock, import_s)
        run.wl.OUT.mkdir(exist_ok=True)
        run.setup()
        run.timed()
        if args.trace:
            run.traced()
            run.per_layer()
        else:
            run.end_to_end()
    if args.trace:
        run.dump_trace()
    for what in run.tally.notes:
        print(f"perfbench: operation failed: {what}", file=sys.stderr)
    for what in run.tally.wrong:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    result = {
        "correct": not run.tally.wrong,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (run.wl.OUT / name).write_text(line + "\n", encoding="utf-8")
    for key, (value, unit) in run.metrics.items():
        print(f"{args.workload} {key} {value} {unit}")
    print(f"{args.workload} speed: {clock.loops} reference loops, mean "
          f"{1000 * clock.loop_s / clock.loops:.2f} ms against "
          f"{1000 * meter.NOMINAL:.2f} ms nominal")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
