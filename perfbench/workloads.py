"""The benchmark's three E8 workloads, their set-up and their checks.

Every workload does a fixed amount of work per run, set by the run length:
``rounds_for`` gives one round per ``ROUND_SECONDS`` of run length at the
reference speed, and never fewer than one.  ``wall_s`` is then the time the
program takes for that fixed work, so a faster program shows as a lower
``wall_s`` and not as more rounds in the same time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import checks
import cli_launcher
import spans
from liechar import charlib, csop, repth, zpoly
from liechar.errors import LiecharError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "liechar" / "data"
OUT = HERE / "out"

RANK = 8
# larger than every E8 fundamental dimension (the largest, dim V_λ4, is
# 6,899,079,264), so no tensor product of the from-nothing build is refused
LIFTED_BUDGET = 10_000_000_000
SETUP_REPS = 5
ROUND_SECONDS = {"e8_from_nothing": 50.0, "e8_eigen_sweep": 1.25,
                 "e8_cli_cached": 10.0}
CHAR_FILES = ("e8_characters_order2.chi", "e8_characters_higher.chi")


def weight(*nodes) -> tuple:
    """Dynkin labels with the given 1-based nodes raised by one each."""
    labels = [0] * RANK
    for node in nodes:
        labels[node - 1] += 1
    return tuple(labels)


# the characters of the paper's tables of order two and three supported on
# nodes {1, 7, 8}, requested through the CLI
CLI_CHARS = (
    weight(8, 8), weight(7, 8), weight(7, 7), weight(1, 8), weight(1, 7),
    weight(1, 1), weight(8, 8, 8), weight(7, 8, 8), weight(7, 7, 8),
    weight(7, 7, 7), weight(1, 8, 8), weight(1, 7, 8), weight(1, 7, 7),
    weight(1, 1, 8), weight(1, 1, 7), weight(1, 1, 1),
)
CLI_SMALL = (
    ("dim", (weight(8),)), ("dim", (weight(1),)), ("dim", (weight(7),)),
    ("mult", (weight(8),)), ("mult", (weight(1),)),
    ("tensor", (weight(8), weight(8))), ("tensor", (weight(1), weight(8))),
    ("tensor", (weight(7), weight(8))),
)
# the CLI requests timed on the two in-process workloads for cli_p50_ms;
# one request repeated, so that the median is not drawn between requests
# of different cost
CLI_PROBE = (("verify", (weight(8, 8),)),) * 16


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Tally:
    """Operations attempted and failed, and outputs that failed a check.

    ``wrong`` names outputs that failed a check; ``notes`` says why
    operations failed.
    """

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        if not ok:
            self.wrong.append(what)


@dataclass
class Tables:
    b: dict
    a: dict
    chars: dict
    operator_records: list


def read_tables() -> Tables:
    """The paper's operator tables and its 187 characters."""
    records = zpoly.read_fixture_file(DATA / "e8_delta1_operator.txt", RANK)
    chars = {}
    for name in CHAR_FILES:
        for record in zpoly.read_fixture_file(DATA / name, RANK):
            if record.kind == "chi":
                chars[tuple(record.index)] = record.poly
    return Tables(
        b={r.index[0]: r.poly for r in records if r.kind == "b"},
        a={tuple(sorted(r.index)): r.poly for r in records if r.kind == "a"},
        chars=chars, operator_records=records)


def all_pairs():
    return [(j, k) for j in range(1, RANK + 1) for k in range(j, RANK + 1)]


def labels_arg(m) -> str:
    return ",".join(str(x) for x in m)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def new_algebra(workload: str):
    budget = LIFTED_BUDGET if workload == "e8_from_nothing" else \
        repth.DEFAULT_TENSOR_BUDGET
    return repth.Algebra("E8", tensor_budget=budget)


def setup_once(workload: str, clock) -> dict:
    """One set-up: algebra, tables and, for the sweep, operator and warm-up."""
    t0 = clock()
    algebra = new_algebra(workload)
    t_alg = clock()
    state = {"algebra": algebra, "tables": read_tables()}
    if workload == "e8_eigen_sweep":
        tables = state["tables"]
        operator = csop.build_delta1(algebra, None,
                                     fixture_records=tables.operator_records)
        m, chi = next(iter(tables.chars.items()))
        charlib.verify_eigen(algebra, m, chi, operator)
        charlib.dim_identity(algebra, m, chi)
        state["operator"] = operator
    t1 = clock()
    state["setup_s"] = t1 - t0
    state["algebra_init_s"] = t_alg - t0
    return state


def from_nothing_phase(algebra, tables: Tables, clock):
    """All 36 a[j,k] and all 187 characters from scratch, then verified.

    ``checks`` maps (kind, m) to the report's verdict; an operation that
    raises is left out of it and its message goes to ``errors``.
    """
    cache = charlib.CharacterCache(algebra)
    t0 = clock()
    operator = csop.build_delta1(algebra, cache, pairs=all_pairs())
    chars, verdicts, errors = {}, {}, []
    for m in tables.chars:
        try:
            chars[m] = cache.character_poly(m)
        except LiecharError as exc:
            errors.append(f"chi{m}: {exc}")
    for m, chi in chars.items():
        for kind, verify in (("eigen", lambda: charlib.verify_eigen(
                                 algebra, m, chi, operator)),
                             ("dim", lambda: charlib.dim_identity(
                                 algebra, m, chi))):
            try:
                verdicts[kind, m] = verify().ok
            except LiecharError as exc:
                errors.append(f"{kind} check of chi{m}: {exc}")
    wall = clock() - t0
    return wall, {"operator": operator, "chars": chars, "verdicts": verdicts,
                  "errors": errors, "cache": cache}


def check_from_nothing(algebra, tables: Tables, result: dict, tally: Tally):
    operator, chars = result["operator"], result["chars"]
    n_chars = len(tables.chars)
    missing = [p for p in all_pairs() if p not in operator.entries]
    # a character that failed leaves its two checks unattempted: failed too
    tally.attempted += len(all_pairs()) + 3 * n_chars
    tally.failed += len(missing) + 3 * n_chars - len(chars) \
        - len(result["verdicts"])
    tally.notes += [f"a{p} not computed" for p in missing] + result["errors"]
    for j in range(1, RANK + 1):
        tally.check(checks.poly_matches(
            operator.b[j - 1] * zpoly.ZPolynomial.variable(RANK, j),
            tables.b[j]), f"b[{j}]")
    for pair in all_pairs():
        if pair in missing:
            continue
        tally.check(operator.provenance[pair] == "computed",
                    f"a{pair} provenance {operator.provenance[pair]}")
        tally.check(checks.poly_matches(operator.entries[pair], tables.a[pair]),
                    f"a{pair} differs from the table")
    for m, chi in chars.items():
        tally.check(checks.poly_matches(chi, tables.chars[m]),
                    f"chi{m} differs from the table")
    for (kind, m), ok in result["verdicts"].items():
        tally.check(ok, f"{kind} check fails for chi{m}")
    for j, k in all_pairs():
        lam_j, lam_k = algebra.fundamental(j), algebra.fundamental(k)
        try:
            items = algebra.tensor_decompose(lam_j, lam_k).items()
        except LiecharError:
            continue  # already counted as a failed a[j,k]
        tally.check(checks.dim_sum_holds(algebra, lam_j, lam_k, items),
                    f"dimension sum of V_{j} x V_{k}")


def sweep_pass(algebra, operator, chars: dict, clock):
    """One eigen-equation + dimension-identity pass over ``chars``."""
    bad = []
    t0 = clock()
    for m, chi in chars.items():
        eigen = charlib.verify_eigen(algebra, m, chi, operator)
        dim = charlib.dim_identity(algebra, m, chi)
        if not (eigen.ok and dim.ok):
            bad.append(m)
    return clock() - t0, bad


def check_sweep(operator, tables: Tables, bad: list, tally: Tally):
    tally.attempted += 2 * len(tables.chars)
    tally.check(all(p in operator.entries for p in all_pairs()),
                "operator tables incomplete")
    for m in bad:
        tally.wrong.append(f"eigen-equation or dimension identity fails "
                           f"for chi{m}")


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment with this tree's ``src`` first on the path
    and no character cache of the user's."""
    env = {k: v for k, v in os.environ.items() if k != charlib.CACHE_ENV_VAR}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def request_args(kind: str, weights, cache_dir=None) -> list:
    args = ["--format", "json", kind, "E8", *(labels_arg(w) for w in weights)]
    if cache_dir is not None:
        args += ["--cache-dir", str(cache_dir)]
    return args


@dataclass
class Invocation:
    kind: str
    weights: tuple
    seconds: float
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


class CliRunner:
    """Runs ``liechar`` requests one child process at a time.

    Each child runs ``liechar.cli.main`` through ``cli_launcher.py``, which
    reports the child's own peak RSS and, with a ``trace_dir``, its spans.
    """

    def __init__(self, clock, trace_dir: Path | None = None):
        self.env = child_env()
        self.trace_dir = trace_dir
        self.clock = clock
        self.calls: list[Invocation] = []

    def command(self, args: list) -> list:
        cmd = [sys.executable, str(HERE / "cli_launcher.py")]
        if self.trace_dir is not None:
            out = self.trace_dir / f"child-{len(self.calls):05d}.spans"
            cmd += ["--spans", str(out)]
        return cmd + args

    def run(self, kind: str, weights, cache_dir=None) -> Invocation:
        cmd = self.command(request_args(kind, weights, cache_dir))
        t0 = self.clock()
        with self.clock.waiting():
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=170)
        seconds = self.clock() - t0
        stderr, _, tail = proc.stderr.rpartition(cli_launcher.RSS_TAG)
        call = Invocation(kind, tuple(weights), seconds, proc.returncode,
                          proc.stdout, stderr, int(tail) / 1024.0)
        self.calls.append(call)
        return call


def snapshot(directory: Path) -> dict:
    """Relative path -> (size, mtime_ns, sha256) of every file below."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            st = path.stat()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[str(path.relative_to(directory))] = (st.st_size, st.st_mtime_ns,
                                                     digest)
    return out


def cli_round(runner: CliRunner, order2: list, rng) -> dict:
    """Pass 1 cold into a fresh cache, pass 2 from it, then small requests."""
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cache-") as tmp:
        cache_dir = Path(tmp)
        pass1 = [runner.run("char", (m,), cache_dir) for m in CLI_CHARS]
        after1 = snapshot(cache_dir)
        rng.shuffle(order2)
        pass2 = [runner.run("char", (m,), cache_dir) for m in order2]
        after2 = snapshot(cache_dir)
        small = [runner.run(kind, ws) for kind, ws in CLI_SMALL]
    return {"pass1": pass1, "pass2": pass2, "small": small,
            "after1": after1, "after2": after2}


def check_cli_round(algebra, tables: Tables, result: dict, tally: Tally):
    for call in result["pass1"] + result["pass2"] + result["small"]:
        tally.attempted += 1
        if call.code != 0:
            tally.failed += 1
            tally.notes.append(f"{call.kind} {call.weights} exited "
                               f"{call.code}: {call.stderr.strip()}")
            continue
        what = f"{call.kind} {call.weights}"
        if call.kind == "char":
            (m,) = call.weights
            ok = checks.cli_char_ok(call.stdout, m, tables.chars[m], RANK)
        elif call.kind == "dim":
            ok = checks.cli_dim_ok(call.stdout, algebra, call.weights[0])
        elif call.kind == "mult":
            ok = checks.cli_mult_ok(call.stdout, algebra, call.weights[0])
        else:
            ok = checks.cli_tensor_ok(call.stdout, algebra, *call.weights)
        tally.check(ok, what)
    tally.check(bool(result["after1"]), "pass 1 wrote no cache file")
    tally.check(result["after2"] == result["after1"],
                "pass 2 wrote or changed a cache file")


def check_probe(calls: list, tally: Tally):
    """The ``verify`` probe: exit 0 and both checks passed in the answer."""
    for call in calls:
        tally.attempted += 1
        if call.code != 0:
            tally.failed += 1
            tally.notes.append(f"verify {call.weights} exited {call.code}: "
                               f"{call.stderr.strip()}")
            continue
        tally.check(checks.cli_verify_ok(call.stdout, call.weights[0]),
                    f"verify {call.weights}")


def cache_stats(result: dict) -> dict:
    files = result["after1"]
    return {"written": len(files), "bytes": sum(v[0] for v in files.values())}


def child_spans(trace_dir: Path):
    """All spans and counters the traced CLI children wrote."""
    merged, counts = [], None
    for path in sorted(trace_dir.glob("child-*.spans")):
        rows, c = spans.load_spans(path)
        base = len(merged)
        merged.extend((n, s, e, p + base if p >= 0 else -1)
                      for n, s, e, p in rows)
        counts = c if counts is None else counts + c
    return merged, counts or {}
