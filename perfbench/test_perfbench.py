"""Fast tests of the benchmark's own arithmetic and checks.

None of them runs a workload: they cover the span self-time arithmetic,
the median, the wrappers' install/uninstall, and that every correctness
check rejects an output with one coefficient changed.
"""

import json
import time

import pytest

import checks
import meter
import spans
import workloads
from liechar import Algebra, build_delta1, charlib, print_poly, repth, zpoly


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    rows = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 11.0, 12.0, -1),
    ]
    totals = spans.layer_totals(rows)
    assert totals["a"] == {"calls": 2, "incl_s": 11.0, "self_s": 4.0}
    assert totals["b"] == {"calls": 2, "incl_s": 7.0, "self_s": 6.0}
    assert totals["c"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
    assert spans.top_level_seconds(rows) == 11.0


def test_tracer_records_parents_in_call_order():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    rows = spans.tracer_spans(tracer)
    assert rows == [("outer", 0.0, 10.0, -1), ("inner", 1.0, 3.0, 0),
                    ("inner", 4.0, 7.0, 0)]
    assert spans.layer_totals(rows)["outer"]["self_s"] == 5.0


def test_spans_survive_a_file_round_trip(tmp_path):
    rows = [("a", 0.5, 2.25, -1), ("b", 1.0, 2.0, 0)]
    spans.dump_spans(tmp_path / "t.spans", rows, {"n": 3})
    assert spans.load_spans(tmp_path / "t.spans") == (rows, {"n": 3})


def test_speed_clock_is_monotone_and_pauses_for_children():
    with meter.SpeedClock() as clock:
        readings = [clock()]
        while clock.ticks < 2:
            readings.append(clock())
        ticks = clock.ticks
        with clock.waiting():
            pass
        readings.append(clock())
    assert readings == sorted(readings)
    assert clock.ticks in (ticks + 2, ticks + 3)
    assert readings[-1] > 0


def test_median():
    assert spans.median([3.0, 1.0, 2.0]) == 2.0
    assert spans.median([4, 1, 3, 2]) == 2.5
    assert spans.median([7]) == 7
    with pytest.raises(ValueError):
        spans.median([])


def test_install_counts_klimyk_work_and_uninstall_restores():
    before = dict(vars(repth.Algebra))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        a2 = Algebra("A2")
        a2.tensor_decompose((1, 0), (0, 1))
        a2.tensor_decompose((0, 1), (1, 0))
    finally:
        tracer.uninstall()
    assert dict(vars(repth.Algebra)) == before
    totals = spans.layer_totals(spans.tracer_spans(tracer))
    assert totals["repth.klimyk"]["calls"] == 2
    assert tracer.counts["repth.klimyk.computed"] == 1
    # V(1,0) has the three weights of one orbit
    assert tracer.counts["repth.klimyk.weights"] == 3
    assert tracer.counts["repth.orbit.weights"] == 3


# -- correctness checks ----------------------------------------------------

M = (0, 0, 0, 0, 0, 0, 0, 2)
CHI = "-1 - z1 - z7 - z8 + z8^2"
ONE_OFF = "-1 - z1 - z7 - z8 + 2*z8^2"


@pytest.fixture(scope="module")
def e8():
    return Algebra("E8")


@pytest.fixture(scope="module")
def tables():
    return workloads.read_tables()


@pytest.fixture(scope="module")
def operator(e8, tables):
    return build_delta1(e8, None, fixture_records=tables.operator_records)


def poly(text):
    return zpoly.parse_poly(text, 8)


def test_poly_check_rejects_one_changed_coefficient():
    assert checks.poly_matches(poly(CHI), poly(CHI))
    assert not checks.poly_matches(poly(ONE_OFF), poly(CHI))


def test_sweep_rejects_one_changed_coefficient(e8, tables, operator):
    # the eigen-equation and the dimension identity each reject it
    assert not charlib.verify_eigen(e8, M, poly(ONE_OFF), operator).ok
    assert not charlib.dim_identity(e8, M, poly(ONE_OFF)).ok
    _, bad = workloads.sweep_pass(e8, operator, {M: poly(CHI)},
                                  time.perf_counter)
    assert bad == []
    _, bad = workloads.sweep_pass(e8, operator, {M: poly(ONE_OFF)},
                                  time.perf_counter)
    assert bad == [M]
    tally = workloads.Tally()
    workloads.check_sweep(operator, tables, bad, tally)
    assert tally.wrong and tally.failed == 0


def changed_first(items):
    items = [(mu, int(n)) for mu, n in items]
    mu, n = items[0]
    return [(mu, n + 1)] + items[1:]


def test_dim_sum_checks_reject_one_changed_multiplicity(e8):
    lam = e8.fundamental(8)
    items = e8.tensor_decompose(lam, lam).items()
    assert checks.dim_sum_holds(e8, lam, lam, items)
    assert not checks.dim_sum_holds(e8, lam, lam, changed_first(items))
    table = e8.freudenthal(lam).items()
    assert checks.orbit_sum_holds(e8, lam, table)
    assert not checks.orbit_sum_holds(e8, lam, changed_first(table))


def test_cli_answer_checks_reject_one_changed_coefficient(e8):
    want = poly(CHI)
    answer = {"labels": list(M), "poly": CHI}
    assert checks.cli_char_ok(json.dumps(answer), M, want, 8)
    answer["poly"] = ONE_OFF
    assert not checks.cli_char_ok(json.dumps(answer), M, want, 8)
    assert not checks.cli_char_ok("not json", M, want, 8)

    lam = e8.fundamental(8)
    dim = {"labels": list(lam), "dim": "248"}
    assert checks.cli_dim_ok(json.dumps(dim), e8, lam)
    dim["dim"] = "249"
    assert not checks.cli_dim_ok(json.dumps(dim), e8, lam)

    tensor = e8.tensor_decompose(lam, lam).to_json_dict()
    assert checks.cli_tensor_ok(json.dumps(tensor), e8, lam, lam)
    tensor[0]["mult"] = str(int(tensor[0]["mult"]) + 1)
    assert not checks.cli_tensor_ok(json.dumps(tensor), e8, lam, lam)

    mult = e8.freudenthal(lam).to_json_dict()
    assert checks.cli_mult_ok(json.dumps(mult), e8, lam)
    mult["entries"][0]["mult"] = str(int(mult["entries"][0]["mult"]) + 1)
    assert not checks.cli_mult_ok(json.dumps(mult), e8, lam)

    verify = {"labels": list(M), "eigen": {"ok": True}, "dim": {"ok": True}}
    assert checks.cli_verify_ok(json.dumps(verify), M)
    verify["dim"]["ok"] = False
    assert not checks.cli_verify_ok(json.dumps(verify), M)


def test_cli_characters_are_table_entries_on_nodes_1_7_8(tables):
    chars = tables.chars
    for m in workloads.CLI_CHARS:
        assert m in chars
        assert all(x == 0 for i, x in enumerate(m) if i + 1 not in (1, 7, 8))
    assert print_poly(chars[M]) == CHI
