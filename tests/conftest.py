import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import liechar as lc
from liechar.zpoly import read_fixture_file

sys.path.insert(0, str(Path(__file__).resolve().parent))

DATA = Path(lc.__file__).resolve().parent / "data"
OPERATOR_FILE = DATA / "e8_delta1_operator.txt"
ORDER2_FILE = DATA / "e8_characters_order2.chi"
HIGHER_FILE = DATA / "e8_characters_higher.chi"

TIER1_PAIRS = sorted(
    (min(j, k), max(j, k))
    for j, k in [(8, 8), (1, 8), (1, 1), (7, 8), (2, 8), (1, 7), (6, 8),
                 (1, 2), (3, 8), (1, 6), (1, 3), (5, 8), (1, 5), (1, 4), (4, 8)])
TIER2_PAIRS = sorted(
    (min(j, k), max(j, k))
    for j, k in [(7, 7), (2, 7), (2, 2), (6, 7), (3, 7), (2, 6), (2, 3),
                 (2, 5), (2, 4), (5, 7), (6, 6), (3, 6), (3, 5), (3, 3),
                 (4, 7), (5, 6), (3, 4), (4, 6)])


@pytest.fixture(scope="session")
def e8():
    return lc.Algebra("E8")


@pytest.fixture(scope="session")
def a2():
    return lc.Algebra("A2")


@pytest.fixture(scope="session")
def operator_fixtures(e8):
    records = read_fixture_file(OPERATOR_FILE, e8.rank)
    a = {tuple(sorted(r.index)): r.poly for r in records if r.kind == "a"}
    b = {r.index[0]: r.poly for r in records if r.kind == "b"}
    return SimpleNamespace(records=records, a=a, b=b)


def expand_through(cache, m, i):
    """The character of ``m`` that ``cache`` expands from V_{λ_i} ⊗
    V_{m - e_i}: its plan for ``m`` alone is made with label ``i``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache, "_split_index", lambda _: i)
        plan = cache._plan(m)
    return cache._expand(m, plan)


def _characters(path, rank):
    return {lc.Weight(r.index): r.poly
            for r in read_fixture_file(path, rank) if r.kind == "chi"}


@pytest.fixture(scope="session")
def order2_chars(e8):
    return _characters(ORDER2_FILE, e8.rank)


@pytest.fixture(scope="session")
def higher_chars(e8):
    return _characters(HIGHER_FILE, e8.rank)


@pytest.fixture(scope="session")
def e8_build(e8):
    """Full operator: all 36 pairs computed (and timed) from nothing, in
    (j, k) order."""
    cache = lc.CharacterCache(e8)
    entries = {}
    timings = {}
    all_pairs = [(j, k) for j in range(1, 9) for k in range(j, 9)]
    for j, k in sorted(all_pairs):
        start = time.monotonic()
        entries[(j, k)] = lc.a_coeff(e8, j, k, cache)
        timings[(j, k)] = time.monotonic() - start
    operator = lc.Delta1Operator(rank=8, b=lc.b_coeffs(e8), entries=entries,
                                 provenance=dict.fromkeys(entries, "computed"))
    return SimpleNamespace(cache=cache, operator=operator, timings=timings)
