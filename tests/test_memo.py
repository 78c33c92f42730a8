"""The one cache policy: memo keeps the first value stored, every cache goes
through it, and racing first reads agree."""

import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

from monomod import duality, triangular
from monomod.algebra import regular_modules
from monomod.duality import a_dual, canonical_map
from monomod.gallery import f1_map, module_M1qc
from monomod.memo import memo, remember
from monomod.triangular import t2_algebra, t2_triple

SRC = Path(__file__).resolve().parent.parent / "src" / "monomod"
# a cache read or write by hand: only memo.py may hold one
_HAND_CACHE = re.compile(r"(?<!\w)_cache\s*(\[|\.get\(|\.setdefault\()")


class _Owner:
    def __init__(self):
        self._cache = {}


def test_memo_keeps_the_first_stored_value():
    calls = []

    @memo
    def build(owner, k):
        calls.append(k)
        return [k]

    a, b = _Owner(), _Owner()
    assert build(a, 1) is build(a, 1) and calls == [1]
    assert build(a, 2) is not build(a, 1) and build(b, 1) is not build(a, 1)
    assert calls == [1, 2, 1]
    # a value remembered for a key that is kept already is not stored
    assert remember(a, build, [9], 1) is build(a, 1) == [1]
    assert remember(a, build, [3], 3) is build(a, 3) == [3]
    assert calls == [1, 2, 1]


def test_racing_first_reads_get_one_object(monkeypatch, lambda2):
    # both threads wait inside the build until the other one is there too,
    # so both miss the cache, both build, and both must get what was stored
    # first; so must a later read
    barrier = threading.Barrier(2, timeout=30)

    def meeting(fn):
        def wrapper(*args, **kwargs):
            barrier.wait()
            return fn(*args, **kwargs)
        return wrapper

    T = t2_algebra(lambda2)
    reg = regular_modules(lambda2)[0]
    Y = module_M1qc(lambda2, Fraction(3))
    t = t2_triple(T, reg, Y, f1_map(Y))
    M = module_M1qc(lambda2, Fraction(2))
    monkeypatch.setattr(triangular, "triple_to_module", meeting(triangular.triple_to_module))
    monkeypatch.setattr(duality, "hom_space", meeting(duality.hom_space))
    got, errors = [None, None], []

    def read(k):
        try:
            got[k] = (t.flatten(), a_dual(M).dual)
        except Exception as exc:  # reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert got[0][0] is got[1][0] is t.flatten()
    assert got[0][1] is got[1][1] is a_dual(M).dual


def test_many_threads_reading_fresh_objects_agree(lambda2):
    # no barrier: eight threads race through the first reads of a fresh
    # module and a fresh triple, switching as often as the interpreter lets
    T = t2_algebra(lambda2)
    reg = regular_modules(lambda2)[0]
    M = module_M1qc(lambda2, Fraction(5))
    Y = module_M1qc(lambda2, Fraction(5))
    t = t2_triple(T, reg, Y, f1_map(Y))
    got = []

    def read():
        got.append((t.flatten(), t.phibar(), a_dual(M).dual, canonical_map(M).target))

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 8
    for column in zip(*got):
        assert all(x is column[0] for x in column)


def test_no_cache_is_read_or_written_by_hand():
    sites = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "memo.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if _HAND_CACHE.search(line)
    ]
    assert sites == [], "cache reached outside monomod.memo:\n" + "\n".join(sites)


def test_algebra_keeps_derived_data_only_in_its_cache(lambda2):
    lambda2.generators(), lambda2.radical_basis(), lambda2.left_matrix(0)
    for name in ("_left_mats", "_right_mats", "_radical", "_generators", "_opposite"):
        assert not hasattr(lambda2, name)
