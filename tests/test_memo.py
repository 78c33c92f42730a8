"""The one cache policy: memo keeps the first value stored, every cache goes
through it, and racing first reads agree."""

import re
import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest

from monomod import algebra, duality, memo as memo_module, triangular
from monomod.algebra import Algebra, regular_modules
from monomod.duality import a_dual, canonical_map
from monomod.errors import ValidationError
from monomod.gallery import f1_map, lambda_q, lsgp_algebra, module_M1qc, run_scenario
from monomod.linalg import GF, QQ
from monomod.memo import interned, memo, remember
from monomod.triangular import t2_algebra, t2_triple

SRC = Path(__file__).resolve().parent.parent / "src" / "monomod"
# a cache read or write by hand, on any name ending in _cache: only memo.py
# may hold one
_HAND_CACHE = re.compile(r"(\w*_cache)\s*(?:\[|\.get\(|\.setdefault\()")
# the one exception: io's per-path algebra cache, which keeps one entry per
# path and replaces it when the file's bytes change, as memo's
# first-stored-wins cannot (test_algebra_cache_follows_file_bytes)
_HAND_CACHE_EXCEPTIONS = {("io.py", "_algebra_cache")}


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


def test_interned_keeps_the_first_stored_value_per_process():
    calls = []

    @interned
    def build(k, tag):
        calls.append(k)
        return [k, tag]

    assert build(1, "t") is build(1, "t")
    assert build(2, "t") is not build(1, "t") and build(1, "u") is not build(1, "t")
    assert calls == [1, 2, 1]


def test_racing_first_builds_of_an_algebra_get_one_object(monkeypatch):
    # both threads wait inside validate_algebra until the other one is there
    # too, so both miss the table, both build Lambda(q) for a q no other
    # test uses, and both must get what was stored first; so must a later read
    from monomod import gallery

    q = Fraction(17, 19)
    assert all(q not in key[1] for key in memo_module._interned)
    barrier = threading.Barrier(2, timeout=30)
    validate = gallery.validate_algebra

    def meeting(*args, **kwargs):
        barrier.wait()
        return validate(*args, **kwargs)

    monkeypatch.setattr(gallery, "validate_algebra", meeting)
    got, errors = [None, None], []

    def read(k):
        try:
            got[k] = lambda_q(QQ, q)
        except Exception as exc:  # reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert got[0] is got[1] is lambda_q(QQ, q)
    assert got[0].q_value == q


def test_interned_many_threads_agree():
    # no barrier: eight threads race through twenty first reads each,
    # switching as often as the interpreter lets
    @interned
    def build(k):
        return [k]

    got = []

    def read():
        got.append([build(k) for k in range(20)])

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


def test_gallery_algebras_are_built_once_per_process():
    # every spelling of q and every copy of an equal field find one algebra
    two = lambda_q(QQ, 2)
    assert two is lambda_q() is lambda_q(QQ, Fraction(2)) is lambda_q(QQ, "2")
    assert lambda_q(GF(5), 2) is lambda_q(GF(5), "2") is lambda_q(GF(5), 7)
    assert lsgp_algebra() is lsgp_algebra(QQ) is lsgp_algebra(field=QQ)
    assert lsgp_algebra(GF(5)) is lsgp_algebra(GF(5))
    # a different q or a different field is a different algebra
    assert lambda_q(QQ, 3) is not two and lambda_q(QQ, -2) is not two
    assert lambda_q(GF(5), 2) is not two and lambda_q(GF(7), 2) is not lambda_q(GF(5), 2)
    assert lsgp_algebra(GF(5)) is not lsgp_algebra(QQ)
    # each is stamped and checked before it is kept
    assert two.q_value == 2 and not two.q_finite_order_warning
    assert lambda_q(GF(5), 7).q_value == 2 and lambda_q(GF(5), 7).q_finite_order_warning


def test_a_failed_build_is_not_kept():
    before = dict(memo_module._interned)
    for _ in range(2):
        with pytest.raises(ValidationError):
            lambda_q(QQ, 0)
        with pytest.raises(ValidationError):
            lambda_q(GF(5), 5)
    assert memo_module._interned == before


def test_second_x_family_run_builds_no_algebra():
    # x-family's algebras come from the table: a run with a new c validates
    # no algebra and closes no generating set, not even of T2(Lambda(q))
    closure = next(code for code in Algebra.generators.__wrapped__.__code__.co_consts
                   if isinstance(code, types.CodeType) and code.co_name == "closure")
    watched = {algebra.validate_algebra.__code__: "validate_algebra", closure: "closure"}
    calls = {"validate_algebra": 0, "closure": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    run_scenario("x-family", {"c": Fraction(1, 3), "bound": 2})
    sys.setprofile(profile)
    try:
        sc = run_scenario("x-family", {"c": Fraction(-5, 3), "bound": 2})
    finally:
        sys.setprofile(None)
    assert not sc.failed
    assert calls == {"validate_algebra": 0, "closure": 0}


def test_no_cache_is_read_or_written_by_hand():
    assert _HAND_CACHE.search("got = _algebra_cache.get(key)")
    sites = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "memo.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if any((path.name, name) not in _HAND_CACHE_EXCEPTIONS
               for name in _HAND_CACHE.findall(line))
    ]
    assert sites == [], "cache reached outside monomod.memo:\n" + "\n".join(sites)


def test_algebra_keeps_derived_data_only_in_its_cache(lambda2):
    lambda2.generators(), lambda2.radical_basis(), lambda2.left_matrix(0)
    for name in ("_left_mats", "_right_mats", "_radical", "_generators", "_opposite"):
        assert not hasattr(lambda2, name)
