import pytest

from barthslice.errors import DomainError
from barthslice.rng import ALGORITHM_ID, SeededRng


def test_algorithm_id_frozen():
    assert ALGORITHM_ID == "mt19937-sha256sub-v1"


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.integers(1000) for _ in range(200)] == [b.integers(1000) for _ in range(200)]


def test_different_seeds_differ():
    a = [SeededRng(1).integers(10**9) for _ in range(1)]
    b = [SeededRng(2).integers(10**9) for _ in range(1)]
    assert a != b


def test_seed_range_validated():
    SeededRng(0)
    SeededRng(2**64 - 1)
    for bad in (-1, 2**64, True, False, 1.0, "3"):
        with pytest.raises(DomainError):
            SeededRng(bad)


def test_integers_bounds():
    rng = SeededRng(7)
    draws = [rng.integers(6) for _ in range(2000)]
    assert set(draws) == set(range(6))
    assert rng.integers(1) == 0
    with pytest.raises(DomainError):
        rng.integers(0)


def test_substream_independent_of_parent_consumption():
    a = SeededRng(5)
    a_sub = a.substream("x")
    b = SeededRng(5)
    for _ in range(17):
        b.integers(100)
    b_sub = b.substream("x")
    assert [a_sub.integers(10**6) for _ in range(50)] == [
        b_sub.integers(10**6) for _ in range(50)
    ]


def test_substream_labels_distinct():
    rng = SeededRng(5)
    xs = [rng.substream("a").integers(2**32) for _ in range(1)]
    ys = [rng.substream("b").integers(2**32) for _ in range(1)]
    assert xs != ys


def test_nested_substream_path():
    rng = SeededRng(5)
    direct = rng.substream("a/b")
    nested = rng.substream("a").substream("b")
    assert direct.integers(2**32) == nested.integers(2**32)


def test_substreams_look_uniform():
    # chi-square on 10**4 draws over 16 bins, for two sibling substreams
    rng = SeededRng(123)
    for label in ("left", "right"):
        sub = rng.substream(label)
        bins = [0] * 16
        n = 10_000
        for _ in range(n):
            bins[sub.integers(16)] += 1
        expected = n / 16
        chi2 = sum((c - expected) ** 2 / expected for c in bins)
        # 15 dof: far tails only; a sound generator stays well inside
        assert chi2 < 50, (label, chi2, bins)


def test_permutation_is_permutation_and_deterministic():
    rng = SeededRng(11)
    p = rng.permutation(10)
    assert sorted(p) == list(range(10))
    assert SeededRng(11).permutation(10) == p
    assert SeededRng(11).permutation(0) == []
