"""Sumset DP tests: frozen examples, the additive lower bound, soundness of
the stored choice vectors, and brute-force equality on small families."""

import itertools

import pytest

from zsforest import PreconditionFailed, Residue
from zsforest.randomgen import splitmix64
from zsforest.sumset import EmptyInputSet, MixedModulus, iterated_sumset


def rs(values, p):
    return [Residue(v, p) for v in values]


def picked_sum(fam, picks, p):
    """The residue that one pick from each summand adds up to."""
    return Residue(sum(s[i].value for s, i in zip(fam, picks, strict=True))
                   % p, p)


def test_two_binary_sets_cover_z3():
    w = iterated_sumset([rs([0, 1], 3), rs([0, 1], 3)])
    assert {r.value for r in w.achievable} == {0, 1, 2}
    assert w.choice[Residue(2, 3)] == (1, 1)
    assert w.choice[Residue(0, 3)] == (0, 0)
    assert len(w.achievable) >= min(3, 2 + 2 - 1)


def test_singleton_sets_stay_put():
    w = iterated_sumset([rs([0], 5)] * 4)
    assert {r.value for r in w.achievable} == {0}
    assert w.choice[Residue(0, 5)] == (0, 0, 0, 0)


def test_unreachable_target_absent():
    w = iterated_sumset([rs([1], 3)])
    assert w.choice.get(Residue(0, 3)) is None
    assert w.choice[Residue(1, 3)] == (0,)


def test_errors():
    with pytest.raises(EmptyInputSet):
        iterated_sumset([])
    with pytest.raises(EmptyInputSet):
        iterated_sumset([rs([1], 3), []])
    with pytest.raises(MixedModulus):
        iterated_sumset([rs([1], 3), rs([1], 5)])
    with pytest.raises(PreconditionFailed):
        iterated_sumset([rs([0, 1], 4)])


def test_summands_must_be_sequences():
    # a set has no order for the choice indices to refer to
    pair = {Residue(2, 3), Residue(0, 3)}
    with pytest.raises(TypeError, match="summand 0 must be a sequence"):
        iterated_sumset([pair, rs([1], 3)])
    with pytest.raises(TypeError, match="summand 1 must be a sequence"):
        iterated_sumset([rs([1], 3), pair])


def test_duplicate_values_keep_first_index():
    w = iterated_sumset([[Residue(2, 5), Residue(2, 5), Residue(1, 5)]])
    assert w.choice[Residue(2, 5)] == (0,)


def test_two_element_sets_cover_everything_at_p_minus_1():
    # the workhorse consequence: p-1 sets of size 2 reach all of Z_p
    for p in (2, 3, 5, 7, 13):
        stream = splitmix64(p)
        for _ in range(50):
            fam = []
            for _ in range(p - 1):
                a = next(stream) % p
                b = (a + 1 + next(stream) % (p - 1)) % p
                fam.append(rs([a, b], p))
            w = iterated_sumset(fam)
            assert len(w.achievable) == p
            for t in range(p):
                picks = w.choice[Residue(t, p)]
                assert picked_sum(fam, picks, p).value == t


def test_cauchy_davenport_bound_seeded():
    # 10,000 random families per modulus
    for p in (2, 3, 5, 7, 13):
        stream = splitmix64(1000 + p)
        for _ in range(10_000):
            n = 1 + next(stream) % 6
            fam = []
            distinct_total = 0
            for _ in range(n):
                size = 1 + next(stream) % p
                vals = {next(stream) % p for _ in range(size)}
                distinct_total += len(vals)
                fam.append(rs(sorted(vals), p))
            w = iterated_sumset(fam)
            assert len(w.achievable) >= min(p, distinct_total - n + 1)
            for r in w.achievable:
                assert picked_sum(fam, w.choice[r], p) == r


def test_brute_force_equivalence_small_families():
    stream = splitmix64(77)
    for p in (2, 3, 5, 7):
        for _ in range(300):
            n = 1 + next(stream) % 4
            fam = []
            for _ in range(n):
                size = 1 + next(stream) % 3
                fam.append(sorted({next(stream) % p for _ in range(size)}))
            space = 1
            for s in fam:
                space *= len(s)
            assert space <= 10 ** 5
            w = iterated_sumset([rs(s, p) for s in fam])
            brute = {sum(c) % p for c in itertools.product(*fam)}
            assert {r.value for r in w.achievable} == brute
