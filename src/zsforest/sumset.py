"""Iterated sumsets over Z_p with one choice vector per reachable target.

The selection arguments both reduce to the same fact: given enough residue
sets, every target value is reachable by picking one element from each set.
:func:`iterated_sumset` computes the full reachable set by dynamic programming
and keeps one back-pointer per residue (first reached wins), so any
achievable target comes with a vector of concrete picks.

Guaranteed lower bound: |A_1 + ... + A_n| >= min(p, sum |A_i| - n + 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .core import Residue, ZeroSumError, require_prime


class EmptyInputSet(ZeroSumError):
    """One of the summand sets has no elements."""


class MixedModulus(ZeroSumError):
    """Summand sets do not share one modulus."""


@dataclass(frozen=True)
class SumsetWitness:
    """Reachable residues plus one index vector per reachable target.

    ``choice[r][i]`` indexes into the i-th input as given to
    :func:`iterated_sumset` (duplicates keep their first position, so every
    stored index points at the first occurrence of its value).
    """

    modulus: int
    achievable: frozenset
    choice: Mapping[Residue, tuple[int, ...]]


def iterated_sumset(sets: Iterable[Sequence[Residue]]) -> SumsetWitness:
    """Full iterated sumset of nonempty residue sequences over one prime
    modulus.

    Choice indices refer to each sequence in the order given. An empty
    family is rejected outright since no modulus can be recovered from it.

    Raises:
        TypeError: a summand is not a sequence (a set, say), so its choice
            indices would have no order to refer to.
        EmptyInputSet: no sets at all, or a summand with no elements.
        MixedModulus: two summands disagree on the modulus.
    """
    seqs = list(sets)
    for i, seq in enumerate(seqs):
        if not isinstance(seq, Sequence):
            raise TypeError(f"summand {i} must be a sequence, "
                            f"got {type(seq).__name__}")
    if not seqs:
        raise EmptyInputSet("need at least one summand set")
    if any(len(s) == 0 for s in seqs):
        raise EmptyInputSet("summand sets must be nonempty")
    p = seqs[0][0].modulus
    for seq in seqs:
        for r in seq:
            if r.modulus != p:
                raise MixedModulus(f"moduli {p} and {r.modulus} mixed")
    require_prime(p, "iterated_sumset")

    # deduplicate values, remembering each value's first input position
    levels: list[list[tuple[int, int]]] = []
    for seq in seqs:
        seen: dict[int, int] = {}
        for idx, r in enumerate(seq):
            if r.value not in seen:
                seen[r.value] = idx
        levels.append(sorted((v, i) for v, i in seen.items()))

    # DP over prefixes; back[k][s] = (previous residue, index into seqs[k])
    back: list[dict[int, tuple[int, int]]] = []
    reached = {0}
    for values in levels:
        step: dict[int, tuple[int, int]] = {}
        for r in sorted(reached):
            for v, idx in values:
                s = (r + v) % p
                if s not in step:
                    step[s] = (r, idx)
        back.append(step)
        reached = set(step)

    choice: dict[Residue, tuple[int, ...]] = {}
    for target in sorted(reached):
        picks = []
        cur = target
        for k in range(len(levels) - 1, -1, -1):
            prev, idx = back[k][cur]
            picks.append(idx)
            cur = prev
        choice[Residue(target, p)] = tuple(reversed(picks))

    achievable = frozenset(choice)
    n = len(seqs)
    bound = min(p, sum(len(v) for v in levels) - n + 1)
    if len(achievable) < bound:
        # Cauchy-Davenport: cannot happen for a prime modulus
        raise RuntimeError(f"sumset bound violated: {len(achievable)} "
                           f"residues reachable, at least {bound} promised")
    return SumsetWitness(modulus=p, achievable=achievable, choice=choice)
