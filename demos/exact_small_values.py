"""Exact zero-sum Ramsey numbers at desk scale.

Runs the exhaustive oracle on four small patterns and cross-checks the two
Z_3 values against the closed-form rule. The K_6 scan enumerates all 3^15
colorings; the whole demo takes about half a second on a 2-vCPU shared VM.
"""

from zsforest import compute_ramsey, exact_z2, exact_z3
from zsforest.patterns import cycle, matching, path, star


def show(name, pattern, k, max_n, closed=None):
    res = compute_ramsey(pattern, k, max_n)
    extra = ""
    if closed is not None:
        extra = f"  (closed form: {closed})"
    print(f"R({name}, Z_{k}) = {res.value}  "
          f"[{res.colorings_checked} colorings scanned]{extra}")


if __name__ == "__main__":
    show("C_4", cycle(4), 2, 6, closed=exact_z2(cycle(4)))
    show("2K_2", matching(2), 2, 7, closed=exact_z2(matching(2)))
    show("P_4", path(4), 3, 7, closed=exact_z3(path(4)))
    show("K_{1,3}", star(3), 3, 8, closed=exact_z3(star(3)))
