import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hermdens.cdens import jfun_n1
from hermdens.errors import BudgetError
from hermdens.reps import diagonal
from hermdens.symb import SignedRational
from hermdens.tree import (
    TreeInstance,
    bfs_census,
    enumerate_ball_intersection,
    fk_buckets,
    intersect_zy,
    mult_m,
    vertical_pairing,
    weight_pz,
)


def cross_check_jfun(inst: TreeInstance):
    """Compare the tree total with the density-side functional on a split form."""
    total = intersect_zy(inst)["total"]
    want = SignedRational(Fraction(inst.vdet, 2) + 1)
    jval = jfun_n1(1, diagonal((inst.vdet, 0)))
    return {
        "total": total,
        "jfun": jval,
        "match": jval == want and total == Fraction(inst.vdet, 2) + 1,
    }


def valid_instances(qs, m_max, d_max):
    for q in qs:
        for mx in range(0, m_max + 1):
            for my in range(0, m_max + 1):
                for d in range(0, d_max + 1):
                    if (d - mx - my) % 2 or d > mx + my:
                        continue
                    yield TreeInstance(q, mx, my, d)


def test_multiplicity_profile():
    assert mult_m(4, 0) == 2
    assert mult_m(4, 1) == 2
    assert mult_m(4, 2) == 1
    assert mult_m(5, 5) == 0
    with pytest.raises(ValueError):
        mult_m(3, 4)


def test_weights():
    inst = TreeInstance(3, 4, 0, 4)
    assert weight_pz(inst, 4) == 1
    assert weight_pz(inst, 3) == -3
    assert weight_pz(inst, 5) == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        TreeInstance(3, 1, 0, 2)   # parity
    with pytest.raises(ValueError):
        TreeInstance(3, 1, 1, 4)   # balls apart
    with pytest.raises(ValueError):
        TreeInstance(3, 3, 3, 2, vdet=3)  # odd valuation
    with pytest.raises(ValueError):
        TreeInstance(3, 3, 3, 2, vdet=6)  # overlapping balls pin vdet
    with pytest.raises(ValueError):
        TreeInstance(1, 0, 0, 0)


def test_overlap_totals_sweep():
    # every overlapping configuration lands on r + 1
    saw3 = saw12 = 0
    for inst in valid_instances((3, 5), 6, 13):
        out = intersect_zy(inst)
        if out["case"] == 3:
            saw3 += 1
            assert out["total"] == inst.r + 1
        else:
            saw12 += 1
            assert out["total"] == Fraction(inst.vdet, 2) + 1
    assert saw3 == 224 and saw12 == 144


def test_engulfed_vdet_override():
    inst = TreeInstance(3, 6, 1, 1, vdet=10)
    assert inst.case == 1
    assert intersect_zy(inst)["total"] == Fraction(6)


def test_census_matches_classes():
    # the walk over words shares no branch count with the class formulas
    for q in (2, 3, 4, 5):
        for d in range(0, 7):
            inst = TreeInstance(q, d, 0, d)
            for rx in range(0, 6):
                for ry in range(0, 6):
                    agg: dict = {}
                    for cls in enumerate_ball_intersection(inst, rx, ry):
                        key = (cls.d1, cls.d2)
                        agg[key] = agg.get(key, 0) + cls.count
                    assert agg == bfs_census(q, d, rx, ry), (q, d, rx, ry)


@pytest.mark.parametrize("args,want", [((2 ** 31, 0, 0, 0), {(0, 0): 1}),
                                       ((3, 10 ** 9, 2, 2), {})])
def test_census_huge_q_or_distance_returns_at_once(args, want):
    # radius 0 grows no level, and only min(d, rx) letters of the far center are read
    t0 = time.perf_counter()
    assert bfs_census(*args) == want
    assert time.perf_counter() - t0 < 1


def test_census_budget_counts_the_walks_words():
    # the radius ry only filters the tally: 1 + 4 + 12 words at q = 3, rx = 2
    assert sum(bfs_census(3, 2, 2, 20).values()) == 17
    # 1 + 4 (3^10 - 1) / 2 = 118,097 words up to length 10
    with pytest.raises(BudgetError, match="census budget exceeded"):
        bfs_census(3, 2, 10, 2)
    t0 = time.perf_counter()
    assert bfs_census(3, 0, 0, 10 ** 7) == {(0, 0): 1}
    with pytest.raises(BudgetError, match="census budget exceeded"):
        bfs_census(3, 0, 10 ** 9, 0)
    assert time.perf_counter() - t0 < 1


def test_bucket_closed_forms():
    hits = 0
    for inst in valid_instances((2, 3, 5), 8, 16):
        if inst.case != 3 or inst.m_y + 1 >= inst.m_x:
            continue
        r = inst.r
        if r % 2 or inst.m_y - r > r:
            continue
        b = fk_buckets(inst)
        assert sum(b.values()) == vertical_pairing(inst)
        last = inst.m_y - r
        assert b.get(-1, Fraction(0)) == 0
        for k in range(0, last + 1):
            actual = b.get(k, Fraction(0))
            if k == last:
                want = Fraction(inst.m_y + 2, 2) if inst.m_y % 2 == 0 else Fraction(0)
            elif k % 2:
                want = Fraction(-(r + k + 1), 2)
            else:
                want = Fraction(r + k + 2, 2)
            assert actual == want, (inst, k)
        hits += 1
    assert hits >= 70


def test_bucket_telescoping():
    with pytest.raises(ValueError):
        fk_buckets(TreeInstance(3, 4, 4, 2))  # m_y + 1 >= m_x
    # r = 4, buckets run to m_y - r = 3; the interior odd-even pair sums to 1
    b = fk_buckets(TreeInstance(3, 9, 7, 8))
    assert b == {-1: Fraction(0), 0: Fraction(3), 1: Fraction(-3),
                 2: Fraction(4), 3: Fraction(0)}
    assert b[1] + b[2] == 1


def test_vertical_pairing_spot():
    # r = 4, last bucket 0: vertical alone carries r/2 + ... = total - horizontal
    inst = TreeInstance(3, 8, 4, 4)
    out = intersect_zy(inst)
    assert out["vertical"] + out["horizontal"] == inst.r + 1
    assert out["horizontal"] == mult_m(8, 4)


@pytest.mark.parametrize("inst", [TreeInstance(3, 2, 0, 0), TreeInstance(3, 2, 2, 2),
                                  TreeInstance(3, 3, 1, 2)])
def test_cross_check_density_side(inst):
    assert cross_check_jfun(inst)["match"]


# shifts the vertical pairing by one, so a case-3 total misses r + 1
SHIFTED_SCRIPT = """
import sys
from hermdens import tree
from hermdens.errors import InvariantError
plain = tree.vertical_pairing
tree.vertical_pairing = lambda inst: plain(inst) + 1
try:
    tree.intersect_zy(tree.TreeInstance(3, 3, 2, 1))
except InvariantError as exc:
    print("raised", sys.flags.optimize, exc)
"""


@pytest.mark.parametrize("flags,optimize", [([], 0), (["-O"], 1)])
def test_wrong_overlapping_total_raises(flags, optimize):
    # in a child process, so the check is also seen with asserts stripped
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, *flags, "-c", SHIFTED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"raised {optimize} overlapping total 4 is not r + 1 = 3")
