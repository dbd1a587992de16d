"""The three hard-instance families and their chromatic gaps.

Each generator hides a bit that decides whether the union graph contains a
large clique on a special vertex set or is colorable with few colors; the
few-colors branch carries a constructive witness coloring.
"""

import numpy as np

from streamcolor import (
    find_k_coloring,
    gen_recursive,
    gen_simultaneous,
    gen_two_player,
    is_proper_coloring,
    missing_clique_pair,
    verify_instance,
    witness_coloring,
)

print("== two-player instances (n=64, k=2) ==")
for ans in (1, 0):
    inst = gen_two_player(64, 2, seed=7, ans_override=ans)
    union = inst.union_graph()
    print(f"ans={ans}: player edges {len(inst.e1)} + {len(inst.e2)}, "
          f"special set {inst.spec.tolist()}")
    if ans == 1:
        print(f"  special set is a K_4: {missing_clique_pair(union, inst.spec) is None}")
    else:
        print(f"  4-colorable (exact): {find_k_coloring(union, 4) is not None}")
    print(f"  verify_instance: {verify_instance(inst).ok}")

print()
print("== recursive instances (p=3, k=2) ==")
for ans in (1, 0):
    inst = gen_recursive(3, 2, seed=7, ans_override=ans)
    union = inst.union_graph()
    print(f"ans={ans}: host n={inst.n}, r={inst.r}, materialized clusters={inst.t}")
    print(f"  |T| = {len(inst.big_t)}, |S* cap T| = {len(inst.intersection)} = k^(p-1)")
    if ans == 1:
        print(f"  special 8 vertices form a K_8: {missing_clique_pair(union, inst.spec) is None}")
    else:
        w = witness_coloring(inst)
        print(f"  witness coloring: {w.num_colors} colors (<= k*p = 6), "
              f"proper: {is_proper_coloring(union, w)}")
    print(f"  verify_instance: {verify_instance(inst).ok}")

print()
print("== simultaneous instances (k=4, n_base=10, p=C(4,2)=6 players) ==")
for theta in (1, 0):
    inst = gen_simultaneous(4, 10, seed=7, theta_override=theta)
    union = inst.union_graph()
    _, counts = np.unique(np.concatenate(inst.player_edges), axis=0, return_counts=True)
    print(f"theta={theta}: n={inst.n}, union multigraph has {(counts > 1).sum()} repeated pairs")
    if theta == 1:
        print(f"  hidden K_4 present: {missing_clique_pair(union, inst.v_clique) is None}")
    else:
        w = witness_coloring(inst)
        print(f"  witness 3-coloring proper: {is_proper_coloring(union, w)}")
        print(f"  3-colorable (exact): {find_k_coloring(union, 3) is not None}")
    print(f"  verify_instance: {verify_instance(inst).ok}")
