#!/usr/bin/env python3
"""Appendix A: why GHOST nodes may not know the main chain.

Reconstructs Figure 9 exactly: three nodes each hold the chain
0→1→2→3→4 plus one of three siblings under the fork block 2'.  Each
node locally prefers the long chain; globally, GHOST prefers the bushy
subtree under 2'.  Nobody is right, and nobody can tell.

Run:  python examples/ghost_ambiguity.py
"""

from repro.ghost import build_appendix_a, no_view_matches_global


def main() -> None:
    scenario = build_appendix_a()
    print("GHOST main-chain ambiguity (paper Appendix A, Figure 9)\n")
    print("block tree: 0-1-2-3-4 and 1-2' with siblings 3', 3'', 3'''\n")
    global_chain = scenario.global_main_chain_labels()
    print(f"global GHOST main chain (all blocks known): "
          f"{' -> '.join(global_chain)}")
    print("  subtree(2') = 4 blocks beats subtree(2) = 3 blocks\n")
    for node in range(3):
        view_chain = scenario.view_main_chain_labels(node)
        sibling = ("3'", "3''", "3'''")[node]
        print(f"node {node + 1} (sees only {sibling}): "
              f"{' -> '.join(view_chain)}")
    assert no_view_matches_global(scenario)
    print("\nno node's local choice matches the global main chain: True")
    print(
        "\nThis is why GHOST must propagate every block — and why the\n"
        "paper found that overhead made GHOST perform worse than Bitcoin\n"
        "in their testbed (Section 9)."
    )


if __name__ == "__main__":
    main()
