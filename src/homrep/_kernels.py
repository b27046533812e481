"""Backtracking search for adjacency-preserving permutations.

Vertex v is assigned an image at depth v.  A candidate image w must
have v's degree and be adjacent to exactly the images of v's earlier
neighbours among the vertices already used.  Candidates are tried in
increasing label order, so permutations come out in lexicographic order
with the identity first; callers rely on that order (the second hit of
an early-stopped search is nontrivial).

The search keeps an explicit stack, so its depth is not bounded by the
interpreter's recursion limit.  At each depth the untried candidates
are one bitmask: the unused vertices of v's degree, narrowed to the
common neighbours of the images of v's earlier neighbours when v has
any.  Every image passing the full test lies in that pool, so the
narrowing changes neither the output nor its order; it replaces a scan
over all n labels at every depth.
"""

from __future__ import annotations


def search_automorphisms(n: int, adj_masks: list[int], stop_at: int) -> list[tuple[int, ...]]:
    """Collect adjacency-preserving permutations, at most stop_at of them.

    adj_masks[u] has bit v set iff u ~ v, for n >= 1 vertices.  Stopping
    early at stop_at lets callers implement both group-order caps
    (stop_at = cap + 1) and early-exit symmetry detection (stop_at = 2).
    """
    if stop_at < 1:
        raise ValueError("stop_at must be positive")
    by_degree: dict[int, int] = {}
    for w, m in enumerate(adj_masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << w)
    same_degree = [by_degree[m.bit_count()] for m in adj_masks]
    # earlier-neighbour masks: bits below v in row v
    below = [adj_masks[v] & ((1 << v) - 1) for v in range(n)]

    out: list[tuple[int, ...]] = []
    perm = [0] * n
    req = [0] * n    # images of v's earlier neighbours
    pools = [0] * n  # untried candidate images of v
    pools[0] = same_degree[0]
    used = 0
    v = 0
    while v >= 0:
        pool, r = pools[v], req[v]
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            if adj_masks[w] & used == r:
                break
        else:
            # depth v is exhausted: free the image of v - 1 and retreat
            v -= 1
            if v >= 0:
                used ^= 1 << perm[v]
            continue
        pools[v] = pool
        perm[v] = w
        if v + 1 == n:
            out.append(tuple(perm))
            if len(out) >= stop_at:
                break
            continue
        used |= low
        v += 1
        r = 0
        pool = same_degree[v] & ~used
        m = below[v]
        while m:
            bit = m & -m
            m ^= bit
            image = perm[bit.bit_length() - 1]
            r |= 1 << image
            pool &= adj_masks[image]
        req[v], pools[v] = r, pool
    return out
