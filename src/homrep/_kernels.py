"""Backtracking search for adjacency-preserving permutations, and the
stabiliser chain built from it.

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

`stabiliser_chain` enumerates the same list without a descent per
element: Sims's stabiliser chain on the base 0, 1, ..., n-1 with orbit
pruning (McKay & Piperno 2014, "Practical graph isomorphism, II";
Seress 2003, ch. 4).  Level i is the stabiliser of 0..i-1.  From the
last level to the first, each candidate image w of i that the
generators found so far do not already reach from i gets one search
with 0..i-1 fixed and i -> w that stops at its first leaf.  These
searches are exhaustive, so they certify the level's orbit; the
orbits' transversals follow from the generators by composition, and
the group order is the product of the orbit lengths, known before any
element is built.  `search_automorphisms` stays as the verifier's
independent oracle.
"""

from __future__ import annotations


def _tables(adj_masks: list[int]) -> tuple[list[int], list[int]]:
    """Per vertex v: the vertices of v's degree, and v's earlier neighbours."""
    by_degree: dict[int, int] = {}
    for w, m in enumerate(adj_masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << w)
    same_degree = [by_degree[m.bit_count()] for m in adj_masks]
    below = [m & ((1 << v) - 1) for v, m in enumerate(adj_masks)]
    return same_degree, below


def _descend(adj_masks: list[int], same_degree: list[int], below: list[int],
             perm: list[int], start: int, used: int, r: int, pool: int,
             stop_at: int) -> list[tuple[int, ...]]:
    """The first stop_at completions of perm, whose images of 0..start-1
    are fixed and make up the bitmask used, that map start into the
    candidate bitmask pool; r holds the images of start's earlier
    neighbours."""
    n = len(adj_masks)
    out: list[tuple[int, ...]] = []
    req = [0] * n    # images of v's earlier neighbours
    pools = [0] * n  # untried candidate images of v
    req[start], pools[start] = r, pool
    v = start
    while v >= start:
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
            if v >= start:
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


def search_automorphisms(n: int, adj_masks: list[int], stop_at: int) -> list[tuple[int, ...]]:
    """Collect adjacency-preserving permutations, at most stop_at of them.

    adj_masks[u] has bit v set iff u ~ v, for n >= 1 vertices.  The
    identity comes first and the search stops at stop_at: the verifier
    asks for one more than the stabiliser chain's list, so that a missing
    element shows, and stop_at = 2 tests for a nontrivial automorphism.
    """
    if stop_at < 1:
        raise ValueError("stop_at must be positive")
    same_degree, below = _tables(adj_masks)
    return _descend(adj_masks, same_degree, below, [0] * n, 0, 0, 0, same_degree[0], stop_at)


def _transversal(base: int, gens: list[tuple[int, ...]], ident: tuple[int, ...]
                ) -> dict[int, tuple[int, ...]]:
    """u -> an element mapping base to u, for each u in base's orbit
    under gens; base's own element is ident, and comes first."""
    trans = {base: ident}
    queue = [base]
    for u in queue:
        t = trans[u]
        for s in gens:
            x = s[u]
            if x not in trans:
                trans[x] = tuple(map(s.__getitem__, t))  # s after t
                queue.append(x)
    return trans


def stabiliser_chain(n: int, adj_masks: list[int], cap: int
                     ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | int:
    """Strong generators for the base 0..n-1 and every adjacency-preserving
    permutation, in the search's order: lexicographic, identity first.

    The running product of the orbit lengths is checked as each level
    completes, so a large group is refused before any of its elements is
    built: when the product exceeds cap, it is returned instead.  It is
    the order of the stabiliser of the base points not yet reached, so a
    lower bound on the group order.
    """
    same_degree, below = _tables(adj_masks)
    ident = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    levels = []  # transversals of the nontrivial levels, last base point first
    order = 1
    for i in range(n - 1, -1, -1):
        # the search's pool for i with 0..i-1 fixed, less i itself
        used, r = (1 << i) - 1, below[i]
        pool = same_degree[i] & ~(used | 1 << i)
        m = r if pool else 0
        while m:
            bit = m & -m
            m ^= bit
            pool &= adj_masks[bit.bit_length() - 1]
        trans = {i: ident}
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            if w in trans or adj_masks[w] & used != r:
                continue
            # the identity prefix passes every test, so the descent starts at depth i
            leaf = _descend(adj_masks, same_degree, below, list(ident), i, used, r, low, 1)
            if leaf:
                gens.append(leaf[0])
                trans = _transversal(i, gens, ident)
        order *= len(trans)
        if order > cap:
            return order
        if len(trans) > 1:
            levels.append(list(trans.values())[1:])
    perms = [ident]
    for level in levels:
        # the stabiliser of 0..i-1 is the union of the cosets t.G_(i+1)
        perms += [tuple(map(t.__getitem__, h)) for t in level for h in perms]
    perms.sort()
    return gens, perms
