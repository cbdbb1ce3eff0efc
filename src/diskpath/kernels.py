"""Inner loops of the disk-graph build and of the verification oracles.

udg_edges is the bucketed edge scan that builds every disk graph the solver
sees; udg_edges_bruteforce is its O(n^2) reference.  The rest serve the
brute-force oracles on small graphs, all over neighbour bitmasks:
hk_longest (a Held-Karp subset DP for max-weight paths and cycles),
dfs_longest_path and dfs_longest_cycle (an independent top-down search), and
good_solution_search (the pruned search for a solution whose cells are all
good).
"""

# the only backend; perfbench/run.py prints it on its `env:` line
BACKEND = "pure"

_FORWARD_OFFSETS = (
    (0, 1), (0, 2),
    (1, -2), (1, -1), (1, 0), (1, 1), (1, 2),
    (2, -2), (2, -1), (2, 0), (2, 1), (2, 2),
)


def udg_edges(points):
    """All pairs {i, j} with squared distance <= 4, via spatial buckets.

    Buckets have side 2 (the adjacency threshold).  Partners normally sit in
    the same or an adjacent bucket, but the comparison dx*dx + dy*dy <= 4.0
    is a floating-point predicate: rounding can bring a pair whose true
    distance is a hair above 2 down to exactly 4.0, and such a pair may
    straddle two bucket widths on an axis.  Scanning out to Chebyshev bucket
    distance 2 (the twelve lexicographically-forward offsets) covers every
    pair the predicate can accept, with a wide margin.  Returns a list of
    (i, j) tuples with i < j, unsorted.
    """
    buckets = {}
    for idx, (x, y) in enumerate(points):
        key = (int(x // 2.0), int(y // 2.0))
        if key in buckets:
            buckets[key].append(idx)
        else:
            buckets[key] = [idx]
    edges = []
    for (bx, by), members in buckets.items():
        cnt = len(members)
        for a in range(cnt):
            i = members[a]
            xi, yi = points[i]
            for b in range(a + 1, cnt):
                j = members[b]
                dx = xi - points[j][0]
                dy = yi - points[j][1]
                if dx * dx + dy * dy <= 4.0:
                    edges.append((i, j) if i < j else (j, i))
        for ox, oy in _FORWARD_OFFSETS:
            other = buckets.get((bx + ox, by + oy))
            if other is None:
                continue
            for i in members:
                xi, yi = points[i]
                for j in other:
                    dx = xi - points[j][0]
                    dy = yi - points[j][1]
                    if dx * dx + dy * dy <= 4.0:
                        edges.append((i, j) if i < j else (j, i))
    return edges


def udg_edges_bruteforce(points):
    """O(n^2) all-pairs scan; the independent oracle for udg_edges."""
    n = len(points)
    edges = []
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            dx = xi - points[j][0]
            dy = yi - points[j][1]
            if dx * dx + dy * dy <= 4.0:
                edges.append((i, j))
    return edges


def hk_longest(adjmasks, weights):
    """Subset DP (Held-Karp style) for max-weight simple paths and cycles.

    adjmasks[v] is the neighbour bitmask of v; weights are positive ints.
    Returns (best_path_weight, path_witness, best_cycle_weight, cycle_witness)
    where the cycle entries are (0, None) if the graph is acyclic.  Paths may
    be single vertices; cycles need at least three.

    Two tables are kept: P[mask][v] for paths with any start, and R[mask][v]
    for paths constrained to start at the lowest set bit of mask (those are
    the ones a cycle rooted at its minimum vertex closes over).
    """
    n = len(adjmasks)
    size = 1 << n
    NEG = -1
    P = [NEG] * (size * n)
    R = [NEG] * (size * n)
    for v in range(n):
        idx = (1 << v) * n + v
        P[idx] = weights[v]
        R[idx] = weights[v]
    best_p = 0
    best_p_state = (0, -1)
    best_c = 0
    best_c_state = (0, -1)
    for mask in range(1, size):
        base = mask * n
        low = (mask & -mask).bit_length() - 1
        for v in range(n):
            pv = P[base + v]
            if pv < 0:
                continue
            if pv > best_p:
                best_p = pv
                best_p_state = (mask, v)
            rv = R[base + v]
            ext = adjmasks[v] & ~mask
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                w = wbit.bit_length() - 1
                nidx = (mask | wbit) * n + w
                cand = pv + weights[w]
                if cand > P[nidx]:
                    P[nidx] = cand
                if rv >= 0 and w > low:
                    cand = rv + weights[w]
                    if cand > R[nidx]:
                        R[nidx] = cand
            if (
                rv >= 0
                and bin(mask).count("1") >= 3
                and v != low
                and (adjmasks[v] >> low) & 1
                and rv > best_c
            ):
                best_c = rv
                best_c_state = (mask, v)
    path_witness = _hk_backtrack(P, adjmasks, weights, n, best_p_state)
    if best_c > 0:
        cycle_witness = _hk_backtrack(R, adjmasks, weights, n, best_c_state)
    else:
        cycle_witness = None
    return best_p, path_witness, best_c, cycle_witness


def _hk_backtrack(table, adjmasks, weights, n, state):
    mask, v = state
    if v < 0:
        return []
    seq = [v]
    while True:
        rest = mask & ~(1 << v)
        if not rest:
            break
        target = table[mask * n + v] - weights[v]
        nxt = -1
        cand = adjmasks[v] & rest
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            u = ubit.bit_length() - 1
            if table[rest * n + u] == target:
                nxt = u
                break
        if nxt < 0:  # pragma: no cover - table always backtracks
            raise AssertionError("subset-DP backtrack failed")
        mask, v = rest, nxt
        seq.append(v)
    seq.reverse()
    return seq


def dfs_longest_path(adjmasks):
    """Longest simple path (vertex count) by DFS over partial paths.

    Memoizes visited (mask, endpoint) states: extending a partial path only
    depends on its vertex set and tip, so each state is explored once.
    Independent of hk_longest by construction (top-down search vs
    bottom-up table).  Returns (length, witness).
    """
    n = len(adjmasks)
    seen = bytearray(n << n)
    best = 0
    best_path = []
    for root in range(n):
        stack = [root]
        rem = [adjmasks[root]]
        mask = 1 << root
        if best < 1:
            best = 1
            best_path = [root]
        seen[root << n | mask] = 1
        while stack:
            cand = rem[-1] & ~mask
            if cand:
                wbit = cand & -cand
                rem[-1] ^= wbit
                w = wbit.bit_length() - 1
                nmask = mask | wbit
                key = w << n | nmask
                if seen[key]:
                    continue
                seen[key] = 1
                stack.append(w)
                mask = nmask
                rem.append(adjmasks[w])
                if len(stack) > best:
                    best = len(stack)
                    best_path = stack.copy()
            else:
                v = stack.pop()
                mask ^= 1 << v
                rem.pop()
    return best, best_path


def dfs_longest_cycle(adjmasks):
    """Longest simple cycle (>= 3 vertices), DFS rooted at each minimum vertex.

    For root r only vertices > r may join the path, so every cycle is found
    at its minimum vertex.  Returns (length, witness) or (0, None).
    """
    n = len(adjmasks)
    seen = [0] * (n << n)
    best = 0
    best_cycle = None
    for root in range(n):
        stamp = root + 1
        above = ~((1 << (root + 1)) - 1)
        stack = [root]
        rem = [adjmasks[root] & above]
        mask = 1 << root
        seen[root << n | mask] = stamp
        while stack:
            cand = rem[-1] & ~mask
            if cand:
                wbit = cand & -cand
                rem[-1] ^= wbit
                w = wbit.bit_length() - 1
                nmask = mask | wbit
                key = w << n | nmask
                if seen[key] == stamp:
                    continue
                seen[key] = stamp
                stack.append(w)
                mask = nmask
                rem.append(adjmasks[w] & above)
                if len(stack) >= 3 and (adjmasks[w] >> root) & 1 and len(stack) > best:
                    best = len(stack)
                    best_cycle = stack.copy()
            else:
                v = stack.pop()
                mask ^= 1 << v
                rem.pop()
    return best, best_cycle


def good_solution_search(adjmasks, cell_ids, marked, ucount, k, is_cycle, node_cap):
    """DFS for a path/cycle on >= k vertices in which every cell is good.

    cell_ids maps vertices to dense cell indices, marked flags the marked
    vertices, ucount[c] counts the unmarked vertices of cell c.  Returns
    (status, witness): status 1 found, 0 exhausted, -1 node cap hit.

    The search prunes moves that no completion can repair.  Soundness of the
    three rules (each cut branch can never extend to an all-good solution):
      A. leaving an unmarked vertex across cells: the unmarked vertex would
         sit inside a flanking subpath yet have a neighbour outside its cell;
      B. opening a second unmarked run in a cell: the two runs would need a
         marked separator inside the one subpath whose internal vertices must
         all be unmarked;
      C. entering an unmarked vertex from another cell: its flank would lie
         outside the cell, which neither marked flanks nor the path-endpoint
         exception permits.
    Sequence ends are exempt where the definitions exempt them: a run may
    stay open at the path's first/last vertex, and for cycles the wrap edge
    back to the (always marked) root is checked at closure time.

    Cycles containing no marked vertex at all cannot leave their cell and are
    handled separately by the caller; this search roots cycles only at marked
    vertices (other marked vertices restricted to larger ids).
    """
    n = len(adjmasks)
    k_eff = max(k, 3) if is_cycle else max(k, 1)
    ncells = len(ucount)
    uvisited = [0] * ncells
    run_done = bytearray(ncells)
    nodes = 0
    if is_cycle:
        roots = [v for v in range(n) if marked[v]]
    else:
        roots = range(n)
    for root in roots:
        rc = cell_ids[root]
        path = [root]
        mask = 1 << root
        incomplete = 0
        if not marked[root]:
            uvisited[rc] = 1
            if ucount[rc] > 1:
                incomplete = 1
        if not is_cycle and 1 >= k_eff and incomplete == 0:
            return 1, [root]
        rem = [adjmasks[root]]
        closed = [-1]
        while path:
            cand = rem[-1] & ~mask
            if cand:
                wbit = cand & -cand
                rem[-1] ^= wbit
                w = wbit.bit_length() - 1
                u = path[-1]
                cu = cell_ids[u]
                cw = cell_ids[w]
                mw = marked[w]
                if not marked[u]:
                    if cw != cu:
                        continue  # rule A
                elif not mw and cw != cu:
                    continue  # rule C
                if not mw and marked[u] and run_done[cw]:
                    continue  # rule B
                if is_cycle and mw and w <= root:
                    continue
                nodes += 1
                if nodes > node_cap:
                    return -1, None
                closes = -1
                if not marked[u] and mw:
                    run_done[cu] = 1
                    closes = cu
                if not mw:
                    before = uvisited[cw]
                    uvisited[cw] = before + 1
                    if before + 1 == ucount[cw]:
                        if 0 < before:
                            incomplete -= 1
                    elif before == 0:
                        incomplete += 1
                path.append(w)
                mask |= wbit
                rem.append(adjmasks[w])
                closed.append(closes)
                if incomplete == 0 and len(path) >= k_eff:
                    if not is_cycle:
                        return 1, path.copy()
                    if (adjmasks[w] >> root) & 1 and (mw or cw == rc):
                        return 1, path.copy()
            else:
                v = path.pop()
                mask ^= 1 << v
                rem.pop()
                c = closed.pop()
                if c >= 0:
                    run_done[c] = 0
                if not marked[v]:
                    cv = cell_ids[v]
                    before = uvisited[cv]
                    uvisited[cv] = before - 1
                    if before == ucount[cv]:
                        if before > 1:
                            incomplete += 1
                    elif before == 1:
                        incomplete -= 1
    return 0, None
