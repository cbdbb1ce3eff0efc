"""A cheap constructive long path or cycle, tried before any decomposition.

A walk that validates and weighs at least the target is a sound "yes" at
any treewidth, so the solver tries one before paying for a decomposition
and the exact dynamic program.  A miss proves nothing; the exact pipeline
then runs as if the walk had never been tried.

From a few low-degree starts the walk grows greedily.  A path starts from
the bare vertex and extends at both ends by Warnsdorff's rule (step to the
unvisited neighbour with the fewest unvisited neighbours, ties by id); a
cycle starts from a triangle or 4-cycle through the start.  Both then
splice into each walk edge {u, v} an off-walk common neighbour, or an
off-walk detour u ~ x ~ y ~ v.  Passes repeat until nothing changes, and
the weight is compared with the target only between passes, so a walk
comes back whole rather than cut at the target.
"""

_STARTS = 8


def _extend(walk, on, adj):
    """Warnsdorff extension at the tail, then at the head."""
    grew = False
    for _ in range(2):
        while True:
            best = None
            for w in adj[walk[-1]]:
                if w not in on:
                    key = (sum(1 for y in adj[w] if y not in on), w)
                    if best is None or key < best:
                        best = key
            if best is None:
                break
            walk.append(best[1])
            on.add(best[1])
            grew = True
        walk.reverse()
    return grew


def _detour(u, v, on, adj, nbrs):
    """Off-walk vertices that can replace the walk edge {u, v}, or ()."""
    for w in adj[u]:
        if w not in on and w in nbrs[v]:
            return (w,)
    for x in adj[u]:
        if x not in on:
            for y in adj[x]:
                if y not in on and y in nbrs[v]:
                    return (x, y)
    return ()


def _insert(walk, on, adj, nbrs, closed):
    """One sweep of detours over the walk's edges; True when it grew."""
    out = []
    last = len(walk) - 1
    for i, u in enumerate(walk):
        out.append(u)
        if i < last or closed:
            extra = _detour(u, walk[i + 1] if i < last else walk[0], on, adj,
                            nbrs)
            out.extend(extra)
            on.update(extra)
    grew = len(out) > len(walk)
    walk[:] = out
    return grew


def _short_cycle(s, adj, nbrs):
    """A triangle, else a 4-cycle, through s (smallest ids first), or None."""
    for a in adj[s]:
        for b in adj[s]:
            if b > a and b in nbrs[a]:
                return [s, a, b]
    for a in adj[s]:
        for b in adj[s]:
            if b > a:
                for x in adj[a]:
                    if x != s and x in nbrs[b]:
                        return [s, a, x, b]
    return None


def long_walk(adj, weights, members, variant, target):
    """A path or cycle of one component weighing at least target, or None.

    adj maps each vertex to its neighbours in ascending id order; members
    lists the component.  Up to eight starts are tried, lowest degree first
    and ties by id; a cycle never starts at a vertex of degree below 2.
    """
    nbrs = {v: set(adj[v]) for v in members}
    closed = variant == "cycle"
    starts = sorted((v for v in members if not closed or len(adj[v]) >= 2),
                    key=lambda v: (len(adj[v]), v))
    for s in starts[:_STARTS]:
        walk = _short_cycle(s, adj, nbrs) if closed else [s]
        if walk is None:
            continue
        on = set(walk)
        while True:
            grew = not closed and _extend(walk, on, adj)
            grew = _insert(walk, on, adj, nbrs, closed) or grew
            if sum(weights[v] for v in walk) >= target:
                return walk
            if not grew:
                break
    return None
