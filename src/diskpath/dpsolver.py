"""Maximum-weight path and cycle by dynamic programming over a tree
decomposition.

States follow the usual matching formulation: inside a bag every vertex is
either outside the solution (0), a singleton segment (1), a live segment
end whose partner end is also in the bag (2), a live end whose partner end
was already forgotten and sealed as a final path endpoint (3), or a segment
interior (4).  Label-2 ends carry a perfect matching pairing the two ends
of each segment, and path states count sealed final endpoints (0, 1 or 2).
Each graph edge is introduced exactly once, at the first node in postorder
whose bag contains both endpoints; cycles are closed eagerly and recorded
as global candidates rather than carried in the state.
"""

from .decomposition import (
    heuristic_decomposition,
    make_nice,
    validate_decomposition,
)
from .errors import ContractViolation, InputError

_DEG = (0, 0, 1, 1, 2)
_LIVE_PATH = (1, 2, 3)
_LIVE_CYCLE = (1, 2)


def _assign_edges(graph, nice):
    """Map each edge to the first postorder node whose bag has both ends."""
    assigned = [[] for _ in range(len(nice))]
    placed = set()
    for t in range(len(nice)):
        if nice.kinds[t] != "introduce":
            continue
        v = nice.acted[t]
        bag = nice.bags[t]
        for u in graph.adj[v]:
            key = (u, v) if u < v else (v, u)
            if u in bag and key not in placed:
                placed.add(key)
                assigned[t].append(key)
    for u, v in graph.edges():
        if (u, v) not in placed:
            raise ContractViolation(
                "edge {%r, %r} is covered by no bag" % (u, v))
    return assigned


def _add(table, state, value, back):
    cur = table.get(state)
    if cur is None or value > cur[0]:
        table[state] = (value, back)


def _introduce(child_table, p, weight, variant):
    out = {}
    for state, (val, _) in child_table.items():
        labels, match, seals = state
        shifted = tuple((x + 1 if x >= p else x) if x >= 0 else -1
                        for x in match)
        nm = shifted[:p] + (-1,) + shifted[p:]
        _add(out, (labels[:p] + (0,) + labels[p:], nm, seals),
             val, ("intro", state, False))
        _add(out, (labels[:p] + (1,) + labels[p:], nm, seals),
             val + weight, ("intro", state, True))
    return out


def _forget(child_table, p, variant):
    out = {}
    for state, (val, _) in child_table.items():
        labels, match, seals = state
        lv = labels[p]
        nl = list(labels)
        nm = list(match)
        if variant == "cycle":
            if lv in (1, 2):
                continue
        else:
            if lv == 1:
                seals += 2
            elif lv == 2:
                j = match[p]
                nl[j] = 3
                nm[j] = -1
                seals += 1
            elif lv == 3:
                seals += 1
            if seals > 2:
                continue
        del nl[p]
        del nm[p]
        nm = [(x - 1 if x > p else x) if x >= 0 else -1 for x in nm]
        _add(out, (tuple(nl), tuple(nm), seals), val, ("forget", state))
    return out


def _merge_states(sa, va, sb, vb, variant, shared):
    """Combine join-child states the caller has already prefiltered.

    The caller guarantees the two states agree on which bag vertices are
    in the solution, that no vertex exceeds degree two in the union, and
    that `shared` is the total weight of the agreed vertices.  Each side
    gives every vertex at most one live incidence (a matching edge for
    label two, a sealed far end for label three), so the union of the two
    segment structures is traced by alternating partner pointers.
    """
    la, ma, sla = sa
    lb, mb, slb = sb
    b = len(la)
    seals = sla + slb
    if seals > 2:
        return None
    value = va + vb - shared
    labs = (la, lb)
    mats = (ma, mb)
    nl = [0] * b
    nm = [-1] * b
    seen = [False] * b
    # open components, walked from a vertex live on exactly one side
    for i in range(b):
        if seen[i]:
            continue
        on_a = la[i] == 2 or la[i] == 3
        on_b = lb[i] == 2 or lb[i] == 3
        if on_a == on_b:
            continue
        seen[i] = True
        nl[i] = 4
        use = 0 if on_a else 1
        cur = i
        far = None
        while True:
            lab = labs[use][cur]
            if lab == 3:
                far = -1
                break
            if lab != 2:
                far = cur
                break
            cur = mats[use][cur]
            seen[cur] = True
            nl[cur] = 4
            use ^= 1
        if far == -1:
            nl[i] = 3
        else:
            nl[i] = nl[far] = 2
            nm[i] = far
            nm[far] = i
    # components running between two forgotten endpoints: every member is
    # live on both sides and at least one member holds a seal
    for i in range(b):
        if seen[i] or (la[i] != 3 and lb[i] != 3):
            continue
        seen[i] = True
        nl[i] = 4
        if la[i] == 3 and lb[i] == 3:
            continue
        use = 1 if la[i] == 3 else 0
        cur = i
        while labs[use][cur] == 2:
            cur = mats[use][cur]
            seen[cur] = True
            nl[cur] = 4
            use ^= 1
    # whatever is left live closes up into cycles
    cycles = 0
    for i in range(b):
        if seen[i] or la[i] != 2:
            continue
        if variant == "path":
            return None
        cycles += 1
        seen[i] = True
        nl[i] = 4
        use = 0
        cur = i
        while True:
            cur = mats[use][cur]
            if cur == i:
                break
            seen[cur] = True
            nl[cur] = 4
            use ^= 1
    # in-solution vertices not on any segment: still single iff single on
    # both sides, interior as soon as either side made them interior
    for i in range(b):
        if seen[i] or la[i] == 0:
            continue
        nl[i] = 1 if la[i] == 1 and lb[i] == 1 else 4
    if variant == "path":
        return ("state", (tuple(nl), tuple(nm), seals), value)
    if cycles == 0:
        return ("state", (tuple(nl), tuple(nm), 0), value)
    if cycles == 1 and all(x in (0, 4) for x in nl):
        return ("cycle", None, value)
    return None


def _mask_and_degrees(labels):
    """In-solution bitmask plus degrees packed four bits per vertex."""
    mask = 0
    packed = 0
    for i, lab in enumerate(labels):
        if lab:
            mask |= 1 << i
            packed += _DEG[lab] << (4 * i)
    return mask, packed


def _join(left_table, right_table, order, weights, variant, record):
    # only states agreeing on the in-solution vertex set can combine, and
    # no vertex may exceed degree two in the union; the degree test runs
    # on all vertices at once by adding the packed forms and looking for
    # a lane that reached three (adding one pushes 3 and 4 past the lane
    # bit, 2 and below not)
    b = len(order)
    lane_ones = int("1" * b, 16) if b else 0
    lane_fours = lane_ones << 2
    by_used = {}
    for sb, (vb, _) in right_table.items():
        mask, packed = _mask_and_degrees(sb[0])
        by_used.setdefault(mask, []).append((packed, sb, vb))
    out = {}
    shared_cache = {}
    for sa, (va, _) in left_table.items():
        mask, packed = _mask_and_degrees(sa[0])
        group = by_used.get(mask)
        if not group:
            continue
        shared = shared_cache.get(mask)
        if shared is None:
            shared = sum(weights[order[i]] for i in range(b) if mask >> i & 1)
            shared_cache[mask] = shared
        for pb, sb, vb in group:
            if (packed + pb + lane_ones) & lane_fours:
                continue
            merged = _merge_states(sa, va, sb, vb, variant, shared)
            if merged is None:
                continue
            kind, state, value = merged
            if kind == "cycle":
                record(value, ("join", sa, sb))
            else:
                _add(out, state, value, ("join", sa, sb))
    return out


def _fold_edge(table, iu, iv, variant, record):
    live = _LIVE_CYCLE if variant == "cycle" else _LIVE_PATH
    out = {}
    for state, (val, _) in table.items():
        _add(out, state, val, ("skip", state))
        labels, match, seals = state
        lu, lv = labels[iu], labels[iv]
        if lu not in live or lv not in live:
            continue
        if lu == 2 and match[iu] == iv:
            # the edge closes this segment into a cycle
            if variant == "cycle" and all(
                    labels[i] in (0, 4) for i in range(len(labels))
                    if i != iu and i != iv):
                record(val, ("close", state))
            continue
        nl = list(labels)
        nm = list(match)
        if lu == 1:
            a = iu
        elif lu == 2:
            a = match[iu]
            nl[iu] = 4
            nm[iu] = -1
        else:
            a = -1
            nl[iu] = 4
        if lv == 1:
            c = iv
        elif lv == 2:
            c = match[iv]
            nl[iv] = 4
            nm[iv] = -1
        else:
            c = -1
            nl[iv] = 4
        if a >= 0 and c >= 0:
            nl[a] = nl[c] = 2
            nm[a] = c
            nm[c] = a
        elif a >= 0:
            nl[a] = 3
            nm[a] = -1
        elif c >= 0:
            nl[c] = 3
            nm[c] = -1
        _add(out, (tuple(nl), tuple(nm), seals), val, ("edge", state))
    return out


def _replay(tables, nice, assigned, frames, extra_edges):
    verts = set()
    edges = list(extra_edges)
    stack = list(frames)
    while stack:
        t, j, state = stack.pop()
        back = tables[t][j][state][1]
        if j > 0:
            if back[0] == "edge":
                edges.append(assigned[t][j - 1])
            stack.append((t, j - 1, back[1]))
            continue
        kind = nice.kinds[t]
        if kind == "leaf":
            continue
        if kind == "introduce":
            if back[2]:
                verts.add(nice.acted[t])
            c = nice.children[t][0]
            stack.append((c, len(tables[c]) - 1, back[1]))
        elif kind == "forget":
            c = nice.children[t][0]
            stack.append((c, len(tables[c]) - 1, back[1]))
        else:
            lc, rc = nice.children[t]
            stack.append((lc, len(tables[lc]) - 1, back[1]))
            stack.append((rc, len(tables[rc]) - 1, back[2]))
    return verts, edges


def _assemble(graph, verts, edges, variant, value):
    """Turn the replayed vertex and edge sets into a checked sequence."""
    if not verts:
        raise AssertionError("witness replay produced no vertices")
    adj = {v: [] for v in verts}
    for u, v in edges:
        if u not in adj or v not in adj:
            raise AssertionError("witness edge endpoint outside vertex set")
        adj[u].append(v)
        adj[v].append(u)
    if variant == "path":
        if not edges:
            if len(verts) != 1:
                raise AssertionError("disconnected path witness")
            seq = [next(iter(verts))]
        else:
            endpoints = sorted(v for v in verts if len(adj[v]) == 1)
            if len(endpoints) != 2:
                raise AssertionError("path witness does not have two ends")
            seq = [endpoints[0]]
            prev = None
            while len(seq) < len(verts):
                nxt = [w for w in adj[seq[-1]] if w != prev]
                if len(nxt) != 1:
                    raise AssertionError("path witness is not a simple chain")
                prev = seq[-1]
                seq.append(nxt[0])
    else:
        start = min(verts)
        if len(adj[start]) != 2:
            raise AssertionError("cycle witness is not 2-regular")
        seq = [start, min(adj[start])]
        while len(seq) < len(verts):
            nxt = [w for w in adj[seq[-1]] if w != seq[-2]]
            if len(nxt) != 1:
                raise AssertionError("cycle witness is not a single cycle")
            seq.append(nxt[0])
        if not graph.has_edge(seq[-1], seq[0]):
            raise AssertionError("cycle witness does not close")
        if len(seq) < 3:
            raise AssertionError("cycle witness shorter than three vertices")
    seq = orient_witness(seq, variant)
    seen = set()
    for v in seq:
        if v in seen:
            raise AssertionError("witness repeats vertex %r" % v)
        seen.add(v)
    for u, v in zip(seq, seq[1:]):
        if not graph.has_edge(u, v):
            raise AssertionError("witness uses missing edge {%r, %r}" % (u, v))
    if graph.weight_of(seq) != value:
        raise AssertionError("witness weight %d does not match value %d"
                             % (graph.weight_of(seq), value))
    return seq


def _solve(graph, variant, decomposition, stats):
    if variant not in ("path", "cycle"):
        raise InputError("variant must be 'path' or 'cycle'")
    if graph.n == 0:
        raise InputError("graph is empty")
    if decomposition is None:
        decomposition = heuristic_decomposition(graph)
    else:
        validate_decomposition(graph, decomposition)
    nice = make_nice(decomposition)
    assigned = _assign_edges(graph, nice)
    orders = [tuple(sorted(bag)) for bag in nice.bags]
    tables = [None] * len(nice)
    candidates = []
    peak = total = 0
    for t in range(len(nice)):
        kind = nice.kinds[t]
        order = orders[t]
        if kind == "leaf":
            table = {((), (), 0): (0, ("leaf",))}
        elif kind == "introduce":
            c = nice.children[t][0]
            v = nice.acted[t]
            table = _introduce(tables[c][-1], order.index(v),
                               graph.weights[v], variant)
        elif kind == "forget":
            c = nice.children[t][0]
            table = _forget(tables[c][-1], orders[c].index(nice.acted[t]),
                            variant)
        else:
            lc, rc = nice.children[t]

            def record_at(value, info):
                candidates.append((value, ("join", t) + info[1:]))

            table = _join(tables[lc][-1], tables[rc][-1], order,
                          graph.weights, variant, record_at)
        tabs = [table]
        for j, (u, v) in enumerate(assigned[t]):
            iu, iv = order.index(u), order.index(v)

            def record_at(value, info, _t=t, _j=j):
                candidates.append((value, ("close", _t, _j, info[1])))

            tabs.append(_fold_edge(tabs[-1], iu, iv, variant, record_at))
        tables[t] = tabs
        peak = max(peak, max(len(x) for x in tabs))
        total += len(tabs[-1])
    if stats is not None:
        stats["dp_nodes"] = len(nice)
        stats["dp_peak_states"] = peak
        stats["dp_total_states"] = total

    if variant == "path":
        root = tables[len(nice) - 1][-1]
        entry = root.get(((), (), 2))
        if entry is None:
            raise AssertionError("path dynamic program lost all solutions")
        value = entry[0]
        frames = [(len(nice) - 1, len(tables[len(nice) - 1]) - 1,
                   ((), (), 2))]
        verts, edges = _replay(tables, nice, assigned, frames, [])
        return value, _assemble(graph, verts, edges, variant, value)

    best = None
    for value, info in candidates:
        if best is None or value > best[0]:
            best = (value, info)
    if best is None:
        return None, None
    value, info = best
    if info[0] == "close":
        _, t, j, state = info
        verts, edges = _replay(tables, nice, assigned, [(t, j, state)],
                               [assigned[t][j]])
    else:
        _, t, sa, sb = info
        lc, rc = nice.children[t]
        frames = [(lc, len(tables[lc]) - 1, sa),
                  (rc, len(tables[rc]) - 1, sb)]
        verts, edges = _replay(tables, nice, assigned, frames, [])
    return value, _assemble(graph, verts, edges, variant, value)


def orient_witness(seq, variant):
    """The one orientation every witness is reported in: a path runs from
    its smaller end, a cycle starts at its smallest vertex and takes the
    lexicographically smaller of its two directions."""
    if variant == "path":
        return seq if seq[0] <= seq[-1] else seq[::-1]
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    rev = seq[::-1]
    i = rev.index(min(seq))
    bwd = rev[i:] + rev[:i]
    return fwd if fwd <= bwd else bwd


def max_weight_path(graph, decomposition=None, stats=None):
    """Best total vertex weight over simple paths, with a checked witness."""
    return _solve(graph, "path", decomposition, stats)


def max_weight_cycle(graph, decomposition=None, stats=None):
    """Best total vertex weight over cycles (>= 3 vertices); (None, None)
    when the graph has no cycle."""
    return _solve(graph, "cycle", decomposition, stats)
