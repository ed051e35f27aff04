"""Pure-Python enumeration kernel.

Walks assignment functions (free vertices -> bundles) in lexicographic order
with incremental cut-value maintenance, evaluating fairness predicates on
each state.  A canonical scan, one that fixes no vertex, visits only
restricted growth strings (Knuth, TAOCP 4A, 7.2.1.5): digit k rises to at
most one more than the largest digit before it, so each bundle partition is
visited once, by its lex-least labelling, and a match counts for every
labelling of its partition.  Semantically identical to the C kernel in
_scan.c; the compiled one is preferred at import time when available.

With the mask bit NONEMPTY, a canonical scan that collects no table walks
only the strings that use all n labels, the S(f, n) partitions into exactly
n blocks, and visits no state when f < n.  A collect scan and a scan that
fixes a vertex test NONEMPTY state by state (PO compares each vector with
those of all allocations, empty bundles included).  Digit j is forced when
exactly n - f + j labels come before it: every later digit must then take a
new label, so the forced digits form a suffix, from digit ``jf`` on, and
digit j of it holds label n - f + j.  The walk starts at zeros followed by
labels 1 to n - 1, and its carry starts at jf - 1, as forced digits never
advance.  When digit k advances to label nd with L labels before it, the
digits after it take the least completion: 0 up to the new suffix, which
starts at f - n + L + (1 if nd == L else 0), and the forced labels from
there.  The carry has set the digits below the old suffix to 0, so only the
digits between the old and the new start move: the suffix loses digit jf
when nd is a new label and gains a digit for each label the carry erased.
L is top[k] unless top[k] = n - 1, where L is n when label n - 1 occurs
before k; ``peak``, the first digit that holds n - 1, tells which, so the
bookkeeping is O(1) per step.  A skipped string has an empty bundle and
matches nothing, so every field but ``states``, ``steps`` and
``top_welfare`` is as with the test state by state.  ``top_welfare``, the
largest welfare over the visited states, is too when f >= n and the scan has
SO or is not ``first_only``: some welfare maximum then uses every label, as
a maximum with an empty bundle cuts every edge, and moving a vertex that
shares its bundle into the empty one keeps it so.

Vertex sets are int bitmasks: ``nbr[v]`` is v's neighbourhood and
``member[b]`` bundle b, so v has ``(nbr[v] & member[b]).bit_count()``
neighbours in bundle b, and a move costs two popcounts instead of an update
per neighbour.  Welfare, the sum of the bundle values, is twice the number of
cut edges; moving v from bundle d to nd changes it by
``2 * (|N(v) & B_d| - |N(v) & B_nd|)``.

The EF1 bit tests alpha-EF1, which asks each bundle richer than the poorest
to hold a vertex whose removal takes its value down to
alpha_den * vmin // alpha_num, vmin the poorest value; EF1 is alpha 1.  So a
bundle B passes when its best removal drop, the largest
``degrees[v] - 2 * |N(v) & B|`` over its members v, is at least its value
minus that target.  The drop depends only on B's member bitmask, and a scan
keeps a dict from bitmask to drop; the dict is cleared when it reaches
``DROP_CACHE_CAP`` = 2**14 entries, at most about 1.4 MB.  TS and wTS
need only the number c of a vertex's d neighbours that share its bundle.
Moving it changes its bundle's value by r = 2c - d and bundle j's by
d - 2 |N(v) & B_j|; when r >= 0 the other bundles hold at most d/2 of its
neighbours, so every such gain is >= 0, and > 0 when r > 0.  So with n >= 2,
wTS fails exactly when some vertex has c > d/2, and TS also when some
c = d/2 > 0 and n >= 3 (with n = 2 the one other bundle then gains 0).

That count is final once the vertex and its neighbours are placed: at the
vertex's closing position, the largest free-vertex position among itself and
its neighbours (-1 when all of them are fixed).  So a scan whose mask has TS
or WTS tests TS/wTS first, walking the vertices in closing order, and at the
first failing vertex, with closing position j, skips every completion of
digits 0 to j: the digits after j reset to 0 and digit j advances through the
normal carry (with n = 1 no vertex fails).  The failing state itself goes
straight to the step (with a NONEMPTY walk, a failure at a forced digit j
skips every completion of the digits before jf).  Only failing states are
skipped, so every field but
``states`` is unchanged, except ``top_welfare``, which stays the largest
welfare over the visited states, and ``vectors``, which holds the vectors
of the states that pass the TS/wTS test (every state's when the mask has
neither bit).  A vertex that breaks TS or wTS has fewer neighbours in some
other bundle than in its own, and moving it there raises that bundle's value
without lowering its own: a Pareto improvement that strictly raises the
welfare.  So every welfare maximum and every undominated value vector is TS
and wTS; hence a scan that is not ``first_only`` and fixes no vertex, or only
vertex 0 (any allocation has a relabelling with vertex 0 in bundle 0), still
visits a global maximum and returns it, and its ``vectors`` still holds
every undominated vector.  A visited state re-tests only the vertices that
close at or after the lowest digit moved since the last visited state: one
that closes earlier kept its count, and it passed, for a failure would have
sent the scan past it.  The first state tests every vertex: the moves that
place a walk's first forced suffix do not count as moved digits.

With the mask bit SO a state matches only at the scan's top welfare, and the
scan is pruned by a cut bound (branch and bound: Land and Doig, Econometrica
1960).  Place digits 0 to p-1 and the fixed vertices, and let c_b(u) count
the placed neighbours in bundle b of an unplaced vertex u.  A completion
cuts at most the cut edges among the placed vertices, every edge among the
unplaced ones and, of the edges from u to the placed ones, all but its
fewest in one bundle, sum_b c_b(u) - min_b c_b(u).  Twice that sum is
``ub[p]``; it never rises with p, and ``ub[f]`` is the welfare.  Placing
v = free[p] in bundle b changes it by 2 * (min_b' c_b'(v) - c_b(v) - the
number of v's later neighbours u for which b was the one fewest bundle),
every count taken over the prefix.  ``slack[p]`` (f + 1 non-negative ints,
``slack[f]`` = 0) is twice a number of edges among the unplaced vertices
free[p:] that every completion leaves uncut; the oracle passes a packing of
edge-disjoint (n + 1)-cliques among them, each of which leaves one edge
uncut in n bundles, and zeros without SO.  So the bound on a prefix is
``ub[p] - slack[p]``, which may rise with p: placing free[p] drops the
cliques through it from the packing.  After a step whose lowest moved digit
is k, the scan recomputes ``ub[k + 1:]`` in order, one step per placement
(``steps``, 0 without SO), and at the first p with
``ub[p + 1] - slack[p + 1] < top_welfare`` it advances digit p through the
normal carry without visiting the state; the digits after p are 0 up to a
walk's forced suffix, so the carry starts at p, or at jf - 1 when p >= jf.
The test is strict, so every state at the top welfare is
visited: ``top_welfare`` is as without SO, and a larger valid slack changes
only ``states`` and ``steps``.  Every visited state is at least at the top
so far, as the tests skip the rest, so when the top rises the scan resets
``matched``, ``first_index`` and the listed matches, and they are exact at
the top welfare (0, -1 and none when no state that passes the other bits
reaches it).  With SO ``vectors`` is undefined, and a scan that is
``collect_vectors`` is refused.

An SO scan that is ``first_only`` reads only ``top_welfare`` and
``first_index``; ``matched`` and the matches are undefined.  It does not stop
at its first match.  Once a match sits at the top welfare, both tests also
hold on equality, so every prefix whose bound is the top and every state at
the top is skipped: the scan walks in index order, so every later tie has a
larger index, and only a welfare above the top can move the two fields.
``floor`` is where ``top_welfare`` starts, -1 for none.  It must not exceed
the top welfare the scan finds from -1, as the welfare of any allocation in
range does when the scan visits the range's maximum (with TS or WTS: when it
fixes no vertex but vertex 0).  Then the states below it are skipped and
every field but ``states`` and ``steps`` is as from -1.
"""

from __future__ import annotations

from math import perm

NONEMPTY = 1
EF = 2
EF1 = 4
TS = 16
WTS = 32
SO = 64
KNOWN = NONEMPTY | EF | EF1 | TS | WTS | SO  # any other require_mask bit is refused
DROP_CACHE_CAP = 1 << 14  # entries of a scan's EF1 drop cache, which is cleared when full


def _index(digits, n):
    """The labelled index of the state whose free-vertex labels are digits."""
    index = 0
    for d in digits:
        index = index * n + d
    return index


def _resuffix(old, new, shift, free, digits, nbr, degrees, member, values, assign):
    """Move a walk's forced suffix from digit old to digit new: digit j >= new
    holds label j + shift, and a digit between them 0.  The change in
    welfare."""
    gain = 0
    for j in range(min(old, new), max(old, new)):
        d = digits[j]
        nd = j + shift - d  # 0 <-> the forced label
        v = free[j]
        nv = nbr[v]
        deg = degrees[v]
        in_d = (nv & member[d]).bit_count()
        in_nd = (nv & member[nd]).bit_count()
        values[d] += 2 * in_d - deg
        values[nd] += deg - 2 * in_nd
        gain += 2 * (in_d - in_nd)
        member[d] ^= 1 << v
        member[nd] |= 1 << v
        assign[v] = nd
        digits[j] = nd
    return gain


def scan(
    num_vertices,
    n,
    indptr,
    indices,
    degrees,
    fixed,
    require_mask,
    alpha_num,
    alpha_den,
    first_only,
    collect_vectors,
    list_matches,
    slack,
    floor,
):
    """Scan global assignment indices from 0 to n**free - 1; when no vertex
    is fixed, only the restricted growth strings, and with NONEMPTY in
    require_mask and not collect_vectors only those that use all n labels
    (see the module docstring).  The EF1 bit of
    require_mask tests alpha-EF1 at alpha_num / alpha_den (EF1 at 1 / 1).
    slack is the SO bound's f + 1 non-negative ints (see the module
    docstring); ValueError otherwise.

    Returns a dict with:
      states          -- number of states visited
      steps           -- number of prefix placements of the SO bound, 0
                         without SO
      matched         -- number of labelled states matching require_mask
      first_index     -- least matching index, or -1
      top_welfare     -- largest welfare over the visited states, from floor
      matches         -- index of every matching state visited, in scan order
                         (list_matches only)
    With SO in require_mask a state matches only at top_welfare, and with
    first_only as well only top_welfare and first_index are defined.
      vectors         -- {tuple(sorted(values)): [least matching index or -1,
                         labelled matching-state count]} over the visited
                         states that pass the TS/WTS bits of require_mask
                         (collect_vectors only)
    """
    if num_vertices < 0 or n < 1:
        raise ValueError("num_vertices must be >= 0 and n >= 1")
    if require_mask & ~KNOWN:
        raise ValueError(f"unknown require_mask bits {require_mask & ~KNOWN}")
    if require_mask & SO and collect_vectors:
        raise ValueError("an SO scan collects no value vectors")
    free = [v for v in range(num_vertices) if fixed[v] < 0]
    f = len(free)
    if len(slack) != f + 1 or min(slack) < 0:
        raise ValueError(f"slack must be {f + 1} non-negative ints, one per free vertex and one more")
    canonical = f == num_vertices
    # a canonical NONEMPTY scan that collects no table walks only the
    # strings that use all n labels
    walk = require_mask & NONEMPTY and canonical and not collect_vectors
    if walk and f < n:  # no such string
        matches = [] if list_matches else None
        return dict(
            states=0, steps=0, matched=0, first_index=-1, top_welfare=floor, matches=matches, vectors=None
        )
    assign = [max(b, 0) for b in fixed]  # every free vertex starts in bundle 0
    digits = [0] * f
    n1 = n - 1
    top = [min(n1, k, 1) if canonical else n1 for k in range(f)]  # the largest label of digit k
    # a canonical state with e empty bundles stands for n!/e! labellings
    weights = [perm(n, n - e) for e in range(n + 1)]

    nbr = [0] * num_vertices
    for v in range(num_vertices):
        for p in range(indptr[v], indptr[v + 1]):
            nbr[v] |= 1 << indices[p]
    member = [0] * n
    for v, b in enumerate(assign):
        member[b] |= 1 << v
    values = [0] * n
    for v, b in enumerate(assign):
        values[b] += degrees[v] - (nbr[v] & member[b]).bit_count()
    welfare = sum(values)
    # the least c at which each vertex breaks TS or wTS
    if n == 1:
        crowded = [d + 1 for d in degrees]
    elif require_mask & TS and n > 2:
        crowded = [max(1, (d + 1) // 2) for d in degrees]
    else:
        crowded = [d // 2 + 1 for d in degrees]
    # each vertex's closing position, and the vertices that can break TS or
    # wTS in closing order
    position = [-1] * num_vertices
    for k, v in enumerate(free):
        position[v] = k
    closing = [
        max([position[v]] + [position[u] for u in indices[indptr[v] : indptr[v + 1]]])
        for v in range(num_vertices)
    ]
    crowdable = [
        (nbr[v], v, crowded[v], closing[v])
        for v in sorted(range(num_vertices), key=closing.__getitem__)
        if require_mask & (TS | WTS) and crowded[v] <= degrees[v]
    ]

    # tails[k]: the crowdable entries that close at k or later, those a state
    # re-tests when k is the lowest digit moved since the last visited state;
    # tails[f]: every entry, for the first state
    tails = []
    i = 0
    for k in range(f):
        while i < len(crowdable) and crowdable[i][3] < k:
            i += 1
        tails.append(crowdable[i:])
    tails.append(crowdable)

    bound = require_mask & SO
    if bound:
        # counts[u][b]: u's neighbours in bundle b among the fixed vertices and
        # the first ``placed`` free ones, each free vertex counted at its later
        # neighbours only; rows[p] and laters[p]: the counts of free[p] and
        # of its later neighbours; placedin[p]: the bundle free[p] was
        # counted in.
        counts = [[0] * n for _ in range(num_vertices)]
        for v in range(num_vertices):
            if fixed[v] >= 0:
                for u in indices[indptr[v] : indptr[v + 1]]:
                    counts[u][fixed[v]] += 1
        uncut = sum(counts[v][fixed[v]] for v in range(num_vertices) if fixed[v] >= 0)
        ub = [sum(degrees) - uncut - 2 * sum(min(counts[v]) for v in free)] + [0] * f
        rows = [counts[v] for v in free]
        laters = [
            [counts[u] for u in indices[indptr[v] : indptr[v + 1]] if position[u] > p]
            for p, v in enumerate(free)
        ]
        placedin = [0] * f
        placed = 0

    # the scan's state, which _resuffix moves
    state = (free, digits, nbr, degrees, member, values, assign)
    jf = f  # digits jf to f - 1 are forced
    if walk:  # the first string: zeros, then labels 1 to n - 1
        welfare += _resuffix(f, f - n + 1, n - f, *state)
        jf = f - n + 1
        peak = f - 1  # the first digit that holds label n - 1 (unread with n = 1)
    matches = [] if list_matches else None
    vectors: dict = {}
    drops: dict = {}  # bundle bitmask -> its best removal drop
    states = steps = 0
    matched = 0
    first_index = -1
    top_welfare = bar = floor  # bar: the least welfare an SO scan still visits
    k = 0  # the lowest digit the last step moved: ub[k + 1:] are stale
    changed = f  # the lowest digit moved since the last visited state

    while True:
        last = f  # the step advances no digit after last
        start = jf - 1  # the step's carry starts at digit start: forced digits never advance
        if bound:
            while placed > k:
                placed -= 1
                b = placedin[placed]
                for row in laters[placed]:
                    row[b] -= 1
            for p in range(k, f - 1):
                b = digits[p]
                nb = b + 1 if b < n1 else 0
                own = rows[p]
                delta = min(own) - own[b]
                for row in laters[p]:
                    c = row[b]
                    # is b u's one fewest bundle?  With n = 2, exactly when c < row[nb]
                    if c < row[nb]:
                        if n == 2 or c == min(row) and row.count(c) == 1:
                            delta -= 1
                    elif n == 1:
                        delta -= 1
                    row[b] = c + 1
                placedin[p] = b
                placed = p + 1
                ub[placed] = ub[p] + 2 * delta
                if ub[placed] - slack[placed] < bar:
                    # every completion of digits 0..p is below the bar, and the
                    # digits after p are 0 up to the forced suffix
                    last = p
                    if p < start:
                        start = p
                    break
            else:
                if welfare < bar:
                    last = f - 1
            steps += placed - k
        if last == f:
            states += 1
            if welfare > top_welfare:
                top_welfare = bar = welfare
                if bound:  # the matches so far are below the new top
                    matched, first_index = 0, -1
                    if list_matches:
                        matches.clear()
            for nv, v, t, j in tails[changed]:
                if (nv & member[assign[v]]).bit_count() >= t:
                    last = j  # every completion of digits 0..j fails: the digits after j reset to 0
                    break
            changed = f
            ok = last == f  # a state that breaks TS or wTS goes straight to the step
            if ok and require_mask & NONEMPTY:
                ok = 0 not in member
            if ok and require_mask & EF:
                ok = min(values) == max(values)
            if ok and require_mask & EF1:
                vmin = min(values)
                cap = alpha_den * vmin // alpha_num
                for b in range(n):
                    if values[b] > vmin:  # some vertex of b must take it down to cap
                        mb = member[b]
                        drop = drops.get(mb)
                        if drop is None:
                            if len(drops) >= DROP_CACHE_CAP:
                                drops.clear()
                            low = mb & -mb
                            v = low.bit_length() - 1
                            drop = degrees[v] - 2 * (nbr[v] & mb).bit_count()
                            rest = mb ^ low
                            while rest:
                                low = rest & -rest
                                v = low.bit_length() - 1
                                x = degrees[v] - 2 * (nbr[v] & mb).bit_count()
                                if x > drop:
                                    drop = x
                                rest ^= low
                            drops[mb] = drop
                        if drop < values[b] - cap:
                            ok = False
                            break

            if ok:
                weight = weights[member.count(0)] if canonical else 1
                matched += weight
                if list_matches:
                    matches.append(_index(digits, n))
                if first_index < 0:
                    first_index = _index(digits, n)
            if collect_vectors and last == f:
                key = tuple(sorted(values))
                entry = vectors.get(key)
                if entry is None:
                    entry = vectors[key] = [-1, 0]
                if ok:
                    if entry[0] < 0:
                        entry[0] = _index(digits, n)
                    entry[1] += weight
            if ok and first_only:
                if not bound:
                    break
                # an SO scan visits only states at the top welfare, and every
                # later tie has a larger index
                bar = welfare + 1

        k = start
        while k >= 0:
            d = digits[k]
            v = free[k]
            t = top[k]
            nd = d + 1 if d < t and k <= last else 0
            if nd == d:  # a digit that stays at 0
                k -= 1
                continue
            # incremental move of v from bundle d to nd
            nv = nbr[v]
            deg = degrees[v]
            in_d = (nv & member[d]).bit_count()
            in_nd = (nv & member[nd]).bit_count()
            values[d] += 2 * in_d - deg
            values[nd] += deg - 2 * in_nd
            welfare += 2 * (in_d - in_nd)
            member[d] ^= 1 << v
            member[nd] |= 1 << v
            assign[v] = nd
            digits[k] = nd
            if nd:
                if t < n1:  # canonical, and the digits after k reset to 0
                    top[k + 1 :] = [t + 1 if nd == t else t] * (f - k - 1)
                break
            k -= 1
        if k < 0:  # carried out of the top digit
            break
        if k < changed:
            changed = k
        if walk:
            labels = t + (t == n1 and peak < k)  # the labels before digit k
            if peak > k:
                peak = k if nd == n1 else f - 1
            nf = f - n + labels + (nd == labels)  # the suffix after digit k's new label nd
            if nf != jf:
                welfare += _resuffix(jf, nf, n - f, *state)
                jf = nf

    return {
        "states": states,
        "steps": steps,
        "matched": matched,
        "first_index": first_index,
        "top_welfare": top_welfare,
        "matches": matches,
        "vectors": vectors if collect_vectors else None,
    }
