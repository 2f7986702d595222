"""Kernels over bitmasks: the one implementation behind ``_kernels``.

The sweep walks each family once up to row order: only the non-decreasing
sequences of subset bitmasks, each weighted by its number of orderings,
extending each route's state by one row.  Its contract is the same
(checked, mismatches) as a per-family check over every ordered family
whose smallest subset lies in a given range.  Integers are Python ints
throughout, so there are no width limits.

Conventions:

* ``rows`` is a sequence of tuples of column indices, each tuple strictly
  ascending, columns numbered ``0 .. ncols-1``.  Row ``j`` lists the
  columns incident to set ``j``.
* Matchings are reported as ``col_of``: for each row the matched column,
  or -1 when the row is unmatched.
"""

import functools


def euler_terms(rows, ncols):
    """Expand prod_j (sum of column variables in row j) with v*v = 0.

    Returns {column bitmask -> coefficient}.  Coefficients are positive
    counts (no cancellation can occur), and the empty product is {0: 1}.

    The product commutes, so the rows are multiplied in greedy order: next
    comes the row that adds the fewest columns not yet touched by the rows
    already taken, ties going to the lowest index.  The order reads only
    the rows' column sets, never another route's result, and keeps the
    expansion narrow: a row inside the touched columns only thins it out,
    and an exhausted product stops the loop early.
    """
    terms = {0: 1}
    for cols in _greedy_order(rows):
        terms = _euler_step(terms, cols)
        if not terms:
            break
    return terms


def _greedy_order(rows):
    # Yield the rows in the order euler_terms multiplies them.
    masks = [sum(1 << c for c in cols) for cols in rows]
    left = list(range(len(rows)))
    touched = 0
    while left:
        # min keeps the first of equal keys, i.e. the lowest index
        best = min(left, key=lambda j: (masks[j] & ~touched).bit_count())
        left.remove(best)
        touched |= masks[best]
        yield rows[best]


def _euler_step(terms, cols):
    # Multiply the expansion `terms` by the sum of the variables in `cols`,
    # one column at a time: each column's bit is made once and multiplies
    # every term in one pass.
    nxt = {}
    get = nxt.get
    items = terms.items()
    for c in cols:
        bit = 1 << c
        for mask, coeff in items:
            if not mask & bit:
                key = mask | bit
                nxt[key] = get(key, 0) + coeff
    return nxt


def hall_violation(rows, ncols):
    """First subset of rows whose column union is too small, else -1.

    Subsets are scanned as bitmasks in ascending order; the return value
    is the bitmask over row indices of the first violating subset.
    """
    m = len(rows)
    masks = [0] * m
    for j, cols in enumerate(rows):
        acc = 0
        for c in cols:
            acc |= 1 << c
        masks[j] = acc
    union = [0] * (1 << m)
    for sub in range(1, 1 << m):
        low = (sub & -sub).bit_length() - 1
        u = union[sub & (sub - 1)] | masks[low]
        union[sub] = u
        if u.bit_count() < sub.bit_count():
            return sub
    return -1


def max_matching(rows, ncols):
    """Maximum bipartite matching (rows vs columns), deterministic.

    Greedy seeding in row order followed by augmenting-path search for
    each unmatched row; adjacency is always scanned in stored (ascending)
    order, so the result depends only on the input.
    """
    m = len(rows)
    row_of = [-1] * ncols
    col_of = [-1] * m
    for j, cols in enumerate(rows):
        for c in cols:
            if row_of[c] < 0:
                row_of[c] = j
                col_of[j] = c
                break
    for j in range(m):
        if col_of[j] < 0:
            _augment(j, rows, row_of, col_of, bytearray(ncols))
    return col_of


def _augment(start, rows, row_of, col_of, seen):
    # Iterative alternating DFS, so long paths hit no recursion limit.
    # frames[i] = [row, next adjacency index]; path_cols[i] = column taken
    # out of frames[i] towards frames[i+1].
    frames = [[start, 0]]
    path_cols = []
    while frames:
        frame = frames[-1]
        cols = rows[frame[0]]
        advanced = False
        while frame[1] < len(cols):
            c = cols[frame[1]]
            frame[1] += 1
            if seen[c]:
                continue
            seen[c] = 1
            r = row_of[c]
            if r < 0:
                path_cols.append(c)
                for (row, _), col in zip(frames, path_cols):
                    row_of[col] = row
                    col_of[row] = col
                return True
            frames.append([r, 0])
            path_cols.append(c)
            advanced = True
            break
        if not advanced:
            frames.pop()
            if path_cols:
                path_cols.pop()
    return False


def permanent(rows, m):
    """Permanent of the m x m 0/1 matrix with given incidence rows.

    Ryser's inclusion-exclusion over column subsets in Gray-code order;
    exact integer arithmetic.
    """
    if m == 0:
        return 1
    col_rows = [0] * m
    for j, cols in enumerate(rows):
        for c in cols:
            col_rows[c] |= 1 << j
    rowsum = [0] * m
    total = 0
    gray = 0
    for k in range(1, 1 << m):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        delta = 1 if gray >> bit & 1 else -1
        rr = col_rows[bit]
        while rr:
            rr_low = rr & -rr
            rowsum[rr_low.bit_length() - 1] += delta
            rr ^= rr_low
        prod = 1
        for s in rowsum:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            if (m - gray.bit_count()) & 1:
                total -= prod
            else:
                total += prod
    return total


def sweep_equivalence_range(max_m, max_atom, lo, hi):
    """Three-way equivalence scan over families of atom subsets.

    Checks every ordered family of m in 1..max_m nonempty subsets of
    {1..max_atom} whose smallest subset, read as a bitmask, lies in
    [lo, hi): its Euler product is nonzero, it satisfies Hall's condition
    and a maximum matching saturates it, all three or none.  Returns
    (families checked, disagreements), both counted over ordered
    families; the sums over any partition of [1, 2**max_atom) equal the
    full range's.

    All three routes are invariant under permuting rows, so only the
    non-decreasing mask sequences are visited: the children of a node
    whose last mask is s run over s..2**max_atom - 1.  A visited family
    with mask multiplicities mult stands for its m!/prod(mult!) orderings
    and adds that weight to both counts.  The weight is kept along the
    walk: a child of length k+1 has its parent's weight times (k+1)/r,
    where r is the multiplicity of its last mask (the length of the run
    of equal masks at its end).

    Each visited family extends its parent's state, one independent
    piece per route, by its last row:

    * Euler: the {mask: coeff} expansion, times one more row;
    * Hall: the column union of every subset of rows, indexed by the
      subset's bitmask as in ``hall_violation``, and whether some subset
      already has too few columns;
    * matching: a maximum matching, grown by one augmenting-path search
      from the new row (by Berge's lemma it stays maximum).

    Families of length max_m are decided from summaries of their parent
    instead; see ``_last_rows``.
    """
    if max_m < 1:
        return 0, 0
    cols_of = column_table(max_atom)
    # the root is the empty family: product 1, one empty union, empty
    # matching, weight 1 and no last mask (0 is no subset's mask)
    return _extend(max_m, cols_of, [], {0: 1}, [0], False, [-1] * max_atom, [], 0,
                   1, 0, 0, range(lo, hi))


@functools.lru_cache(maxsize=1)
def column_table(ncols):
    """The ascending column tuple of every bitmask below 2**ncols, by mask.

    Shared by the sweeps and cached, so a sweep split into many ranges
    builds it once per process; only the latest width is kept.
    """
    table = [()]
    for c in range(ncols):
        table += [cols + (c,) for cols in table]
    return tuple(table)


def _extend(max_m, cols_of, rows, terms, unions, violated, row_of, col_of, matched,
            weight, last, run, masks):
    # Weighted (checked, mismatches) over the families rows + [mask], mask
    # in masks, and all their non-decreasing descendants.  The other
    # arguments are the state of rows: each route's state, the number of
    # orderings `weight`, the last mask and the length `run` of the run of
    # equal masks at the end.
    k = len(rows)
    full = len(cols_of) - 1
    if k == max_m - 1:
        return _last_rows(rows, terms, unions, violated, row_of, matched, weight, last, run,
                          masks, full)
    checked = mismatches = 0
    for mask in masks:
        cols = cols_of[mask]
        rows.append(cols)
        child_terms = _euler_step(terms, cols)
        # the new subsets are sub | 1 << k, one row larger than sub
        grown = [u | mask for u in unions]
        child_violated = violated or any(
            u.bit_count() <= sub.bit_count() for sub, u in enumerate(grown)
        )
        child_row_of = row_of[:]
        child_col_of = col_of + [-1]
        child_matched = matched + _augment(
            k, rows, child_row_of, child_col_of, bytearray(len(row_of))
        )
        child_run = run + 1 if mask == last else 1
        child_weight = weight * (k + 1) // child_run
        checked += child_weight
        if not (bool(child_terms) == (not child_violated) == (child_matched == k + 1)):
            mismatches += child_weight
        below = _extend(max_m, cols_of, rows, child_terms, unions + grown, child_violated,
                        child_row_of, child_col_of, child_matched, child_weight, mask,
                        child_run, range(mask, full + 1))
        checked += below[0]
        mismatches += below[1]
        rows.pop()
    return checked, mismatches


def _last_rows(rows, terms, unions, violated, row_of, matched, weight, last, run, masks, full):
    # Weighted (checked, mismatches) over the families rows + [mask], mask
    # in masks; weight, last and run describe rows as in _extend.
    # Each route summarizes the parent once, then decides each child:
    # * Euler: the product stays nonzero iff some parent monomial misses a
    #   column of the new row, i.e. iff the row is not inside their
    #   intersection `common`;
    # * Hall: the child's new subsets are each parent subset plus the new
    #   row.  A parent that holds gives every distinct union u at least
    #   `largest[u]` columns, the largest subset size that has it, so
    #   u | row is too small iff u is tight (exactly largest[u] columns)
    #   and contains the row;
    # * matching: the maximum matching grows iff an augmenting path starts
    #   at the new row, i.e. iff the row meets `reach`.
    k = len(rows)
    common = full
    for mono in terms:
        common &= mono
    largest = {}
    for sub, u in enumerate(unions):
        size = sub.bit_count()
        if largest.get(u, -1) < size:
            largest[u] = size
    tight = [u for u, size in largest.items() if u.bit_count() == size]
    reach = _alternating_reach(rows, row_of)
    # every child has this weight, except one repeating the last mask
    fresh = weight * (k + 1)
    repeat = fresh // (run + 1)
    checked = fresh * len(masks)
    if last in masks:
        checked += repeat - fresh
    mismatches = 0
    for mask in masks:
        nonzero = bool(terms) and mask & ~common != 0
        hall = not violated
        if hall:
            for u in tight:
                if mask & ~u == 0:
                    hall = False
                    break
        saturated = matched == k and mask & reach != 0
        if not (nonzero == hall == saturated):
            mismatches += repeat if mask == last else fresh
    return checked, mismatches


def _alternating_reach(rows, row_of):
    # Bitmask of the columns from which an alternating path ends at a free
    # column: the free columns, then every matched column whose row meets
    # a column already reached.
    row_masks = [sum(1 << c for c in cols) for cols in rows]
    reach = 0
    for c, r in enumerate(row_of):
        if r < 0:
            reach |= 1 << c
    grew = True
    while grew:
        grew = False
        for c, r in enumerate(row_of):
            if r >= 0 and not reach >> c & 1 and row_masks[r] & reach:
                reach |= 1 << c
                grew = True
    return reach
