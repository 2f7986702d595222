"""The hot inner loops, over bitmasks and in plain Python: Euler-product
expansion, Hall subset scans, augmenting-path matching, Ryser permanents
and the exhaustive family sweep.

Each kernel is a function defined here, so that callers can count and
time calls into ``eulerhall._kernels`` by wrapping its own functions.

The sweep is one recursive walk with two rules for a node's children.
Over the full range it starts up to atom relabeling: the row prefixes
whose popcounts never decrease, one per orbit under the permutations of
the atoms that fix the rows chosen so far, weighted by the orbit's size
times the orderings of rows it stands for.  Once those permutations are
only the identity, the children are the non-decreasing sequences of
subset bitmasks, each weighted by its number of orderings; a proper
sub-range is not closed under relabeling and takes this multiset rule
from the root.  The rules differ only in each child's weight and
position; every node extends each route's state by one row the same
way, and stops extending a route once that route's answer is no for
every descendant.  A family one row short of the last keeps only one
summary per route, derived from its parent's state, and its last row is
decided for every mask at once: each route turns its summary into a
bitset over the masks on which it answers yes.  The contract is the same
(checked, mismatches) as a per-family check over every ordered family
whose smallest subset lies in a given range.  Integers are Python ints
throughout, so there are no width limits.

Conventions:

* ``rows`` is a sequence of tuples of distinct column indices, in any
  order, columns numbered ``0 .. ncols-1``.  Row ``j`` lists the columns
  incident to set ``j``.  Only ``max_matching`` reads the order: it
  decides which maximum matching it returns, not its size.
  ``max_matching`` alone takes more: its columns may be any hashable
  keys but -1, and a row any iterable of distinct columns, scanned in
  iteration order; it does not read ``ncols``.
* Matchings are reported as ``col_of``: for each row the matched column,
  or -1 when the row is unmatched.
"""

import functools
import sys
from itertools import product
from math import comb


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
    # Yield the rows in the order euler_terms multiplies them: each pick is
    # a row with the fewest columns no row before it touched.  The counts
    # of the rows left are one list pass, and index takes the first of the
    # smallest, the lowest row index among ties.
    rows = list(rows)
    masks = [sum(map((1).__lshift__, cols)) for cols in rows]
    untouched = -1
    while rows:
        counts = [(mask & untouched).bit_count() for mask in masks]
        k = counts.index(min(counts))
        untouched &= ~masks.pop(k)
        yield rows.pop(k)


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
    each unmatched row; adjacency is always scanned in iteration order,
    so the result depends only on the input.  Each search keeps the set
    of columns it has visited, so it costs what it visits, not the number
    of columns; ``ncols`` is not read.
    """
    row_of = _RowOf()
    col_of = [-1] * len(rows)
    for j, cols in enumerate(rows):
        for c in cols:
            if c not in row_of:
                row_of[c] = j
                col_of[j] = c
                break
    for j, c in enumerate(col_of):
        if c == -1:
            _augment(j, rows, row_of, col_of)
    return col_of


class _RowOf(dict):
    # column -> matched row; a column not yet matched reads -1
    def __missing__(self, c):
        return -1


def _augment(start, rows, row_of, col_of):
    # Iterative alternating DFS, so long paths hit no recursion limit.
    # frames[i] = (row, iterator over its remaining columns); path_cols[i]
    # = column taken out of frames[i] towards frames[i+1]; `seen` holds
    # the columns this search has visited.  row_of maps a column to its
    # row, -1 when unmatched: a list over 0..ncols-1 or a _RowOf.
    seen = set()
    frames = [(start, iter(rows[start]))]
    path_cols = []
    while frames:
        for c in frames[-1][1]:
            if c in seen:
                continue
            seen.add(c)
            r = row_of[c]
            path_cols.append(c)
            if r < 0:
                for (row, _), col in zip(frames, path_cols):
                    row_of[col] = row
                    col_of[row] = col
                return True
            frames.append((r, iter(rows[r])))
            break
        else:
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
    and a maximum matching matches every set, all three or none.  Returns
    (families checked, disagreements), both counted over ordered
    families; the sums over any partition of [1, 2**max_atom) equal the
    full range's.  A bound outside 1 <= lo, hi <= 2**max_atom raises
    ValueError (mask 0 is the empty set, no subset); an empty range or
    max_m < 1 checks nothing.

    All three routes are invariant under permuting rows and atoms, and
    one walk (``_walk``) visits the families with two rules for a node's
    children.  The full range is walked over the row sequences whose
    popcounts (columns per row) never decrease: a sequence of L rows, n_q
    of them with q columns, stands for the L!/prod(n_q!) ordered families
    that interleave its popcount classes, each class's rows in their order.
    Relabeling keeps each row's popcount, so the walk starts up to
    relabeling: a node is such a prefix standing for its orbit under the
    permutations of the atoms, weighted by the orbit's size times its
    orderings.  The atoms that no row chosen so far tells apart form the
    cells of the prefix's stabilizer; the masks taking t atoms from a cell
    of c atoms, for every cell, form one orbit of C(c, t) choices per
    cell, represented by the first t atoms of each cell.  Under this orbit
    rule a child takes only the orbits with at least as many columns as
    the last row, and has its parent's weight times the orbit's size times
    (L+1)/n_q, n_q now counting the child's rows with the child's
    popcount.  Every ordered family is thus counted exactly once, with no
    canonical-form test.  A node whose cells are all single columns has no
    relabeling left, and its descendants take the multiset rule.

    Under the multiset rule, the rows after the prefix walked up to
    relabeling are the non-decreasing masks with at least p columns, p the
    popcount of the prefix's last row: the children of a node whose last
    mask is s run over s..2**max_atom - 1.  A family of L rows whose prefix
    of L0 rows has weight w stands for w * L!/L0! * n! j!/(n+j)! /
    prod(mult!) ordered families, where n and j count the rows with p
    columns in the prefix and after it, and mult are the mask
    multiplicities after it; it adds that to both counts.  The weight is
    kept along the walk: a child of a family of L rows has its parent's
    weight times (L+1)/r if it has more than p columns, and times
    (L+1)(j+1)/((n+j+1) r) if it has exactly p, where r is the
    multiplicity of its last mask after the prefix (the length of the run
    of equal masks at its end) and j counts the parent's.  With j = 0 and
    r = 1 these are the orbit rule's factors without the orbit's size, so
    the walk computes both weights the same way.  A proper sub-range takes
    the multiset rule from the root, where p = 0: every child takes the
    first factor, and a family with mask multiplicities mult stands for
    its L!/prod(mult!) orderings.

    Each visited family extends its parent's state, one independent
    piece per route, by its last row:

    * Euler: the {mask: coeff} expansion, times one more row;
    * Hall: {column union: most rows with that union} over the subsets of
      rows, the empty subset included, or None once some subset has fewer
      columns than rows;
    * matching: a maximum matching, grown by one augmenting-path search
      from the new row (by Berge's lemma it stays maximum) while it
      matches every row.

    A route whose answer is no stays no for every descendant (an empty
    product times a row is empty, a violating subset stays in the family,
    and a row raises the maximum matching by at most one), so its state
    stops changing there.  Families one row short of max_m keep only a
    summary per route, read off their parent's state under either rule
    (``_child_summaries``), all None below a parent on which every route
    answers no, and the families of length max_m are decided
    from it, every mask at once, as bitsets over the masks
    (``_last_row_routes``).  With max_m = 1 that family is the empty one,
    whose summaries are fixed.  Each summary is invariant under row order,
    the reach too: it is the set of columns that some maximum matching
    leaves free, whichever matching was found.  So one summary serves every
    ordering a node stands for.
    """
    end = 1 << max_atom
    if lo < 1 or hi > end:
        raise ValueError(f"sweep range [{lo}, {hi}) is not within [1, {end})")
    if max_m < 1 or lo >= hi:
        return 0, 0
    if max_m == 1:
        # the one row extends the empty family, whose summaries are fixed:
        # its one monomial is 1 (common = 0), its one union is the empty one
        # of no rows (tight), and no column is matched (all reached); no row
        # comes before it, so there is no floor
        return _last_rows(0, 1, 0, 0, 0, 0, 0, 0, [0], end - 1, end - 1, lo, hi)
    cols_of = column_table(max_atom)
    # the root is the empty family: product 1, only the empty subset (no
    # rows, no columns), empty matching, weight 1, no last mask (0 is no
    # subset's mask) and no floor (every mask has more than 0 columns).  No
    # row tells two atoms apart, so over the full range its stabilizer has
    # one cell; a proper sub-range is not closed under relabeling and
    # starts with no cells
    terms, hall, match = {0: 1}, {0: 0}, ([-1] * max_atom, [], 0)
    cells = (tuple(range(max_atom)),) if lo == 1 and hi == end else None
    return _walk(max_m, cols_of, [], [], terms, hall, match, 1, cells, 0, 0, 0, 0, 0, lo, hi)


def _walk(max_m, cols_of, rows, masks, terms, hall, match, weight, cells, last, run, floor,
          n_floor, n_tail, lo, hi):
    # Weighted (checked, mismatches) over the families that extend rows by
    # 1..max_m - len(rows) rows, for all `weight` ordered families that
    # rows stands for; rows is at least two rows short of max_m.  The
    # other arguments are the state of rows: their masks, each route's
    # state (an empty product, None for Hall or None for the matching once
    # that route answers no), the cells of the stabilizer of rows as
    # tuples of columns, the last mask and the length `run` of the run of
    # equal masks at the end of the rows walked as multisets, `floor`, the
    # popcount of the last row walked up to relabeling (0 at the root),
    # and the rows with exactly `floor` columns, n_floor of them walked up
    # to relabeling and n_tail as multisets.
    #
    # Up to relabeling, the children are the orbits of _orbits(cells) with
    # at least `floor` columns.  Once every cell is a single column no
    # relabeling is left, and `cells` is None from there on, as it is from
    # the root of a proper sub-range: the children are the masks in
    # [lo, hi) with at least `floor` columns, and the rows they add are
    # non-decreasing masks.  A child with more than
    # `floor` columns has weight `fresh`, one with exactly `floor` weight
    # `fresh_at`; an orbit's weight is that times the orbit's size, and a
    # multiset's is divided by the length of its run.  Every weight counts
    # ordered families, so each division is exact.  A child one row short
    # of max_m keeps only its summaries, all None below a parent on which
    # every route answers no, and takes every last row at once.
    end = len(cols_of)
    if cells is not None and len(cells) == end.bit_length() - 1:
        cells = None
    fresh = weight * (len(rows) + 1)
    fresh_at = fresh * (n_tail + 1) // (n_floor + n_tail + 1)
    short = len(rows) == max_m - 2
    if short:
        common = child_tight = child_reach = None
        live = terms or hall is not None or match is not None
        if live:
            tight, near, reach = _parent_summaries(masks, hall, match, end - 1)
    checked = mismatches = 0
    for child in range(lo, hi) if cells is None else _orbits(cells):
        if cells is None:
            mask = child
            count = mask.bit_count()
            if count < floor:
                continue
            if count == floor:
                child_weight, child_tail = fresh_at, n_tail + 1
            else:
                child_weight, child_tail = fresh, n_tail
            if mask == last:
                child_run = run + 1
                child_weight //= child_run
            else:
                child_run = 1
            child_cells = None
            child_last = child_lo = mask
            child_floor, child_n_floor = floor, n_floor
        else:
            mask, size, child_cells = child
            count = mask.bit_count()
            if count < floor:
                continue
            # n_tail is 0 here, so fresh_at divides by the child's rows with
            # `count` columns when that is the parent's floor
            if count == floor:
                child_weight, child_n_floor = fresh_at * size, n_floor + 1
            else:
                child_weight, child_n_floor = fresh * size, 1
            child_last = child_run = child_tail = 0
            child_floor, child_lo = count, 1
        if short:
            if live:
                common, child_tight, child_reach = _child_summaries(
                    cols_of, rows, masks, terms, tight, near, match, reach, mask)
            agree = (common is None) == (child_tight is None) == (child_reach is None)
            below = _last_rows(len(rows) + 1, child_weight, child_last, child_run, child_floor,
                               child_n_floor, child_tail, common, child_tight, child_reach,
                               end - 1, child_lo, end)
        else:
            cols = cols_of[mask]
            rows.append(cols)
            masks.append(mask)
            child_terms = _euler_step(terms, cols) if terms else terms
            child_hall = None if hall is None else _hall_row(hall, mask)
            child_match = None if match is None else _match_row(rows, mask, *match)
            agree = bool(child_terms) == (child_hall is not None) == (child_match is not None)
            below = _walk(max_m, cols_of, rows, masks, child_terms, child_hall, child_match,
                          child_weight, child_cells, child_last, child_run, child_floor,
                          child_n_floor, child_tail, child_lo, end)
            rows.pop()
            masks.pop()
        checked += child_weight + below[0]
        mismatches += below[1] if agree else child_weight + below[1]
    return checked, mismatches


@functools.lru_cache(maxsize=1 << 10)
def _orbits(cells):
    # The orbits of the nonempty masks under the permutations of columns
    # within each cell, as (representative, orbit size, cells of the
    # representative's stabilizer): one orbit per choice of a count t of
    # each cell's columns, represented by the first t columns of each cell,
    # of size the product of C(len(cell), t), and splitting each cell into
    # its first t columns and the rest.
    choices = []
    for cell in cells:
        prefix = 0
        options = []
        for t in range(len(cell) + 1):
            parts = [part for part in (cell[:t], cell[t:]) if part]
            options.append((prefix, comb(len(cell), t), parts))
            if t < len(cell):
                prefix |= 1 << cell[t]
        choices.append(options)
    orbits = []
    for pick in product(*choices):
        mask = 0
        size = 1
        split = []
        for prefix, count, parts in pick:
            mask |= prefix
            size *= count
            split += parts
        if mask:
            orbits.append((mask, size, tuple(split)))
    return tuple(orbits)


@functools.lru_cache(maxsize=1)
def column_table(ncols):
    """The ascending column tuple of every bitmask below 2**ncols, by mask.

    Shared by the sweeps and cached, so a process that runs several
    sweeps of one width builds it once; only the latest width is kept.
    """
    table = [()]
    for c in range(ncols):
        table += [cols + (c,) for cols in table]
    return tuple(table)


@functools.lru_cache(maxsize=1)
def _popcount_classes(ncols):
    # For each popcount p in 0..ncols, two bitsets over the masks below
    # 2**ncols, the masks with exactly p columns and those with more, and
    # how many nonzero masks each holds.  Cached like column_table: only
    # the latest width is kept.  Built one column at a time: the masks
    # with column c are those below 2**c plus 2**c, so their bits lie 2**c
    # places higher, one popcount up.
    exact = [1]
    for c in range(ncols):
        shifted = [0] + [bits << (1 << c) for bits in exact]
        exact = [low | high for low, high in zip(exact + [0], shifted)]
    above = [0] * (ncols + 1)
    for p in range(ncols - 1, -1, -1):
        above[p] = above[p + 1] | exact[p + 1]
    return tuple((at, over, (at >> 1).bit_count(), (over >> 1).bit_count())
                 for at, over in zip(exact, above))


def _hall_row(hall, mask):
    # Hall's state of rows + [mask] from the state `hall` of rows: the
    # new subsets are the old ones plus the new row.  None if one of them
    # has fewer columns than rows.
    child = hall.copy()
    for u, size in hall.items():
        grown = u | mask
        if grown.bit_count() <= size:
            return None
        if child.get(grown, -1) <= size:
            child[grown] = size + 1
    return child


def _parent_summaries(masks, hall, match, full):
    # (tight, near, reach) of a family, what _child_summaries reads of it
    # besides its states, each None where its route answers no: its tight
    # unions, with exactly as many columns as the most rows that have
    # them; the unions with at most one spare column, the only ones that
    # can fail or become tight with one more row; and the alternating
    # reach of its maximum matching.
    tight = near = reach = None
    if hall is not None:
        near = [(u, size) for u, size in hall.items() if u.bit_count() <= size + 1]
        tight = [u for u, size in near if u.bit_count() == size]
    if match is not None:
        reach = _alternating_reach(masks, match[1], full & ~match[2])
    return tight, near, reach


def _child_summaries(cols_of, rows, masks, terms, tight, near, match, reach, mask):
    # (common, tight, reach) of the family rows + [mask], one row short of
    # max_m, what _last_row_routes reads of it, from the states of rows
    # and their _parent_summaries; each None where its route answers no:
    # * Euler: the intersection of the child's monomials.  Those of a
    #   parent monomial are it plus one column of the new row that it
    #   misses, so their intersection is the monomial itself, or plus that
    #   column if it misses only one;
    # * Hall: the tight unions.  A child that holds keeps the parent's and
    #   adds each near union plus the new row that becomes tight;
    # * matching: the alternating reach of the child's maximum matching.
    #   The parent's grows by the new row iff the row meets its reach, and
    #   only then is the child's matching built.
    full = len(cols_of) - 1
    common = None
    if terms:
        acc = full
        for mono in terms:
            miss = mask & ~mono
            if miss:
                acc &= mono if miss & (miss - 1) else mono | miss
                common = acc
    child_tight = None
    if near is not None:
        child_tight = tight[:]
        for u, size in near:
            spare = (u | mask).bit_count() - size - 1
            if spare < 0:
                child_tight = None
                break
            if not spare:
                child_tight.append(u | mask)
    child_reach = None
    if match is not None and mask & reach:
        rows.append(cols_of[mask])
        masks.append(mask)
        _, col_of, used = _match_row(rows, mask, *match)
        child_reach = _alternating_reach(masks, col_of, full & ~used)
        rows.pop()
        masks.pop()
    return common, child_tight, child_reach


def _match_row(rows, mask, row_of, col_of, used):
    # The matching state (row_of, col_of, used columns) of rows, whose last
    # row has mask `mask`, grown from the maximum matching of the rows
    # before it, which matches each of them; None if no matching matches
    # every row.
    # A free column of the new row is taken directly, the lowest one;
    # otherwise an augmenting path is searched from the new row.
    k = len(rows) - 1
    row_of = row_of[:]
    free = mask & ~used
    if free:
        low = free & -free
        c = low.bit_length() - 1
        row_of[c] = k
        return row_of, col_of + [c], used | low
    col_of = col_of + [-1]
    if not _augment(k, rows, row_of, col_of):
        return None
    # the path ends at the one column that was free before
    for c in col_of:
        if not used >> c & 1:
            return row_of, col_of, used | 1 << c


def _last_rows(k, weight, last, run, floor, n_floor, n_tail, common, tight, reach, full, lo, hi):
    # Weighted (checked, mismatches) over the families rows + [mask], mask
    # in [lo, hi) with at least `floor` columns, where rows has k rows and
    # is described by weight, last, run, floor, n_floor and n_tail as in
    # _walk and by its summaries as in _child_summaries.  Every child
    # with more than `floor` columns has weight `fresh`, every one with
    # exactly `floor` weight `fresh_at`, except one repeating the last mask.
    euler, hall_ok, saturated = _last_row_routes(common, tight, reach, full, lo, hi)
    wrong = (euler ^ hall_ok) | (hall_ok ^ saturated)
    at, above, n_at, n_above = _popcount_classes(full.bit_length())[floor]
    fresh = weight * (k + 1)
    fresh_at = fresh * (n_tail + 1) // (n_floor + n_tail + 1)
    if lo > 1 or hi <= full:
        # a proper part of the nonzero masks: count the children in it;
        # over all of them, the classes' own counts are the children's
        span = (1 << hi) - (1 << lo)
        n_above, n_at = (above & span).bit_count(), (at & span).bit_count()
    checked = fresh * n_above + fresh_at * n_at
    mismatches = fresh * (above & wrong).bit_count() + fresh_at * (at & wrong).bit_count()
    if lo <= last < hi:
        own = fresh_at if at >> last & 1 else fresh
        repeat = own // (run + 1)
        checked += repeat - own
        mismatches += (repeat - own) * (wrong >> last & 1)
    return checked, mismatches


def _last_row_routes(common, tight, reach, full, lo, hi):
    # The children rows + [mask], mask in [lo, hi), as three bitsets over
    # the child masks (bit `mask` set where the route answers yes), each
    # read off one summary of the parent rows, or empty where the parent's
    # summary is None:
    # * Euler: the product stays nonzero iff the new row is not inside the
    #   intersection `common` of the parent's monomials;
    # * Hall: a parent that holds gives each union at least as many columns
    #   as the most rows that have it, so the child fails iff the new row
    #   lies inside a tight union;
    # * matching: the maximum matching grows iff an augmenting path starts
    #   at the new row, i.e. iff the row meets the alternating reach.
    span = (1 << hi) - (1 << lo)
    euler = hall_ok = saturated = 0
    if common is not None:
        euler = span & ~_submasks(common)
    if tight is not None:
        blocked = 0
        for u in tight:
            blocked |= _submasks(u)
        hall_ok = span & ~blocked
    if reach is not None:
        saturated = span & ~_submasks(full & ~reach)
    return euler, hall_ok, saturated


@functools.lru_cache(maxsize=1 << 12)
def _submasks(u):
    # Bitset of the sub-masks of u, the empty mask included: bit s is set
    # iff s & ~u == 0.  Each is built from the one without u's lowest bit.
    if not u:
        return 1
    low = u & -u
    rest = _submasks(u ^ low)
    return rest | rest << low


def _alternating_reach(masks, col_of, free):
    # Bitmask of the columns from which an alternating path ends at a free
    # column, for a matching col_of that matches each row, the rows having
    # the given masks: the free columns, then every matched column whose
    # row meets a column already reached.
    reach = free
    pending = list(zip(col_of, masks))
    grew = True
    while grew:
        grew = False
        rest = []
        for c, mask in pending:
            if mask & reach:
                reach |= 1 << c
                grew = True
            else:
                rest.append((c, mask))
        pending = rest
    return reach


# Read only by the benchmark harness: perfbench/run.py records
# backend_name() and HAVE_COMPILED, and perfbench/kernel_table.py times the
# kernels of _pyref, this module, and of _fast when it is set.  The harness
# change that drops these reads (ROADMAP item 1 step 2) deletes them.
HAVE_COMPILED = False
_fast = None
_pyref = sys.modules[__name__]


def backend_name() -> str:
    """Name of the kernel backend: always 'python'."""
    return "python"
