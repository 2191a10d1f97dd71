"""Column automorphisms of binary matrices with colored rows.

Finds the group of column permutations that map the row set of a
binary matrix onto itself, where rows may only be matched to rows of the
same color; a repeated row counts once, so the search drops it on entry.
Uses individualization-refinement backtracking: columns are
partitioned by an equitable refinement driven by row/column incidence
counts, the first depth-first descent fixes a base path, and later
branches are pruned by refinement traces, discovered-automorphism orbits
and backjumps.

The incidence is kept as padded adjacency lists, as nauty/Traces and
saucy (Darga et al., DAC 2008) keep sparse graphs: each row lists its
columns in ascending order, padded with n_cols, and each column its rows,
padded with the row count.  Row colors are ranked on entry.  Refinement
keys a row by (color, num_cells - cell, ...) over the sorted cells of its
columns, padding counted as cell num_cells.  That key sorts rows exactly
as their per-cell 1-counts would: where two sorted lists first differ,
earlier cells have equal counts and the list with the smaller cell has
more ones in it, and the padding, field 0, ranks a shorter list below a
longer one.  Columns are keyed the same way, by (cell, groups - group,
...) over the row groups of their rows, so the cells and their order are
those of a refinement on dense count matrices.  Each field lies in
[0, bound], bound num_cells or groups (or the top color or cell), so
group_rows packs it in b = bound.bit_length() bits, most significant
first, at most 63 // b fields per int64 word.  The fields are disjoint
and the words nonnegative, so integer order is key order: one stable
argsort groups one-word keys, a lexsort longer ones.

The automorphisms found are a base and strong generating set, as in
nauty/Traces (McKay & Piperno, J. Symb. Comput. 60, 2014), and build a
PermGroup once, without Schreier-Sims.  Let b_0..b_{L-1} be the base
columns and v a candidate tried at base level d.  An automorphism found
below v fixes b_0..b_{d-1} and maps b_d to v.  Level d is tried only
after every deeper level is finished, so then every generator found
fixes b_0..b_{d-1}, and a candidate is skipped only when it lies in the
orbit of one already explored.  So the generators fixing b_0..b_{d-1}
generate that prefix's pointwise stabilizer in the group found, even
when a node budget stops the search; it is then flagged incomplete.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from .gf2 import asbits
from .permgroup import PermGroup


@dataclass
class AutSearchResult:
    group: PermGroup
    complete: bool
    nodes: int
    leaves: int
    generators: list  # automorphisms found, in order: group's strong generators


class _BudgetExceeded(Exception):
    pass


def group_rows(fields, bound):
    """(words, first, inverse) as np.unique(fields, axis=0, return_index=True,
    return_inverse=True) gives (keys, first, inverse), for entries in [0, bound]
    and each key packed into words (module docstring)."""
    rows, width = fields.shape
    bits = max(int(bound).bit_length(), 1)
    k = max(-(-width // (63 // bits)), 1)  # words per key
    per = -(-width // k)  # fields per word, the last word zero-padded
    if k * per > width:
        fields = np.hstack([fields, np.zeros((rows, k * per - width), np.int64)])
    words = fields.reshape(rows, k, per) @ _place_values(bits, per)
    words = words[:, 0] if k == 1 else words
    order = np.argsort(words, kind="stable") if k == 1 else np.lexsort(words.T[::-1])
    words = words[order]
    new = np.ones(rows, dtype=bool)  # the first of each run of equal keys
    new[1:] = (words[1:] != words[:-1]) if k == 1 else (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = new.cumsum() - 1
    return words[new], order[new], inverse


@functools.cache
def _place_values(bits, per):
    return 1 << bits * np.arange(per - 1, -1, -1, dtype=np.int64)


def _padded_lists(major, minor, size, pad):
    """Row i holds the minor entries of the pairs with major index i, padded with pad.

    Pairs must come sorted by major index; each row keeps their order.
    """
    counts = np.bincount(major, minlength=size)
    lists = np.full((size, counts.max(initial=0)), pad, dtype=np.int64)
    lists[major, np.arange(major.size) - np.repeat(np.cumsum(counts) - counts, counts)] = minor
    return lists


class _Search:
    def __init__(self, matrix, row_colors, max_nodes, deadline):
        matrix = asbits(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        self.n_cols = matrix.shape[1]
        if row_colors is None:
            row_colors = np.zeros(matrix.shape[0], dtype=np.int64)
        row_colors = np.asarray(row_colors, dtype=np.int64)
        if row_colors.shape != (matrix.shape[0],):
            raise ValueError("row_colors must have one entry per row")

        # rows and columns as padded adjacency lists, each (color rank, row) once
        r, c = np.nonzero(matrix)
        radj = _padded_lists(r, c, matrix.shape[0], self.n_cols)
        palette, colors = np.unique(row_colors, return_inverse=True)
        self.palette, self.top_color = palette.tobytes(), len(palette) - 1
        self.row_set, first, _ = self._row_words(colors, radj)
        self.colors, self.radj = colors[first], radj[first]
        r, k = np.nonzero(self.radj < self.n_cols)
        c = self.radj[r, k]
        order = np.argsort(c, kind="stable")
        self.cadj = _padded_lists(c[order], r[order], self.n_cols, len(self.radj))

        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        self.leaves = 0

        # base path data, filled during the first descent
        self.base_traces = []  # refinement trace per depth
        self.base_cols = []  # individualized column per depth
        self.base_leaf = None  # from the first leaf
        self.found = []  # automorphisms, a strong generating set on base_cols
        self._jump = None

    def _row_words(self, colors, lists):  # group_rows of the rows' (color, columns) keys
        return group_rows(np.column_stack([colors, lists]), max(self.top_color, self.n_cols))

    def _tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded

    def _refine(self, cell_id):
        """Refine a column partition to equitability.

        cell_id assigns each column the index of its cell; cell indices
        are contiguous and ordered.  Splitting keys encode incidence counts
        (module docstring), so the refinement commutes with any
        automorphism and the returned trace is a node invariant safe for
        pruning.

        The trace holds the color palette, so that the ranks stand for the
        colors, then per step one hash() of the cell and group counts, which
        fix the packing, and of the packed row and column keys, which would
        be megabytes per base-path depth on large codes.  Unequal hashes mean
        unequal keys, so pruning stays sound, and a collision only keeps a
        node whose leaves are still checked.
        """
        n = self.n_cols
        trace = [self.palette]
        num_cells = int(cell_id.max()) + 1 if n else 0
        while True:
            # group rows by color and sorted cells of their columns
            cells = np.sort(np.append(cell_id, num_cells)[self.radj], axis=1)
            row_key = np.column_stack([self.colors, num_cells - cells])
            row_words, _, row_group = group_rows(row_key, max(self.top_color, num_cells))
            # column signatures: sorted row groups of their rows, within each cell
            groups = len(row_words)
            rgs = np.sort(np.append(row_group, groups)[self.cadj], axis=1)
            col_key = np.column_stack([cell_id, groups - rgs])
            col_words, _, new_cell_id = group_rows(col_key, max(num_cells - 1, groups))
            trace.append(hash((num_cells, groups, row_words.tobytes(), col_words.tobytes())))
            new_num = len(col_words)
            if new_num == num_cells:
                break
            cell_id = new_cell_id
            num_cells = new_num
            if num_cells == n:
                break
        return cell_id, num_cells, tuple(trace)

    def _individualize(self, cell_id, column):
        """Split the column off its cell, which holds others, as the first of the two."""
        c = cell_id[column]
        new_id = cell_id + (cell_id >= c)
        new_id[column] = c
        return new_id

    def _orbit_hits(self, column, explored):
        """Do the automorphisms found move the column into the explored set?"""
        seen = {column}
        queue = [column]
        while queue:
            a = queue.pop()
            for g in self.found:
                b = g[a]
                if b in explored:
                    return True
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return False

    def _target_cell(self, cell_id, num_cells):
        """Columns of the smallest non-singleton cell, earliest on ties."""
        sizes = np.bincount(cell_id, minlength=num_cells)
        open_cells = np.flatnonzero(sizes > 1)
        if not open_cells.size:
            return None
        best = open_cells[np.argmin(sizes[open_cells])]
        return np.flatnonzero(cell_id == best).tolist()

    def _check_automorphism(self, images):
        """Row set must be preserved color-by-color."""
        images = np.append(np.asarray(images, dtype=np.int64), self.n_cols)
        mapped = np.sort(images[self.radj], axis=1)
        return np.array_equal(self._row_words(self.colors, mapped)[0], self.row_set)

    def _explore(self, cell_id, depth, on_base, div_depth):
        self._tick()
        cell_id, num_cells, trace = self._refine(cell_id)

        if on_base and depth == len(self.base_traces):
            self.base_traces.append(trace)
        elif trace != self.base_traces[depth]:
            return

        candidates = self._target_cell(cell_id, num_cells)
        if candidates is None:
            self.leaves += 1
            cols = np.argsort(cell_id, kind="stable")
            if self.base_leaf is None:
                self.base_leaf = np.argsort(cols)  # each column's place in it
                return
            images = tuple(cols[self.base_leaf].tolist())
            if self._check_automorphism(images):
                self.found.append(images)
                self._jump = div_depth
            return

        if on_base and depth == len(self.base_cols):
            self.base_cols.append(candidates[0])

        explored = set()
        for v in candidates:
            child_on_base = on_base and v == self.base_cols[depth]
            # orbit pruning is justified only where the path equals the
            # base prefix, which every automorphism found so far fixes
            if on_base and not child_on_base and self._orbit_hits(v, explored):
                explored.add(v)
                continue
            child_div = depth if on_base and not child_on_base else div_depth
            self._explore(self._individualize(cell_id, v), depth + 1, child_on_base, child_div)
            explored.add(v)
            if self._jump is not None:
                if self._jump == depth and on_base:
                    self._jump = None
                else:
                    return

    def run(self):
        complete = True
        try:
            self._explore(np.zeros(self.n_cols, dtype=np.int64), 0, True, None)
        except _BudgetExceeded:
            complete = False
        return AutSearchResult(
            group=PermGroup(self.n_cols, self.base_cols, self.found),
            complete=complete,
            nodes=self.nodes,
            leaves=self.leaves,
            generators=self.found,
        )


def matrix_automorphisms(matrix, row_colors=None, max_nodes=None, deadline=None):
    """Column automorphism group of a binary matrix with colored rows.

    Returns an AutSearchResult whose group contains exactly the column
    permutations g with  {rows of M} = {rows of M with columns permuted
    by g}  as row sets within each row color class (a repeated row counts
    once).  max_nodes bounds the number of search tree nodes and deadline
    is a time.monotonic() cutoff; exceeding either yields the subgroup
    found so far with complete=False.
    """
    return _Search(matrix, row_colors, max_nodes, deadline).run()
