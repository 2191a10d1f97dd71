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
padded with the row count.  Refinement keys a row by the cells of its
columns, sorted, padded with the number of cells and negated.  That key
sorts rows exactly as their per-cell 1-counts would: where two sorted
lists first differ, earlier cells have equal counts and the list with
the smaller cell has more ones in it, and the padding, the largest value,
ranks a shorter list below a longer one.  Columns are keyed the same way
by the row groups of their rows.  So the cells and their order are those
of a refinement on dense count matrices, with keys only as wide as the
largest row or column weight.

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


def unique_rows(a, **kwargs):
    """np.unique(a, axis=0, **kwargs) for an int64 matrix, one packed key per row.

    With the sign bit flipped and stored big-endian, a row's bytes compare
    like its signed entries, so keys, inverse and counts come out in the
    same order as with axis=0, at a fraction of the cost.
    """
    a = np.asarray(a, dtype=np.int64)
    packed = (a.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8", order="C")
    keys = packed.view(np.dtype((np.void, 8 * a.shape[1]))).ravel()
    _, first, *rest = np.unique(keys, return_index=True, **kwargs)
    return (a[first], *rest)


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

        # rows and columns as padded adjacency lists, each (color, row) once
        r, c = np.nonzero(matrix)
        radj = _padded_lists(r, c, matrix.shape[0], self.n_cols)
        uniq = unique_rows(np.column_stack([row_colors, radj]))[0]
        self.colors = uniq[:, 0]
        self.radj = uniq[:, 1:]
        r, k = np.nonzero(self.radj < self.n_cols)
        c = self.radj[r, k]
        order = np.argsort(c, kind="stable")
        self.cadj = _padded_lists(c[order], r[order], self.n_cols, len(self.radj))
        self.row_set = self._row_keys(self.radj)

        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        self.leaves = 0

        # base path data, filled during the first descent
        self.base_traces = []  # refinement trace per depth
        self.base_cols = []  # individualized column per depth
        self.base_leaf = None  # column order of the first leaf
        self.found = []  # automorphisms, a strong generating set on base_cols
        self._jump = None

    def _row_keys(self, lists):
        """Sorted (color, list) keys of the rows, lists[t] standing for row t."""
        return unique_rows(np.column_stack([self.colors, lists]))[0]

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

        The trace holds one hash() per step of its row and column keys,
        which would be megabytes per base-path depth on large codes.  It is
        compared only within one run: unequal hashes mean unequal keys, so
        pruning stays sound, and a collision only keeps a node whose
        leaves are still checked.
        """
        n = self.n_cols
        trace = []
        num_cells = int(cell_id.max()) + 1 if n else 0
        while True:
            # group rows by color and sorted cells of their columns
            cells = np.sort(np.append(cell_id, num_cells)[self.radj], axis=1)
            row_meta = np.column_stack([self.colors, -cells])
            row_keys, row_group = unique_rows(row_meta, return_inverse=True)
            # column signatures: sorted row groups of their rows, within each cell
            groups = np.sort(np.append(row_group, row_keys.shape[0])[self.cadj], axis=1)
            col_meta = np.column_stack([cell_id, -groups])
            col_keys, new_cell_id = unique_rows(col_meta, return_inverse=True)
            trace.append(hash((row_keys.shape, row_keys.tobytes(), col_keys.tobytes())))
            new_num = col_keys.shape[0]
            if new_num == num_cells:
                break
            cell_id = new_cell_id.astype(np.int64)
            num_cells = new_num
            if num_cells == n:
                break
        return cell_id, num_cells, tuple(trace)

    def _individualize(self, cell_id, column):
        """Split the column off as a new cell, first within its old cell."""
        key = 2 * cell_id + 1
        key[column] -= 1
        _, new_id = np.unique(key, return_inverse=True)
        return new_id.astype(np.int64)

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
        return np.array_equal(self._row_keys(mapped), self.row_set)

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
            cols = np.argsort(cell_id, kind="stable").tolist()
            if self.base_leaf is None:
                self.base_leaf = cols
                return
            images = [0] * self.n_cols
            for src, dst in zip(self.base_leaf, cols):
                images[src] = dst
            images = tuple(images)
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
            self._explore(
                self._individualize(cell_id, v), depth + 1, child_on_base, child_div
            )
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
