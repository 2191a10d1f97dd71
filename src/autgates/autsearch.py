"""Column automorphisms of binary matrices with colored rows.

Finds the group of column permutations that map the row multiset of a
binary matrix onto itself, where rows may only be matched to rows of the
same color.  Uses individualization-refinement backtracking: columns are
partitioned by an equitable refinement driven by row/column incidence
counts, the first depth-first descent fixes a base path, and later
branches are pruned by refinement traces, discovered-automorphism orbits
and backjumps.

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

from .gf2 import asbits, int_product
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

        # dedupe rows, keeping color and multiplicity; float32 feeds _refine
        uniq, counts = unique_rows(np.column_stack([row_colors, matrix]), return_counts=True)
        self.colors = uniq[:, 0]
        self.rows = uniq[:, 1:].astype(np.float32)
        self.mult = counts.astype(np.int64)
        self.row_lookup = {
            (int(c), r.tobytes()): t
            for t, (c, r) in enumerate(zip(self.colors, self.rows))
        }

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

    def _tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded

    def _refine(self, cell_id):
        """Refine a column partition to equitability.

        cell_id assigns each column the index of its cell; cell indices
        are contiguous and ordered.  Splitting keys are incidence counts,
        so the refinement commutes with any automorphism and the returned
        trace is a node invariant safe for pruning.

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
            # group rows by color, multiplicity and per-cell 1-counts
            cnt = int_product(self.rows, np.eye(num_cells, dtype=np.float32)[cell_id])
            row_meta = np.column_stack([self.colors, self.mult, cnt])
            row_keys, row_group = unique_rows(row_meta, return_inverse=True)
            # column signatures: per row-group 1-counts, within each cell
            gind = np.eye(row_keys.shape[0], dtype=np.float32)[row_group].T
            col_meta = np.column_stack([cell_id, int_product(gind, self.rows).T])
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
        """Row multiset must be preserved color-by-color."""
        inv = np.empty(self.n_cols, dtype=np.int64)
        inv[np.asarray(images)] = np.arange(self.n_cols)
        permuted = self.rows[:, inv]
        for t in range(self.rows.shape[0]):
            s = self.row_lookup.get((int(self.colors[t]), permuted[t].tobytes()))
            if s is None or self.mult[s] != self.mult[t]:
                return False
        return True

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
    by g}  as multisets within each row color class.  max_nodes bounds
    the number of search tree nodes and deadline is a time.monotonic()
    cutoff; exceeding either yields the subgroup found so far with
    complete=False.
    """
    return _Search(matrix, row_colors, max_nodes, deadline).run()
