"""Packed ensemble inference kernel (the Section 8 "denser data structure").

:class:`CompiledTree` already flattens *one* tree for fast scalar
prediction, but batch prediction still walks ``T`` compiled trees in a
Python loop, re-partitioning the row set slot by slot. This module goes one
step further and packs the **whole ensemble** into contiguous numpy
structure-of-arrays:

* ``feature[slot]`` -- feature id tested at the slot, or :data:`LEAF_MARKER`.
* ``payload[slot]`` -- for internal slots the slot's *pre-scaled* offset
  into the flat routing table (row index times table width); for leaf slots
  the index into the flat leaf arrays.
* ``right[slot]`` -- absolute slot id of the right child. Children are
  emitted **adjacently** (``left == right - 1``), so advancing a frontier
  is the branch-free ``right[slot] - goes_left`` with no select and no
  second child gather.
* ``route_flat[payload + code]`` -- one precomputed goes-left membership
  row per internal slot, flattened into a single 1-D table. Categorical
  subset bitmasks are expanded exactly once at pack time; numeric
  ``code < cut`` tests are expanded into the same table so the traversal
  kernel is completely branch-free.
* ``leaf_n`` / ``leaf_n_plus`` -- leaf statistics mirrored into flat int64
  arrays.

Batch prediction is then a *level-synchronous vectorised traversal*: one
active-frontier loop advances every ``(row, tree)`` pair simultaneously
with five 1-D gathers per tree level (feature id, code, route bit, child,
leaf check) instead of a Python iteration per node.

Crucially the pack stays valid **under unlearning**:

* leaf decrements write through to the flat leaf arrays in O(1) via
  :meth:`PackedEnsemble.sync_leaf` (the ensemble passes it as the
  ``leaf_sink`` of the unlearning traversal), and
* a maintenance-node variant switch is an **in-place subtree splice**
  (:meth:`PackedEnsemble.splice_subtree`): at pack time every maintenance
  node reserves contiguous slot/route/leaf spans sized to the *largest*
  footprint across its variants, so switching rewrites only that reserved
  region -- no array reallocation, no leaf-index remap outside the span,
  and the pack's geometry stays fixed for the model's lifetime.

Reserved-span layout
--------------------

A maintenance node's root slot is wherever its parent's child pair (or the
tree root) put it -- that slot never moves, so a splice needs no parent
pointer patch. Its *descendants* live in a reserved arena immediately
claimed from the enclosing region at pack time:

* a slot arena of ``max over variants (slots(left) + slots(right))`` slots,
* a route-row arena of ``1 + max over variants (routes(left) + routes(right))``
  rows (the extra row is the node's own split row, which changes with the
  active variant),
* a leaf-row arena of ``max over variants (leaves(left) + leaves(right))``
  rows.

Nested maintenance nodes carve their arenas out of the enclosing one, so a
splice anywhere touches one contiguous region per array (plus the one root
slot). Slots a variant does not use are padded as *safe leaves* (feature
``LEAF_MARKER``, payload a valid in-span leaf row) and unused leaf rows are
zeroed: even a torn concurrent read of a half-spliced span can only land on
in-range indices, which is what keeps the shared-memory fleet's optimistic
reads crash-safe without a generation copy. Child pairs are always
allocated at slots strictly above their parent's, so any mix of old and new
span content still walks strictly forward and terminates.

Because geometry is fixed, ``epoch`` now bumps only on genuinely
geometry-changing events (initial build, unpickle/snapshot restore);
splices instead record dirty slot/route ranges that the shared-memory
writer drains for span-delta publishes.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, TreeNode
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import HedgeCutTree
from repro.dataprep.dataset import Dataset, FeatureSchema

#: Sentinel feature id marking a leaf slot (same convention as CompiledTree).
LEAF_MARKER = -1

#: Row-chunk size of the traversal kernel; bounds the (rows x trees) state
#: to a cache-friendly working set regardless of the batch size.
DEFAULT_CHUNK_ROWS = 4096

#: Process-wide structural-epoch source: every :meth:`PackedEnsemble._build`
#: (construction, unpickle / snapshot restore) draws a fresh value, so two
#: distinct builds never share an epoch -- the shared-memory writer can tell
#: "same fixed geometry, maybe spliced" from "a different build entirely"
#: even when a caller swaps the pack object out from under it.
_EPOCH_COUNTER = itertools.count()


def _route_row(split: NumericSplit | CategoricalSplit, width: int) -> np.ndarray:
    """Goes-left membership row of one split, padded to the table width."""
    row = np.zeros(width, dtype=bool)
    if isinstance(split, NumericSplit):
        row[: split.cut] = True
    else:
        table = split.membership_table()
        row[: table.shape[0]] = table
    return row


class PackedArrays(NamedTuple):
    """The seven flat arrays (plus chunking policy) the traversal reads.

    Decoupling the kernel from :class:`PackedEnsemble` lets any holder of
    the arrays -- the in-process pack, or a reader process attached to the
    shared-memory segments of :mod:`repro.serving.shm` -- run the exact
    same traversal code, which is what makes the multi-process serving
    fleet bit-identical to the in-process path by construction.
    """

    feature: np.ndarray
    payload: np.ndarray
    right: np.ndarray
    route_flat: np.ndarray
    tree_roots: np.ndarray
    leaf_n: np.ndarray
    leaf_n_plus: np.ndarray
    chunk_rows: int


def as_code_matrix(values: np.ndarray) -> np.ndarray:
    """Validate/normalise a request payload to an int64 code matrix."""
    matrix = np.asarray(values)
    if matrix.ndim != 2:
        raise ValueError(
            f"expected a (n_rows, n_features) code matrix, got shape "
            f"{matrix.shape}"
        )
    if matrix.dtype != np.int64:
        matrix = matrix.astype(np.int64)
    return matrix


class TornTraversalError(RuntimeError):
    """A packed traversal exceeded its slot budget or indexed out of range.

    Impossible on a consistent pack (every walk strictly descends and every
    index is in range by construction); it can only fire on a torn
    optimistic read of shared memory mid-splice, where a reader may observe
    a mix of old and new span contents. The shm reader treats it like a
    seqlock conflict and retries.
    """


def walk_one(arrays: PackedArrays, values: Sequence[int], tree: int) -> int:
    """Scalar root-to-leaf walk of one tree; returns the global leaf index.

    The walk is bounded by the slot count: a consistent pack strictly
    descends (children always sit at higher slots), so the bound can only
    trip on a torn shared-memory read, which surfaces as
    :class:`TornTraversalError` for the reader to retry.
    """
    feature, payload, right = arrays.feature, arrays.payload, arrays.right
    route_flat = arrays.route_flat
    slot = int(arrays.tree_roots[tree])
    for _ in range(feature.shape[0] + 1):
        feature_id = feature[slot]
        if feature_id == LEAF_MARKER:
            return int(payload[slot])
        goes_left = route_flat[payload[slot] + values[feature_id]]
        slot = int(right[slot]) - int(goes_left)
    raise TornTraversalError("scalar walk exceeded the slot budget")


def leaf_matrix(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Route every (row, tree) pair to its leaf index.

    Args:
        arrays: the flat ensemble arrays (in-process or shared-memory).
        values: ``(n_rows, n_features)`` integer code matrix.

    Returns:
        ``(n_rows, n_trees)`` matrix of global leaf indices.

    The traversal is level-synchronous: each iteration advances the
    whole still-active frontier one tree level with five 1-D gathers
    (the feature id doubles as next level's leaf check), then compacts
    the frontier as pairs reach their leaves. Rows are processed in
    chunks to bound the state arrays to a cache-friendly working set.
    """
    n_rows, n_features = values.shape
    tree_roots = arrays.tree_roots
    n_trees = tree_roots.shape[0]
    out = np.empty((n_rows, n_trees), dtype=np.intp)
    out_flat = out.reshape(-1)
    feature, payload, right = arrays.feature, arrays.payload, arrays.right
    route_flat = arrays.route_flat
    flat_values = np.ascontiguousarray(values).reshape(-1)
    for start in range(0, n_rows, arrays.chunk_rows):
        stop = min(start + arrays.chunk_rows, n_rows)
        size = stop - start
        cur = np.tile(tree_roots, size)
        rowbase = np.repeat(
            np.arange(start, stop, dtype=np.intp) * n_features, n_trees
        )
        pos = np.arange(
            start * n_trees, stop * n_trees, dtype=np.intp
        )
        fid = feature[cur]
        # A consistent pack strictly descends, so no walk can take more
        # levels than there are slots; the bound only trips on a torn
        # shared-memory read (see TornTraversalError).
        for _level in range(feature.shape[0] + 1):
            at_leaf = fid == LEAF_MARKER
            if at_leaf.any():
                out_flat[pos[at_leaf]] = payload[cur[at_leaf]]
                live = ~at_leaf
                cur = cur[live]
                rowbase = rowbase[live]
                pos = pos[live]
                fid = fid[live]
            if not cur.size:
                break
            codes = flat_values[rowbase + fid]
            goes_left = route_flat[payload[cur] + codes]
            cur = right[cur] - goes_left
            fid = feature[cur]
        else:
            raise TornTraversalError("frontier walk exceeded the slot budget")
    return out


def predict_votes_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Per-row positive hard-vote counts (``int64``) for a code matrix.

    Single-row requests skip the level-synchronous frontier machinery --
    the tile/repeat/compaction setup costs more than the walk itself at
    ``n == 1`` -- and take a plain per-tree scalar walk over the same flat
    arrays instead. Tree-vote comparisons are integer exact, so both paths
    return identical counts.
    """
    matrix = as_code_matrix(values)
    leaf_n, leaf_n_plus = arrays.leaf_n, arrays.leaf_n_plus
    if matrix.shape[0] == 1:
        row = matrix[0]
        votes = 0
        for tree in range(arrays.tree_roots.shape[0]):
            leaf = walk_one(arrays, row, tree)
            if 2 * leaf_n_plus[leaf] > leaf_n[leaf]:
                votes += 1
        return np.asarray([votes], dtype=np.int64)
    leaves = leaf_matrix(arrays, matrix)
    return (2 * leaf_n_plus[leaves] > leaf_n[leaves]).sum(axis=1)


def predict_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Majority-vote labels (``uint8``) for a code matrix."""
    n_trees = arrays.tree_roots.shape[0]
    votes = predict_votes_rows(arrays, values)
    return (2 * votes > n_trees).astype(np.uint8)


def predict_proba_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Soft-vote positive-class probabilities for a code matrix.

    The per-tree probabilities are accumulated in tree order with
    sequential float adds, exactly like the scalar
    ``HedgeCutClassifier.predict_proba`` loop, so the results are
    bit-for-bit identical to the per-record path. The single-row fast
    path performs the same division (``n_plus / n`` as int64 operands)
    and the same ordered float64 adds, so it is bit-identical too.
    """
    matrix = as_code_matrix(values)
    n_trees = arrays.tree_roots.shape[0]
    leaf_n, leaf_n_plus = arrays.leaf_n, arrays.leaf_n_plus
    if matrix.shape[0] == 1:
        row = matrix[0]
        total = np.float64(0.0)
        for tree in range(n_trees):
            leaf = walk_one(arrays, row, tree)
            count = leaf_n[leaf]
            total = total + ((leaf_n_plus[leaf] / count) if count > 0 else 0.5)
        return np.asarray([total / n_trees], dtype=np.float64)
    leaves = leaf_matrix(arrays, matrix)
    counts = leaf_n[leaves]
    positives = leaf_n_plus[leaves]
    probabilities = np.where(
        counts > 0, positives / np.maximum(counts, 1), 0.5
    )
    total = np.zeros(matrix.shape[0], dtype=np.float64)
    for tree in range(n_trees):
        total += probabilities[:, tree]
    return total / n_trees


def _compute_footprints(roots: Sequence[TreeNode]) -> dict[int, tuple[int, int, int]]:
    """``id(node) -> (slots, route_rows, leaf_rows)`` reserved footprints.

    For leaves and plain splits the footprint is the exact emitted size.
    For a maintenance node it is the *reservation*: one root slot plus the
    per-dimension maximum over its variants' children, so that any variant
    (and any future switch) fits inside the same region. The maxima are
    taken independently per dimension -- the variant with the most slots
    need not be the one with the most route rows.

    Iterative post-order (fully grown trees exceed the recursion limit);
    the result is memoised by object identity and stays valid for the
    model's lifetime because the variant graph is static after fit.
    """
    foot: dict[int, tuple[int, int, int]] = {}
    stack: list[TreeNode] = list(roots)
    while stack:
        node = stack[-1]
        node_id = id(node)
        if node_id in foot:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            foot[node_id] = (1, 0, 1)
            stack.pop()
            continue
        if isinstance(node, SplitNode):
            children = (node.left, node.right)
        else:
            children = tuple(
                child
                for variant in node.variants
                for child in (variant.left, variant.right)
            )
        missing = [child for child in children if id(child) not in foot]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if isinstance(node, SplitNode):
            s_l, r_l, l_l = foot[id(node.left)]
            s_r, r_r, l_r = foot[id(node.right)]
            foot[node_id] = (1 + s_l + s_r, 1 + r_l + r_r, l_l + l_r)
        else:
            slots = routes = leaves = 0
            for variant in node.variants:
                s_l, r_l, l_l = foot[id(variant.left)]
                s_r, r_r, l_r = foot[id(variant.right)]
                slots = max(slots, s_l + s_r)
                routes = max(routes, r_l + r_r)
                leaves = max(leaves, l_l + l_r)
            foot[node_id] = (1 + slots, 1 + routes, leaves)
    return foot


class _Arena:
    """Mutable allocation cursors over one reserved region.

    ``*_cur`` advance as slots / route rows / leaf rows are handed out;
    ``*_hi`` are the exclusive reservation bounds. Route cursors count
    *rows* (the flat table index is ``row * width``). ``owner`` is the
    :class:`_SpanInfo` whose reservation this is (``None`` for a tree's
    top-level arena), used to nest child spans for recursive
    unregistration on re-splice.
    """

    __slots__ = (
        "slot_cur", "slot_hi", "route_cur", "route_hi",
        "leaf_cur", "leaf_hi", "owner",
    )

    def __init__(
        self,
        slot_cur: int, slot_hi: int,
        route_cur: int, route_hi: int,
        leaf_cur: int, leaf_hi: int,
        owner: "_SpanInfo | None",
    ) -> None:
        self.slot_cur = slot_cur
        self.slot_hi = slot_hi
        self.route_cur = route_cur
        self.route_hi = route_hi
        self.leaf_cur = leaf_cur
        self.leaf_hi = leaf_hi
        self.owner = owner


class _SpanInfo:
    """One maintenance node's reserved span and what is emitted into it.

    ``root_slot`` is the node's fixed slot (its parent's child pair, or
    the tree base); ``slot_lo:slot_hi`` / ``route_lo:route_hi`` /
    ``leaf_lo:leaf_hi`` bound the reserved descendant arenas.
    ``emitted_index`` is the variant currently written into the span;
    comparing it against the live ``node.active_index`` decides whether a
    splice is needed. ``children`` lists the spans of maintenance nodes
    nested inside the currently emitted variant (they die with the next
    splice).
    """

    __slots__ = (
        "node", "tree", "root_slot", "slot_lo", "slot_hi",
        "route_lo", "route_hi", "leaf_lo", "leaf_hi",
        "emitted_index", "children",
    )

    def __init__(
        self,
        node: MaintenanceNode,
        tree: int,
        root_slot: int,
        slot_lo: int, slot_hi: int,
        route_lo: int, route_hi: int,
        leaf_lo: int, leaf_hi: int,
    ) -> None:
        self.node = node
        self.tree = tree
        self.root_slot = root_slot
        self.slot_lo = slot_lo
        self.slot_hi = slot_hi
        self.route_lo = route_lo
        self.route_hi = route_hi
        self.leaf_lo = leaf_lo
        self.leaf_hi = leaf_hi
        self.emitted_index = node.active_index
        self.children: list[_SpanInfo] = []


#: Dirty-range bookkeeping cap: beyond this many pending ranges the list is
#: merged, and if still larger, collapsed to a single covering range so an
#: unattached long-running writer cannot grow it without bound.
_MAX_DIRTY_RANGES = 64


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce overlapping/adjacent half-open ranges."""
    if len(ranges) <= 1:
        return list(ranges)
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class PackedEnsemble:
    """Contiguous structure-of-arrays form of a whole fitted ensemble.

    Args:
        trees: the fitted trees (active variants are resolved at pack time).
        schema: the model's feature schema; its maximum code cardinality
            fixes the routing-table width.
        chunk_rows: row-chunk size of the traversal kernel.

    The pack holds references to the live :class:`Leaf` objects so that
    :meth:`sync_leaf` can mirror in-place decrements, and rewrites a
    maintenance node's reserved span in place via :meth:`splice_subtree`
    when a variant switch changes routing.
    """

    def __init__(
        self,
        trees: Sequence[HedgeCutTree],
        schema: Sequence[FeatureSchema],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self._roots = [tree.root for tree in trees]
        self._width = max(feature.n_values for feature in schema)
        self._chunk_rows = chunk_rows
        self._unlearn_pack = None
        self._build()

    # ------------------------------------------------------------------ #
    # reserved-span build and in-place maintenance
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        """Allocate the reserved-span arrays and emit every tree.

        Runs once per geometry-changing event (construction, unpickle /
        snapshot restore). Afterwards the arrays never move or change
        size: variant switches rewrite reserved spans in place via
        :meth:`splice_subtree`.
        """
        self._foot = _compute_footprints(self._roots)
        totals = [self._foot[id(root)] for root in self._roots]
        n_slots = sum(t[0] for t in totals)
        n_routes = sum(t[1] for t in totals)
        n_leaves = sum(t[2] for t in totals)
        self.feature = np.full(n_slots, LEAF_MARKER, dtype=np.intp)
        self.payload = np.zeros(n_slots, dtype=np.intp)
        self.right = np.zeros(n_slots, dtype=np.intp)
        self.route_flat = np.zeros(n_routes * self._width, dtype=bool)
        self.leaf_n = np.zeros(n_leaves, dtype=np.int64)
        self.leaf_n_plus = np.zeros(n_leaves, dtype=np.int64)
        self._leaf_objects: list[Leaf | None] = [None] * n_leaves
        self._leaf_index: dict[int, int] = {}
        self._spans: dict[int, _SpanInfo] = {}
        self._dirty_slot_ranges: list[tuple[int, int]] = []
        self._dirty_route_ranges: list[tuple[int, int]] = []

        roots: list[int] = []
        slot_base = route_base = leaf_base = 0
        for tree, (root, (slots, routes, leaves)) in enumerate(
            zip(self._roots, totals)
        ):
            arena = _Arena(
                slot_base + 1, slot_base + slots,
                route_base, route_base + routes,
                leaf_base, leaf_base + leaves,
                owner=None,
            )
            arenas: list[_Arena] = [arena]
            self._emit_into([(root, slot_base, arena)], tree, arenas)
            for sub in arenas:
                self._pad_arena(sub)
            roots.append(slot_base)
            slot_base += slots
            route_base += routes
            leaf_base += leaves
        self.tree_roots = np.asarray(roots, dtype=np.intp)
        # Structural epoch: changes only when geometry actually changes
        # (this method runs). The shared-memory writer compares epochs to
        # decide between a span-delta publish and a full generation copy.
        self.epoch = next(_EPOCH_COUNTER)
        self._dirty_slot_ranges.clear()
        self._dirty_route_ranges.clear()

    def _emit_into(
        self,
        stack: list[tuple[TreeNode, int, _Arena]],
        tree: int,
        arenas_out: list[_Arena],
    ) -> None:
        """Emit subtrees iteratively, carving reserved sub-arenas.

        ``stack`` holds ``(node, slot, arena)`` work items: write ``node``
        at ``slot``, allocating descendants from ``arena``. A maintenance
        node carves its reserved sub-arena from the enclosing one (the
        enclosing cursors jump over the whole reservation), registers its
        span, and continues emission of the *active* variant inside the
        sub-arena. Every arena this creates is appended to ``arenas_out``
        so the caller can pad the unused tails afterwards.
        """
        width = self._width
        feature, payload, right = self.feature, self.payload, self.right
        route_flat = self.route_flat
        leaf_n, leaf_n_plus = self.leaf_n, self.leaf_n_plus
        leaf_objects, leaf_index = self._leaf_objects, self._leaf_index
        while stack:
            node, slot, arena = stack.pop()
            if isinstance(node, Leaf):
                row = arena.leaf_cur
                arena.leaf_cur += 1
                feature[slot] = LEAF_MARKER
                payload[slot] = row
                # Self-pointing right keeps the array deterministic (a
                # spliced span equals a fresh build byte-for-byte); the
                # kernel never reads it at a leaf.
                right[slot] = slot
                leaf_n[row] = node.n
                leaf_n_plus[row] = node.n_plus
                leaf_objects[row] = node
                leaf_index[id(node)] = row
                continue
            if isinstance(node, MaintenanceNode):
                slots, routes, leaves = self._foot[id(node)]
                sub = _Arena(
                    arena.slot_cur, arena.slot_cur + slots - 1,
                    arena.route_cur, arena.route_cur + routes,
                    arena.leaf_cur, arena.leaf_cur + leaves,
                    owner=None,
                )
                arena.slot_cur = sub.slot_hi
                arena.route_cur = sub.route_hi
                arena.leaf_cur = sub.leaf_hi
                info = _SpanInfo(
                    node, tree, slot,
                    sub.slot_cur, sub.slot_hi,
                    sub.route_cur, sub.route_hi,
                    sub.leaf_cur, sub.leaf_hi,
                )
                sub.owner = info
                self._spans[id(node)] = info
                if arena.owner is not None:
                    arena.owner.children.append(info)
                arenas_out.append(sub)
                active = node.active
                split, child_left, child_right = (
                    active.split, active.left, active.right,
                )
                arena = sub
            else:
                split, child_left, child_right = node.split, node.left, node.right
            route_row = arena.route_cur
            arena.route_cur += 1
            feature[slot] = split.feature
            payload[slot] = route_row * width
            route_flat[route_row * width:(route_row + 1) * width] = _route_row(
                split, width
            )
            pair = arena.slot_cur
            arena.slot_cur += 2
            right[slot] = pair + 1
            stack.append((child_right, pair + 1, arena))
            stack.append((child_left, pair, arena))

    def _pad_arena(self, arena: _Arena) -> None:
        """Fill an arena's unused tail with safe, in-range content.

        Unused slots become *safe leaves* (``LEAF_MARKER`` with a payload
        pointing at an in-span leaf row) and unused leaf rows are zeroed:
        a torn optimistic shared-memory read that strays into padding
        still sees only in-range indices. Unreachable from any consistent
        root by construction.
        """
        lo, hi = arena.slot_cur, arena.slot_hi
        if lo < hi:
            safe_row = max(arena.leaf_hi - 1, 0)
            self.feature[lo:hi] = LEAF_MARKER
            self.payload[lo:hi] = safe_row
            self.right[lo:hi] = np.arange(lo, hi, dtype=np.intp)
        if arena.route_cur < arena.route_hi:
            width = self._width
            self.route_flat[arena.route_cur * width:arena.route_hi * width] = False
        if arena.leaf_cur < arena.leaf_hi:
            self.leaf_n[arena.leaf_cur:arena.leaf_hi] = 0
            self.leaf_n_plus[arena.leaf_cur:arena.leaf_hi] = 0
            for row in range(arena.leaf_cur, arena.leaf_hi):
                self._leaf_objects[row] = None

    def splice_subtree(self, node: MaintenanceNode) -> int | None:
        """Rewrite one maintenance node's reserved span for its live variant.

        Returns the tree index the span belongs to when a rewrite
        happened, or ``None`` when the call is a no-op: the node is not
        currently materialised (it sits inside an inactive variant of an
        enclosing node -- its switch will be emitted whenever that
        enclosing variant is spliced in), or its emitted variant already
        matches ``node.active_index``.
        """
        info = self._spans.get(id(node))
        if info is None or info.emitted_index == info.node.active_index:
            return None
        self._splice(info)
        return info.tree

    def _splice(self, info: _SpanInfo) -> None:
        """Re-emit the live active variant into an existing reserved span."""
        self._unregister_children(info)
        for row in range(info.leaf_lo, info.leaf_hi):
            leaf = self._leaf_objects[row]
            if leaf is not None:
                self._leaf_index.pop(id(leaf), None)
                self._leaf_objects[row] = None
        node = info.node
        width = self._width
        arena = _Arena(
            info.slot_lo, info.slot_hi,
            info.route_lo, info.route_hi,
            info.leaf_lo, info.leaf_hi,
            owner=info,
        )
        info.children = []
        arenas: list[_Arena] = [arena]
        active = node.active
        split = active.split
        route_row = arena.route_cur
        arena.route_cur += 1
        self.feature[info.root_slot] = split.feature
        self.payload[info.root_slot] = route_row * width
        self.route_flat[route_row * width:(route_row + 1) * width] = _route_row(
            split, width
        )
        pair = arena.slot_cur
        arena.slot_cur += 2
        self.right[info.root_slot] = pair + 1
        self._emit_into(
            [(active.right, pair + 1, arena), (active.left, pair, arena)],
            info.tree,
            arenas,
        )
        for sub in arenas:
            self._pad_arena(sub)
        info.emitted_index = node.active_index
        self._note_dirty(info)

    def _unregister_children(self, info: _SpanInfo) -> None:
        """Drop the span registrations nested inside ``info``'s old variant."""
        stack = list(info.children)
        while stack:
            child = stack.pop()
            stack.extend(child.children)
            if self._spans.get(id(child.node)) is child:
                del self._spans[id(child.node)]

    def _note_dirty(self, info: _SpanInfo) -> None:
        """Record a spliced span for the shared-memory span-delta publish.

        Slot ranges are in slots; route ranges are pre-scaled to flat
        table indices. Leaf rows are not tracked: a span publish copies
        the (comparatively small) leaf arrays wholesale, exactly like a
        leaf-only publish.
        """
        self._dirty_slot_ranges.append((info.root_slot, info.root_slot + 1))
        self._dirty_slot_ranges.append((info.slot_lo, info.slot_hi))
        self._dirty_route_ranges.append(
            (info.route_lo * self._width, info.route_hi * self._width)
        )
        if len(self._dirty_slot_ranges) > _MAX_DIRTY_RANGES:
            self._dirty_slot_ranges = _merge_ranges(self._dirty_slot_ranges)
            if len(self._dirty_slot_ranges) > _MAX_DIRTY_RANGES:
                self._dirty_slot_ranges = [
                    (
                        self._dirty_slot_ranges[0][0],
                        self._dirty_slot_ranges[-1][1],
                    )
                ]
        if len(self._dirty_route_ranges) > _MAX_DIRTY_RANGES:
            self._dirty_route_ranges = _merge_ranges(self._dirty_route_ranges)
            if len(self._dirty_route_ranges) > _MAX_DIRTY_RANGES:
                self._dirty_route_ranges = [
                    (
                        self._dirty_route_ranges[0][0],
                        self._dirty_route_ranges[-1][1],
                    )
                ]

    @property
    def has_dirty_spans(self) -> bool:
        """Whether splices happened since the last :meth:`drain_dirty_spans`."""
        return bool(self._dirty_slot_ranges) or bool(self._dirty_route_ranges)

    def drain_dirty_spans(
        self,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Merged ``(slot_ranges, flat_route_ranges)`` since the last drain.

        Clears the pending sets; the shared-memory writer calls this under
        its seqlock to copy exactly the spliced regions.
        """
        slot_ranges = _merge_ranges(self._dirty_slot_ranges)
        route_ranges = _merge_ranges(self._dirty_route_ranges)
        self._dirty_slot_ranges = []
        self._dirty_route_ranges = []
        return slot_ranges, route_ranges

    def repack_tree(self, index: int) -> None:
        """Splice every stale maintenance span of one tree.

        Compatibility surface of the pre-span whole-tree re-emit: callers
        that only know "something in tree ``index`` switched" (manual
        ``active_index`` pokes, the object-path unlearner) get every span
        whose emitted variant drifted from the live one re-spliced. Outer
        spans are spliced before inner ones (ascending root slot) so a
        nested stale node that survives inside the new outer variant is
        materialised correctly before its own check runs.
        """
        if not 0 <= index < len(self._roots):
            raise IndexError(f"tree index {index} out of range")
        stale = [
            info
            for info in self._spans.values()
            if info.tree == index
            and info.emitted_index != info.node.active_index
        ]
        stale.sort(key=lambda info: info.root_slot)
        for info in stale:
            if (
                self._spans.get(id(info.node)) is info
                and info.emitted_index != info.node.active_index
            ):
                self._splice(info)

    def arrays(self) -> PackedArrays:
        """The current flat arrays as a :class:`PackedArrays` view.

        The view aliases the live arrays (no copy). Geometry is fixed for
        the pack's lifetime, so the view stays valid across splices; it
        only goes stale if the pack itself is rebuilt (unpickle).
        """
        return PackedArrays(
            feature=self.feature,
            payload=self.payload,
            right=self.right,
            route_flat=self.route_flat,
            tree_roots=self.tree_roots,
            leaf_n=self.leaf_n,
            leaf_n_plus=self.leaf_n_plus,
            chunk_rows=self._chunk_rows,
        )

    @property
    def leaf_index(self) -> dict[int, int]:
        """``id(leaf) -> leaf row`` for the currently packed (active) leaves.

        Maintained incrementally across splices (only the affected span's
        entries change); the scalar unlearning fast path uses it to sync a
        record's mutated leaves in one post-walk loop instead of per-leaf
        :meth:`sync_leaf` calls inside the traversal.
        """
        return self._leaf_index

    @property
    def n_trees(self) -> int:
        return len(self._roots)

    @property
    def n_slots(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_n.shape[0])

    def sync_leaf(self, leaf: Leaf) -> None:
        """O(1) write-through of one mutated leaf's statistics.

        Leaves of inactive maintenance variants are not part of the pack;
        their updates are no-ops here and get picked up by
        :meth:`splice_subtree` if their variant ever becomes active.
        """
        index = self._leaf_index.get(id(leaf))
        if index is not None:
            self.leaf_n[index] = leaf.n
            self.leaf_n_plus[index] = leaf.n_plus

    # ------------------------------------------------------------------ #
    # batch-unlearning companion pack
    # ------------------------------------------------------------------ #

    def unlearn_pack(self):
        """The lazily built write-path pack (see :mod:`repro.core.unlearn_batch`).

        Built on first use from the same roots/width as the read-path
        arrays; refreshed (one gather pass over the live objects) when
        scalar mutations marked its count mirrors stale.
        """
        if self._unlearn_pack is None:
            from repro.core.unlearn_batch import UnlearnPack

            self._unlearn_pack = UnlearnPack(self._roots, self._width)
        else:
            self._unlearn_pack.ensure_fresh()
        return self._unlearn_pack

    def mark_stats_stale(self) -> None:
        """Flag the unlearn pack's count mirrors after a scalar mutation.

        Scalar unlearning and incremental learning mutate leaf and split
        statistics object-by-object; instead of write-through (which would
        tax the scalar hot path), the next batch refreshes the mirrors in
        one pass. Structure never goes stale, so the pack is kept.
        """
        if self._unlearn_pack is not None:
            self._unlearn_pack.mark_stale()

    # ------------------------------------------------------------------ #
    # deep copy / pickling: the id()-keyed leaf index and span registry
    # must be rebuilt against the copied node objects, so only the tree
    # roots travel and the copy re-runs the (deterministic) build.
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        return {
            "roots": self._roots,
            "width": self._width,
            "chunk_rows": self._chunk_rows,
        }

    def __setstate__(self, state: dict) -> None:
        self._roots = state["roots"]
        self._width = state["width"]
        self._chunk_rows = state["chunk_rows"]
        self._unlearn_pack = None
        self._build()

    # ------------------------------------------------------------------ #
    # traversal kernel
    # ------------------------------------------------------------------ #

    def _leaf_matrix(self, values: np.ndarray) -> np.ndarray:
        """Route every (row, tree) pair to its leaf index (module kernel)."""
        return leaf_matrix(self.arrays(), values)

    # ------------------------------------------------------------------ #
    # prediction over raw code matrices
    # ------------------------------------------------------------------ #

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an ``(n_rows, n_features)`` code matrix."""
        return predict_rows(self.arrays(), values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Per-row positive hard-vote counts for a code matrix.

        Returns the number of trees voting for the positive class per row
        (``int64``), without applying the majority threshold. This is the
        aggregation primitive of the sharded ensemble: vote counts from
        independent sub-ensembles add, so ``2 * sum(votes) > total_trees``
        reproduces the single-model majority rule exactly.
        """
        return predict_votes_rows(self.arrays(), values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote positive-class probabilities for a code matrix.

        The per-tree probabilities are accumulated in tree order with
        sequential float adds, exactly like the scalar
        ``HedgeCutClassifier.predict_proba`` loop, so the results are
        bit-for-bit identical to the per-record path. Single-row requests
        take the scalar per-tree walk (see the module-level
        :func:`predict_proba_rows`), skipping the frontier setup.
        """
        return predict_proba_rows(self.arrays(), values)

    # ------------------------------------------------------------------ #
    # prediction over datasets
    # ------------------------------------------------------------------ #

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """Majority-vote labels for a whole dataset."""
        return self.predict_rows(dataset.feature_matrix())

    def predict_proba_batch(self, dataset: Dataset) -> np.ndarray:
        """Soft-vote probabilities for a whole dataset."""
        return self.predict_proba_rows(dataset.feature_matrix())

    # ------------------------------------------------------------------ #
    # scalar path (single-record serving)
    # ------------------------------------------------------------------ #

    def predict_one(self, values: Sequence[int]) -> int:
        """Majority-vote label for one record (tight scalar loop)."""
        arrays = self.arrays()
        votes = 0
        for tree in range(self.n_trees):
            leaf = walk_one(arrays, values, tree)
            votes += 1 if 2 * self.leaf_n_plus[leaf] > self.leaf_n[leaf] else 0
        return 1 if 2 * votes > self.n_trees else 0

    def predict_proba_one(self, values: Sequence[int]) -> float:
        """Soft-vote positive-class probability for one record."""
        arrays = self.arrays()
        total = 0.0
        for tree in range(self.n_trees):
            leaf = walk_one(arrays, values, tree)
            count = self.leaf_n[leaf]
            total += (self.leaf_n_plus[leaf] / count) if count > 0 else 0.5
        return total / self.n_trees

    def _walk_one(self, values: Sequence[int], tree: int) -> int:
        return walk_one(self.arrays(), values, tree)
