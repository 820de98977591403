"""Batched simulator state: B solver lanes over one compiled pattern.

The batch execution engine's storage layer.  A
:class:`~repro.arch.trace.CompiledTrace` lowers a schedule into flat
index plans over a compacted state vector; replaying those plans over a
leading batch axis only needs per-lane *storage* — the indices are the
same for every lane because every lane shares the sparsity pattern.

A full batched register file would be ``B x C x 2^24`` doubles, so
:class:`BatchSimState` instead maps the register-file words a trace
actually touches onto columns of a dense ``(B, K)`` array.  The
flat-index -> column assignment is append-only and *shared* between a
state and every lane extracted from it, which keeps the per-trace
gather/scatter column maps (cached on first use) valid across
early-harvest compaction and bail-out lane extraction.

Lanes read exactly what a freshly reset
:class:`~repro.arch.simulator.NetworkSimulator` would: every word not
yet written is 0.0, in the register files and in the auxiliary spaces
(``lbuf``/``scalar``/``hbm``) alike.
"""

from __future__ import annotations

import numpy as np

from ..xp import NUMPY
from .isa import Location
from .regfile import VectorView

__all__ = ["BatchSimState", "BatchStreamBuffers"]


class BatchStreamBuffers:
    """Named coefficient streams with an optional per-lane axis.

    A 1-D bound array is shared by every lane (pattern-constant
    streams); a ``(B, len)`` array carries per-lane values (matrix
    data, bounds, per-lane rho).  ``fetch`` returns ``(len,)`` or
    ``(B, len)`` accordingly; the replay broadcasts either into its
    ``(B, n_coeff)`` coefficient buffer.  Bound values are validated
    on host and stored on ``xp``, so each bind is one host→backend
    crossing and fetches stay backend-resident.
    """

    def __init__(self, b: int, xp=NUMPY) -> None:
        if b < 1:
            raise ValueError("batch size must be >= 1")
        self.b = b
        self.xp = xp
        self.buffers: dict = {}

    def bind(self, name: str, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 2 and arr.shape[0] != self.b:
            raise ValueError(
                f"stream {name!r} has {arr.shape[0]} lanes, expected {self.b}"
            )
        if arr.ndim not in (1, 2):
            raise ValueError(f"stream {name!r} must be 1-D or (B, len)")
        self.buffers[name] = self.xp.from_host(arr)

    def fetch(self, name: str, indices: np.ndarray):
        if name not in self.buffers:
            raise KeyError(f"stream {name!r} not bound")
        return self.buffers[name][..., self.xp.index(indices)]

    def __contains__(self, name: str) -> bool:
        return name in self.buffers

    # -- lane surgery --------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop lanes in place (harvested or split out of lockstep)."""
        self.b = int(np.count_nonzero(keep))
        for name, arr in self.buffers.items():
            if arr.ndim == 2:
                self.buffers[name] = self.xp.take_rows(arr, keep)

    def extract(self, row: int) -> "BatchStreamBuffers":
        """A single-lane copy (shared 1-D streams stay shared)."""
        out = BatchStreamBuffers(1, self.xp)
        for name, arr in self.buffers.items():
            out.buffers[name] = (
                self.xp.copy_values(arr[row : row + 1])
                if arr.ndim == 2
                else arr
            )
        return out


class BatchSimState:
    """Lazily mapped per-lane storage for batched trace replay.

    Parameters mirror the simulator checks a trace performs on replay:
    ``c``/``depth`` must match the trace's compilation target and
    ``latency`` its pipeline latency (``Butterfly(c).latency`` plus the
    super-pipelining extra).
    """

    def __init__(
        self, b: int, *, c: int, depth: int, latency: int, xp=NUMPY
    ) -> None:
        if b < 1:
            raise ValueError("batch size must be >= 1")
        self.b = b
        self.c = c
        self.depth = depth
        self.latency = latency
        self.xp = xp
        # flat rf index (bank*depth + addr) -> column; shared (by
        # reference) with every extracted lane so cached column maps
        # stay valid for all of them.  Column maps are computed (and
        # cached) on host; backends convert them on use via the
        # memoized ``xp.index``.
        self._cols: dict[int, int] = {}
        self._col_cache: dict[tuple, np.ndarray] = {}
        self.rf = xp.zeros((b, 64))
        # Auxiliary word spaces: (space, bank, addr) -> (B,) column.
        self._aux: dict[tuple, np.ndarray] = {}
        self.hbm_words_read = 0
        self.hbm_words_written = 0

    # -- column mapping ------------------------------------------------
    def _map_flat(self, flat: np.ndarray) -> np.ndarray:
        cols = np.empty(flat.size, dtype=np.int64)
        table = self._cols
        for i, f in enumerate(flat.tolist()):
            col = table.get(f)
            if col is None:
                col = len(table)
                table[f] = col
            cols[i] = col
        return cols

    def _ensure_width(self) -> None:
        need = len(self._cols)
        if need > self.rf.shape[1]:
            width = max(64, 2 * need)
            grown = self.xp.zeros((self.b, width))
            grown[:, : self.rf.shape[1]] = self.rf
            self.rf = grown

    def columns(self, key: tuple, flat: np.ndarray) -> np.ndarray:
        """Columns of the flat rf indices, cached under ``key``.

        The cache is shared with extracted lanes; a key must therefore
        identify the index array globally (trace name + direction).
        """
        cols = self._col_cache.get(key)
        if cols is None:
            cols = self._map_flat(flat)
            self._col_cache[key] = cols
        self._ensure_width()
        return cols

    # -- scalar word spaces --------------------------------------------
    @staticmethod
    def _aux_key(loc: Location) -> tuple:
        if loc.space == "rf":  # overflow scratch beyond the dense range
            return ("rf", loc.bank, loc.addr)
        return (loc.space, 0, loc.addr)

    def read_loc(self, loc: Location):
        """Per-lane value of one word (0.0 where never written)."""
        col = self._aux.get(self._aux_key(loc))
        if col is None:
            return self.xp.zeros(self.b)
        return col

    def write_loc(self, loc: Location, values) -> None:
        self._aux[self._aux_key(loc)] = self.xp.copy_values(values)

    def lbuf_matrix(self, count: int) -> np.ndarray:
        """The first ``count`` lbuf words as a dense host ``(B, count)``
        array (the factor-value stream binding after factorization)."""
        out = np.zeros((self.b, count), dtype=np.float64)
        for (space, _, addr), col in self._aux.items():
            if space == "lbuf" and addr < count:
                out[:, addr] = self.xp.to_host(col)
        return out

    # -- vector views (host-side load/readback) ------------------------
    def _view_cols(self, view: VectorView) -> np.ndarray:
        key = ("view", view.name, view.base, view.rotation, view.length)
        cols = self._col_cache.get(key)
        if cols is None:
            banks, addrs = view.bank_addr_arrays()
            cols = self.columns(key, banks * self.depth + addrs)
        else:
            self._ensure_width()
        return cols

    def load_vector(self, view: VectorView, values: np.ndarray) -> None:
        """Bulk host-side load; ``values`` is ``(len,)`` or ``(B, len)``."""
        cols = self.xp.index(self._view_cols(view))
        self.rf[:, cols] = self.xp.from_host(
            np.asarray(values, dtype=np.float64)
        )

    def read_vector(self, view: VectorView) -> np.ndarray:
        """Bulk host-side readback, shape ``(B, len)``."""
        cols = self.xp.index(self._view_cols(view))
        return self.xp.to_host(self.rf[:, cols], copy=True)

    # -- traffic accounting --------------------------------------------
    def record_hbm(self, words_read: int, words_written: int) -> None:
        """Per-lane HBM traffic (every lane streams its own words)."""
        self.hbm_words_read += int(words_read) * self.b
        self.hbm_words_written += int(words_written) * self.b

    # -- lane surgery --------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop lanes in place, keeping rows where ``keep`` is true.

        Column maps are untouched: compaction removes rows only, so
        every cached gather/scatter plan stays valid.
        """
        self.b = int(np.count_nonzero(keep))
        self.rf = self.xp.take_rows(self.rf, keep)
        for key, col in self._aux.items():
            self._aux[key] = self.xp.take_rows(col, keep)

    def extract(self, row: int) -> "BatchSimState":
        """Copy one lane into a new single-lane state.

        The column tables are shared by reference (append-only), so
        traces replayed against the parent and the extracted lane keep
        using the same cached plans.
        """
        out = BatchSimState(
            1, c=self.c, depth=self.depth, latency=self.latency, xp=self.xp
        )
        out._cols = self._cols
        out._col_cache = self._col_cache
        out.rf = self.xp.copy_values(self.rf[row : row + 1])
        out._aux = {
            key: self.xp.copy_values(col[row : row + 1])
            for key, col in self._aux.items()
        }
        return out
