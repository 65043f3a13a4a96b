"""Checked dtype coercion and the dtype-lane policy for the model plane.

The hot-path dtype contract (int64 ids, uint64 routing keys, one float32
row lane; float64 only in oracles and clocks) is enforced statically by
``repro.analysis``'s ``dtype-discipline`` rule; this module is the
*runtime* half of that contract.  A bare
``np.asarray(x).astype(np.int64)`` silently accepts float and object
inputs — a float64 round-trip collapses every integer above ``2**53``
onto its even neighbour, which for routing keys means two distinct users
silently share a ring position in some processes and not others.  The
coercers here accept exactly the integer family and *raise* on anything
lossy, so the failure is at the call site instead of a week later in a
placement diff.

:class:`DTypePolicy` extends the same checked-boundary idiom into a
*lane* discipline: a policy names the row dtype, the slot dtype of the
id -> slot maps, and the tolerance under which a float64 -> float32
downcast is accepted.  The model plane runs one float32 row lane,
:data:`SERVE`: the dlrm stack, the adapters and the shard store build on
it by default, and float64 data (stream features, a float64 publish)
enters it through one checked downcast.  float64 is left to the test
oracles and to clocks.

This module deliberately lives outside the hot-module list: inspecting
an input's dtype requires one dtype-less ``np.asarray`` probe, which the
lint rule would (correctly) refuse anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_int64_ids",
    "as_uint64_keys",
    "as_float64_rows",
    "as_float32_rows",
    "as_float_rows",
    "as_rows",
    "DTypePolicy",
    "SERVE",
]


def as_int64_ids(values, name: str = "ids") -> np.ndarray:
    """Coerce ``values`` to an int64 array, rejecting lossy inputs.

    Accepts any integer dtype (and object arrays of Python ints, which
    preserve values beyond ``2**53`` exactly).  Raises:

    * ``TypeError`` for float/complex/bool/string inputs — a float64
      detour truncates above ``2**53``; convert explicitly at the edge.
    * ``OverflowError`` for unsigned values above ``2**63 - 1`` (use
      :func:`as_uint64_keys` when the bit pattern is what matters).

    Parameters
    ----------
    values : array_like
        Ids; any shape.
    name : str, optional
        Label used in error messages.

    Returns
    -------
    numpy.ndarray of int64
        Same shape as ``values``; a view-free copy only when needed.
    """
    arr = np.asarray(values)  # dtype inspected below; this is the coercer
    kind = arr.dtype.kind
    if kind == "i":
        return arr if arr.dtype == np.int64 else arr.astype(np.int64)
    if kind == "u":
        if arr.size and int(arr.max()) > np.iinfo(np.int64).max:
            raise OverflowError(
                f"{name}: unsigned values exceed int64 range; use "
                "as_uint64_keys for bit-pattern keys"
            )
        return arr.astype(np.int64)
    if kind == "O":
        # Python ints of any magnitude land here; astype raises
        # OverflowError past int64, and non-ints raise TypeError.
        if not all(isinstance(v, (int, np.integer)) for v in arr.flat):
            raise TypeError(
                f"{name}: object array must contain only integers"
            )
        return arr.astype(np.int64)
    raise TypeError(
        f"{name}: expected integer values, got dtype {arr.dtype}; "
        "float inputs are refused because float64 cannot represent "
        "integers above 2**53 exactly"
    )


def as_uint64_keys(values, name: str = "keys") -> np.ndarray:
    """Coerce integers to uint64 bit patterns for the splitmix64 family.

    Signed inputs wrap two's-complement (``-1 -> 2**64 - 1``): hashing
    cares about the 64-bit pattern, not the signed value, and this is the
    exact behaviour of the previous unchecked ``astype``.  Float, string
    and object inputs raise ``TypeError`` — hashing a silently truncated
    float key is precisely the nondeterminism class this repo has had to
    fix twice.

    Parameters
    ----------
    values : array_like
        Integer keys; any shape.  Booleans are accepted (0/1 masks are
        legitimate hash inputs).
    name : str, optional
        Label used in error messages.

    Returns
    -------
    numpy.ndarray of uint64
        Same shape as ``values``.
    """
    arr = np.asarray(values)  # dtype inspected below; this is the coercer
    kind = arr.dtype.kind
    if kind == "u":
        return arr if arr.dtype == np.uint64 else arr.astype(np.uint64)
    if kind in ("i", "b"):
        with np.errstate(over="ignore"):
            return arr.astype(np.uint64)
    if kind == "O":
        ints = as_int64_ids(arr, name=name)
        with np.errstate(over="ignore"):
            return ints.astype(np.uint64)
    raise TypeError(
        f"{name}: expected integer keys, got dtype {arr.dtype}; refusing "
        "a lossy float round-trip into the hash"
    )


def as_float64_rows(values, name: str = "rows") -> np.ndarray:
    """Coerce numeric row payloads to float64, rejecting non-numerics.

    Integer and float inputs upcast exactly; strings/objects raise
    ``TypeError`` instead of numpy's element-wise best effort.

    Parameters
    ----------
    values : array_like
        Row payloads; any shape.
    name : str, optional
        Label used in error messages.

    Returns
    -------
    numpy.ndarray of float64
        Same shape as ``values``.
    """
    arr = np.asarray(values)  # dtype inspected below; this is the coercer
    if arr.dtype == np.float64:
        return arr
    if arr.dtype.kind in ("f", "i", "u", "b"):
        return arr.astype(np.float64)
    raise TypeError(
        f"{name}: expected numeric rows, got dtype {arr.dtype}"
    )


def as_float32_rows(
    values, name: str = "rows", rtol: float = 1e-6
) -> np.ndarray:
    """Coerce numeric rows to float32, *checking* the downcast is benign.

    float64 -> float32 rounding keeps every ordinary value within
    ``2**-24`` relative error, so a downcast only goes wrong in two
    ways this function refuses to hide:

    * **overflow** — magnitudes above ~``3.4e38`` become ``inf``;
    * **underflow / precision collapse** — values that round to
      something further than ``rtol`` (relative, against the float64
      original) away, e.g. tiny subnormals flushing to zero.

    Either raises ``ValueError`` naming the worst offender instead of
    silently serving corrupted rows.  Non-finite inputs (``nan``/``inf``
    already present upstream) pass through unchanged — they are not the
    downcast's fault and the trainer has its own checks.

    Parameters
    ----------
    values : array_like
        Row payloads; any shape.
    name : str, optional
        Label used in error messages.
    rtol : float, optional
        Maximum tolerated relative error of the round trip.  The default
        ``1e-6`` is ~8x the float32 rounding unit: loose enough for any
        healthy embedding row, tight enough to catch lane abuse.

    Returns
    -------
    numpy.ndarray of float32
        Same shape as ``values``.
    """
    arr = np.asarray(values)  # dtype inspected below; this is the coercer
    if arr.dtype == np.float32:
        return arr
    if arr.dtype.kind not in ("f", "i", "u", "b"):
        raise TypeError(
            f"{name}: expected numeric rows, got dtype {arr.dtype}"
        )
    # Overflow-to-inf and inf-inf are exactly what the round-trip check
    # below diagnoses; numpy's transit warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        cast = arr.astype(np.float32)
    if arr.dtype.kind == "f" and arr.size:
        wide = arr.astype(np.float64, copy=False)
        back = cast.astype(np.float64)
        finite = np.isfinite(wide)
        with np.errstate(invalid="ignore"):
            err = np.abs(back - wide)
        bad = finite & (err > rtol * np.abs(wide))
        if bad.any():
            worst = np.unravel_index(
                int(np.argmax(np.where(bad, err, -np.inf))), arr.shape
            )
            raise ValueError(
                f"{name}: float32 downcast exceeds rtol={rtol:g} at index "
                f"{worst}: {wide[worst]!r} -> {back[worst]!r}"
            )
    return cast


def as_float_rows(values, name: str = "rows") -> np.ndarray:
    """Lane-preserving float coercion for kernels that follow their input.

    Float inputs pass through in their own dtype (float32 stays float32,
    float64 oracle rows stay float64); integer and bool inputs upcast
    exactly to float64, which float32 could not promise above ``2**24``.
    Strings/objects raise
    ``TypeError``.  Use this in kernels like ``pool_rows`` whose output
    lane should follow the source rows rather than impose one.

    Parameters
    ----------
    values : array_like
        Row payloads; any shape.
    name : str, optional
        Label used in error messages.

    Returns
    -------
    numpy.ndarray of float32 or float64
        Same shape as ``values``.
    """
    arr = np.asarray(values)  # dtype inspected below; this is the coercer
    if arr.dtype.kind == "f":
        return arr
    if arr.dtype.kind in ("i", "u", "b"):
        return arr.astype(np.float64)
    raise TypeError(
        f"{name}: expected numeric rows, got dtype {arr.dtype}"
    )


@dataclass(frozen=True)
class DTypePolicy:
    """One dtype lane of the model plane, as an explicit object.

    A policy bundles the row dtype, the slot dtype of the id -> slot
    maps, and the tolerance a checked float32 downcast must meet.  Code
    that takes a policy — the dlrm stack, the adapters, the serving
    caches — never spells a dtype inline; :data:`SERVE` is the one lane
    ``src`` builds, and a float64 policy exists only as a test oracle.

    Attributes
    ----------
    name : str
        Lane label used in reprs and error messages.
    row_dtype : numpy dtype
        Dtype of every row payload on this lane.
    slot_dtype : numpy dtype
        Dtype of slot vectors (``IdSlotTable`` values, free lists).
    downcast_rtol : float
        Relative tolerance for entering this lane from float64; see
        :func:`as_float32_rows`.
    """

    name: str
    row_dtype: np.dtype
    slot_dtype: np.dtype
    downcast_rtol: float = 1e-6

    def as_rows(self, values, name: str = "rows") -> np.ndarray:
        """Coerce ``values`` onto this lane's row dtype, checked.

        float64 lanes use :func:`as_float64_rows` (exact); float32 lanes
        use :func:`as_float32_rows` with this policy's tolerance.
        """
        if self.row_dtype == np.dtype(np.float64):
            return as_float64_rows(values, name=name)
        if self.row_dtype == np.dtype(np.float32):
            return as_float32_rows(values, name=name, rtol=self.downcast_rtol)
        raise TypeError(
            f"policy {self.name!r}: unsupported row dtype {self.row_dtype}"
        )

    def row_nbytes(self, dim: int) -> int:
        """Bytes of one ``dim``-wide row on this lane."""
        return int(dim) * np.dtype(self.row_dtype).itemsize

    def slot_nbytes(self) -> int:
        """Bytes of one slot entry on this lane."""
        return np.dtype(self.slot_dtype).itemsize


def as_rows(policy: DTypePolicy, values, name: str = "rows") -> np.ndarray:
    """Functional spelling of :meth:`DTypePolicy.as_rows`."""
    return policy.as_rows(values, name=name)


#: The row lane of the model plane, training and serving alike: float32
#: rows, int32 slots, entered from float64 through one checked downcast.
SERVE = DTypePolicy(
    "serve", np.dtype(np.float32), np.dtype(np.int32), downcast_rtol=1e-6
)
