"""Vectorized error-free transformations over binary64 lanes.

These are the lane-wise NumPy analogues of :mod:`repro.fp.fastpath`'s
host loops, whose windows and two-product residue they import: for
the overwhelmingly common case -- normal, mid-range binary64 operands
under round-to-nearest with FTZ/DAZ off -- the host FPU already computes
the correctly rounded result for a whole array at once, and the exact
flag set is recovered by error-free transformations:

* **add/sub**: the two-sum EFT recovers the exact residual; PE iff the
  residual is nonzero.
* **mul**: Dekker's two-product (Veltkamp splitting) recovers the exact
  product error without an FMA; PE iff nonzero.
* **div**: ``q = a/b`` is exact iff ``q*b == a`` as reals, checked by a
  two-product of ``q*b``: exact iff the rounded product equals ``a`` and
  its residual is zero (equivalent to the scalar fast path's integer
  cross-multiplication).
* **sqrt**: exact iff ``r*r == a`` as reals, same two-product technique.
* **min/max**: never raise flags on certified operands; the x64
  second-operand-on-equal rule degenerates to a plain compare because
  distinct bit patterns of certified (normal, nonzero) values are never
  numerically equal.

Only round-to-nearest is certified: no application leaves it.
Nothing in the simulator imports this module: batchfloat's host loop
is faster at every lane count the workloads produce, and its binary32
FMA EFT tier inlines its own two-sum residue (DESIGN.md #15).  The
benchmark ledger hooks :func:`vector_execute`, and a property test pins
its certified lanes to the canonical softfloat.

Every function returns ``(result_bits, pe, certified)`` arrays.  A lane
is *certified* only when the fast path can guarantee bit-identical
results and flags versus the canonical softfloat: normal mid-range
operands and a result comfortably inside the overflow/tininess
boundaries.  Uncertified lanes carry garbage in ``result_bits``; the
caller recomputes them.  Certification is deliberately
identical to :mod:`repro.fp.fastpath` so the two layers are
property-tested against the same oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.fp.fastpath import _MAX_SAFE, _MIN_SAFE, WINDOW64, _two_prod_err
from repro.isa.forms import OpKind

_U52 = np.uint64(52)
_U63 = np.uint64(63)
_EXPF = np.uint64(0x7FF)
_EXP_LO, _EXP_HI = (np.uint64(e) for e in WINDOW64)


def fast_operand_mask(bits: np.ndarray) -> np.ndarray:
    """Lanes whose operand is a normal, finite, mid-range binary64 value.

    The exponent-field window ``fastpath.WINDOW64`` is the vector twin
    of the host loops' operand window: magnitude within 2**+-500 and normal
    (which also excludes zeros, subnormals, infinities, and NaNs).
    """
    e = (bits >> _U52) & _EXPF
    return (e > _EXP_LO) & (e < _EXP_HI)


def _two_sum_err(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Residual of ``s = fl(x + y)``: ``s + err == x + y`` exactly."""
    bv = s - x
    return (x - (s - bv)) + (y - bv)


def _safe_result(v: np.ndarray) -> np.ndarray:
    mag = np.abs(v)
    return (mag > _MIN_SAFE) & (mag < _MAX_SAFE)


def _addsub(a: np.ndarray, b: np.ndarray, negate_b: bool):
    x = a.view(np.float64)
    y = b.view(np.float64)
    if negate_b:
        y = -y
    s = x + y
    # Exact cancellation gives +0.0 under round-to-nearest, matching the
    # scalar fast path's explicit +0 result; s == 0 with a nonzero residual
    # is impossible for mid-range normals (their exact sum is either zero
    # or far above the smallest representable magnitude).
    certified = (fast_operand_mask(a) & fast_operand_mask(b)
                 & ((s == 0.0) | _safe_result(s)))
    pe = certified & (_two_sum_err(x, y, s) != 0.0)
    return s.view(np.uint64), pe, certified


def _mul(a: np.ndarray, b: np.ndarray):
    x = a.view(np.float64)
    y = b.view(np.float64)
    p = x * y
    certified = fast_operand_mask(a) & fast_operand_mask(b) & _safe_result(p)
    pe = certified & (_two_prod_err(x, y, p) != 0.0)
    return p.view(np.uint64), pe, certified


def _div(a: np.ndarray, b: np.ndarray):
    x = a.view(np.float64)
    y = b.view(np.float64)
    q = x / y
    certified = fast_operand_mask(a) & fast_operand_mask(b) & _safe_result(q)
    # q exact <=> q*y == x as reals: the residual x - q*y is exact
    # (Sterbenz on x - fl(q*y), then the two-product low part).
    qy = q * y
    r = (x - qy) - _two_prod_err(q, y, qy)
    pe = certified & (r != 0.0)
    return q.view(np.uint64), pe, certified


def _sqrt(a: np.ndarray):
    x = a.view(np.float64)
    positive = (a >> _U63) == 0
    certified = fast_operand_mask(a) & positive
    r = np.sqrt(np.where(certified, x, 1.0))
    rr = r * r
    d = (x - rr) - _two_prod_err(r, r, rr)
    pe = certified & (d != 0.0)
    return r.view(np.uint64), pe, certified


def _minmax(a: np.ndarray, b: np.ndarray, want_min: bool):
    x = a.view(np.float64)
    y = b.view(np.float64)
    certified = fast_operand_mask(a) & fast_operand_mask(b)
    take_a = (x < y) if want_min else (x > y)
    # Equal certified values have identical bits, so the x64 rule of
    # returning the *second* operand on equality is satisfied by taking b.
    res = np.where(take_a, a, b)
    return res, np.zeros_like(certified), certified


def vector_execute(kind: OpKind, operands: Sequence[np.ndarray]) -> tuple:
    """Execute one EFT kind across flattened binary64 lanes under
    round-to-nearest with FTZ/DAZ off.

    ``operands`` holds one uint64 bit-pattern array per operand position.
    Returns ``(result_bits, pe, certified)``; certified lanes raise PE and
    nothing else (DE/IE/ZE/OE/UE all require operand or result classes the
    certification window excludes).
    """
    with np.errstate(all="ignore"):
        if kind is OpKind.ADD:
            return _addsub(operands[0], operands[1], False)
        if kind is OpKind.SUB:
            return _addsub(operands[0], operands[1], True)
        if kind is OpKind.MUL:
            return _mul(operands[0], operands[1])
        if kind is OpKind.DIV:
            return _div(operands[0], operands[1])
        if kind is OpKind.SQRT:
            return _sqrt(operands[0])
        if kind is OpKind.MIN:
            return _minmax(operands[0], operands[1], want_min=True)
        if kind is OpKind.MAX:
            return _minmax(operands[0], operands[1], want_min=False)
    raise NotImplementedError(kind)
