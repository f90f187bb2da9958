"""Finitely-supported matrices with Scalar entries over arbitrary integer
indices.  Used for truncation windows and as the base class of compact
matrices; every operation returns the type of its receiver."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .scalars import Scalar, ZERO


class ScalarMatrix:
    """Sparse matrix {(i, j): Scalar} with no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                v = Scalar.from_number(v)
                if not v.is_zero():
                    ent[(int(i), int(j))] = v
        self.entries = ent

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.entries.values())

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "ScalarMatrix") -> "ScalarMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(out)

    def sub(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return self.add(other.scale(-1))

    def scale(self, z) -> "ScalarMatrix":
        z = Scalar.from_number(z)
        return type(self)({k: z * v for k, v in self.entries.items()})

    def matmul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        rows = defaultdict(list)
        for (i, j), v in other.entries.items():
            rows[i].append((j, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (i, j), v in self.entries.items():
            for t, w in rows.get(j, ()):
                key = (i, t)
                p = v * w
                acc[key] = acc[key] + p if key in acc else p
        return type(self)(acc)

    def adjoint(self) -> "ScalarMatrix":
        return type(self)({(j, i): v.conj() for (i, j), v in self.entries.items()})

    def restrict(self, rows: range, cols: range) -> "ScalarMatrix":
        return type(self)(
            {k: v for k, v in self.entries.items() if k[0] in rows and k[1] in cols}
        )

    def get(self, i: int, j: int) -> Scalar:
        return self.entries.get((i, j), ZERO)

    def support_bounds(self) -> tuple[int, int, int, int] | None:
        """(min_row, max_row, min_col, max_col), or None when empty."""
        if not self.entries:
            return None
        rs = [k[0] for k in self.entries]
        cs = [k[1] for k in self.entries]
        return min(rs), max(rs), min(cs), max(cs)

    def to_numpy(self, rows: range, cols: range) -> np.ndarray:
        out = np.zeros((len(rows), len(cols)), dtype=complex)
        r0, c0 = rows.start, cols.start
        for (i, j), v in self.entries.items():
            if i in rows and j in cols:
                out[i - r0, j - c0] = v.to_complex()
        return out

    def smax(self) -> float:
        """Largest singular value of the (finite) matrix."""
        b = self.support_bounds()
        if b is None:
            return 0.0
        dense = self.to_numpy(range(b[0], b[1] + 1), range(b[2], b[3] + 1))
        return float(np.linalg.svd(dense, compute_uv=False)[0])

    def equal(self, other: "ScalarMatrix") -> bool:
        """Scalar equality entry by entry, a missing entry counting as zero."""
        a, b = self.entries, other.entries
        return all(a.get(k, ZERO) == b.get(k, ZERO) for k in a.keys() | b.keys())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.entries)} entries)"
