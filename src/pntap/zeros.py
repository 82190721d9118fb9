"""Zero-ordinate datasets and exact weighted sums over them.

A ZeroTable holds the positive ordinates of non-trivial zeros, either of
the zeta function or of one Dirichlet L-function.  Tables are the ground
truth against which every estimator in this package is checked.  Zeta
tables sum over positive ordinates only; Dirichlet tables count each
stored ordinate twice because zeros come in conjugate pairs.

File formats
------------
zeta:      plain text, one decimal ordinate per line, ascending; blank
           lines and lines starting with # are skipped.
dirichlet: CSV with header ``q,index,gamma``; gamma > 0 ascending within
           each (q, index) group.

A zeta file is read with one numpy parse: numpy's C tokenizer reads the
whole file as one column, and the rules are checked on the array: each
ordinate a finite positive real, strictly ascending.  A zeta file that the
tokenizer refuses or that breaks a rule, and every dirichlet file, is read
line by line, and the first bad line raises, naming its 1-based file line.
The line reader also takes what the format allows and the tokenizer does
not: comment lines in a zeta file and, in a CSV, whitespace-only lines,
quoted fields and digit separators.  A label then picks its group or
fails; without one, the file's only group is used.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import CoverageError, DomainError, ParseError, ValidationError
from .zerosum import weight_quarter_sqrt

OMEGA_DEFAULT = 21.664472  # max over primitive characters mod q <= 10^4 of the low-zero sum


@dataclass(frozen=True)
class CharacterLabel:
    """Conrey-style label (modulus, index) of a Dirichlet character."""

    q: int
    index: int

    def __post_init__(self):
        if self.q < 3:
            raise ValidationError(f"modulus must be >= 3, got {self.q}")
        if math.gcd(self.index, self.q) != 1:
            raise ValidationError(f"index {self.index} is not coprime to modulus {self.q}")


@dataclass(frozen=True, eq=False)
class ZeroTable:
    """Ascending positive zero ordinates; a Dirichlet table carries its label."""

    kind: str  # "zeta" | "dirichlet"
    ordinates: np.ndarray
    max_height: float
    label: Optional[CharacterLabel] = None

    def __post_init__(self):
        if self.kind not in ("zeta", "dirichlet"):
            raise ValidationError(f"unknown table kind {self.kind!r}")
        ords = np.asarray(self.ordinates, dtype=np.float64)
        if ords.ndim != 1:
            raise ValidationError("ordinates must be a flat sequence")
        if not (np.all(np.isfinite(ords)) and math.isfinite(self.max_height)):
            raise ValidationError("ordinates and max_height must be finite")
        if ords.size and ords[0] <= 0.0:
            raise ValidationError("ordinates must be positive")
        if ords.size > 1 and not np.all(np.diff(ords) > 0.0):
            raise ValidationError("ordinates must be strictly increasing")
        object.__setattr__(self, "ordinates", ords)
        if self.max_height < (ords[-1] if ords.size else 0.0):
            raise ValidationError("max_height is below the last ordinate")
        if self.kind == "dirichlet" and ords.size and self.label is None:
            raise ValidationError("a dirichlet table with zeros needs its character label")
        if self.kind == "zeta" and self.label is not None:
            raise ValidationError("a zeta table carries no character label")

    def __len__(self) -> int:
        return int(self.ordinates.size)


def load_zero_table(
    path,
    kind: str = "zeta",
    label: Optional[CharacterLabel] = None,
) -> ZeroTable:
    """Load and validate a zero table from disk; the module docstring
    gives the rules and how a label selects a group."""
    if kind not in ("zeta", "dirichlet"):
        raise ValidationError(f"unknown table kind {kind!r}")
    groups = _parse_whole(path) if kind == "zeta" else None
    if groups is None:
        groups = _parse_lines(path, kind)
    present = ", ".join(str(k) for k in groups if k is not None) or "none"
    if label is not None:
        key = (label.q, label.index)
        if key not in groups:
            raise ValidationError(f"no zeros for group {key} in the file; groups present: {present}")
    elif len(groups) > 1:
        raise ValidationError(
            f"file holds {len(groups)} character groups ({present}); a label must select one")
    else:
        key = next(iter(groups), None)
        label = None if key is None else CharacterLabel(*key)
    ords = np.asarray(groups.get(key, ()), dtype=np.float64)
    return ZeroTable(kind, ords, float(ords[-1]) if ords.size else 0.0, label)


_HEADER = ["q", "index", "gamma"]


def _parse_whole(path) -> Optional[dict[None, np.ndarray]]:
    """{None: ordinates} of a zeta file from one numpy parse ({} when it
    holds none); None when the tokenizer refuses a line or an ordinate
    breaks a rule, so that the line reader names the line."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(fh, comments=None, ndmin=2)
        except ValueError:
            return None
    if rows.shape[1] != 1:  # two or more numbers on a line
        return None
    gamma = rows[:, 0]  # 0 < gamma < inf also rejects nan
    if not (np.all(gamma > 0.0) and np.all(gamma < math.inf) and np.all(np.diff(gamma) > 0.0)):
        return None
    return {None: gamma} if gamma.size else {}


def _parse_lines(path, kind) -> dict[Optional[tuple[int, int]], list[float]]:
    """{group key: ordinates}, read line by line; the first line that
    breaks a rule raises, naming its 1-based file line."""
    groups: dict[Optional[tuple[int, int]], list[float]] = {}
    with open(path, newline="") as fh:
        for i, key, text in (_zeta_rows if kind == "zeta" else _dirichlet_rows)(fh):
            try:
                v = float(text)
            except ValueError:
                raise ParseError(f"not a decimal ordinate: {text!r}", line_number=i)
            if not 0.0 < v < math.inf:  # also rejects nan
                raise ParseError(f"ordinate must be a positive real: {text!r}", line_number=i)
            group = groups.setdefault(key, [])
            if group and v <= group[-1]:
                where = "" if key is None else f" for group {key}"
                raise ValidationError(f"ordinates{where} not strictly ascending at line {i}")
            group.append(v)
    return groups


def _zeta_rows(fh) -> Iterator[tuple[int, None, str]]:
    """(line number, None, ordinate text) per line; blank and # lines skip."""
    for i, line in enumerate(fh, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield i, None, line


def _dirichlet_rows(fh) -> Iterator[tuple[int, tuple[int, int], str]]:
    """(line number, (q, index), gamma text) per CSV row after the header."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != _HEADER:
        raise ParseError(f"expected header q,index,gamma, got {header!r}", line_number=1)
    for i, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line_number=i)
        try:
            key = (int(row[0]), int(row[1]))
        except ValueError:
            raise ParseError(f"could not parse row {row!r}", line_number=i)
        yield i, key, row[2]


def dump_zero_table(table: ZeroTable, path) -> None:
    """Serialize a table back to its file format, 10 decimals per ordinate."""
    if table.kind == "zeta":
        with open(path, "w") as fh:
            for g in table.ordinates:
                fh.write(f"{g:.10f}\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "index", "gamma"])
        for g in table.ordinates:
            writer.writerow([table.label.q, table.label.index, f"{g:.10f}"])


def exact_weighted_sum(
    table: ZeroTable,
    phi: Callable[[np.ndarray], np.ndarray],
    U: float,
    V: float,
) -> float:
    """Sum phi over the table's ordinates in [U, V].

    phi is called once, on the float64 array of the ordinates in range,
    and returns their values (a constant broadcasts); the terms are summed
    exactly rounded with math.fsum.  An ordinate equal to U or V is
    weighted 1/2.  Dirichlet tables double each term (stored positive
    ordinates stand for conjugate pairs).  Raises CoverageError when V
    exceeds the table's certified height.
    """
    if U > V:
        raise DomainError(f"need U <= V, got U={U}, V={V}")
    if V > table.max_height:
        raise CoverageError(
            f"V={V} exceeds table max_height={table.max_height}; the sum cannot be certified"
        )
    ords = table.ordinates
    lo = np.searchsorted(ords, U, side="left")
    hi = np.searchsorted(ords, V, side="right")
    sel = ords[lo:hi]
    if sel.size == 0:
        return 0.0
    terms = np.array(np.broadcast_to(phi(sel), sel.shape), dtype=np.float64)
    terms[(sel == U) | (sel == V)] *= 0.5
    total = math.fsum(terms.tolist())
    if table.kind == "dirichlet":
        total *= 2.0
    return total


def omega_low_sum(table: ZeroTable) -> float:
    """Sum of (1/4 + gamma^2)^(-1/2) over |gamma| <= 200 for a Dirichlet table."""
    if table.kind != "dirichlet":
        raise DomainError("omega_low_sum is defined for dirichlet tables")
    if table.max_height < 200.0:
        raise CoverageError(
            f"table certifies heights only to {table.max_height}; need 200"
        )
    return exact_weighted_sum(table, weight_quarter_sqrt().value, 0.0, 200.0)
