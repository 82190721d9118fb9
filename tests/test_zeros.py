import csv
import math
import pickle
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pntap.zeros as zeros_module
from pntap.errors import CoverageError, DomainError, ParseError, ValidationError
from pntap.zeros import (CharacterLabel, ZeroTable, dump_zero_table,
                         exact_weighted_sum, load_zero_table, omega_low_sum)
from pntap.zerosum import weight_inverse, weight_inverse_square, weight_quarter_sqrt

from conftest import DATA_DIR, KNOWN_FIRST_ZEROS, ZEROS_FILE


def write(tmp_path, text, name="z.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoading:
    def test_two_line_file(self, tmp_path):
        t = load_zero_table(write(tmp_path, "14.134725142\n21.022039639\n"))
        assert len(t) == 2
        assert t.max_height == pytest.approx(21.022039639)
        assert t.kind == "zeta"

    def test_empty_file(self, tmp_path):
        t = load_zero_table(write(tmp_path, ""))
        assert len(t) == 0
        assert t.max_height == 0.0

    def test_order_violation(self, tmp_path):
        with pytest.raises(ValidationError):
            load_zero_table(write(tmp_path, "21.0\n14.1\n"))

    def test_order_violation_names_file_line(self, tmp_path):
        # comment and blank lines count: the out-of-order 20.0 is on line 6
        path = write(tmp_path, "# header\n14.1\n\n21.0\n# c\n20.0\n")
        with pytest.raises(ValidationError, match=r"line 6\b"):
            load_zero_table(path)

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_zero_table(write(tmp_path, "14.1\nnot-a-number\n"))

    def test_nonpositive_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_zero_table(write(tmp_path, "-3.0\n"))

    def test_roundtrip_bit_exact(self, tmp_path):
        src = write(tmp_path, "".join(f"{v:.10f}\n" for v in KNOWN_FIRST_ZEROS))
        t = load_zero_table(src)
        out = tmp_path / "copy.txt"
        dump_zero_table(t, out)
        assert out.read_text() == src.read_text()

    def test_bundled_file_matches_literature(self, zeta_table):
        got = zeta_table.ordinates[: len(KNOWN_FIRST_ZEROS)]
        assert np.allclose(got, KNOWN_FIRST_ZEROS, atol=2e-9)

    @pytest.mark.parametrize("T", [100.0, 1000.0, 2500.5, 7777.0, 10050.0])
    def test_bundled_file_misses_no_zero(self, zeta_table, T):
        # mpmath counts the zeros up to T exactly; verify count only bounds
        # |N(T) - smooth| by R(T), which a missing zero can pass
        assert mp.nzeros(T) == np.searchsorted(zeta_table.ordinates, T, "right")


class TestDirichletLoading:
    def test_csv_roundtrip(self, tmp_path):
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,3,4.25\n", "d.csv")
        t = load_zero_table(p, kind="dirichlet")
        assert t.kind == "dirichlet"
        assert t.label == CharacterLabel(7, 3)
        assert len(t) == 2

    def test_header_required(self, tmp_path):
        p = write(tmp_path, "7,3,2.5\n", "d.csv")
        with pytest.raises(ParseError, match="header"):
            load_zero_table(p, kind="dirichlet")

    def test_label_selects_group(self, tmp_path):
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,5,1.5\n7,5,9.0\n", "d.csv")
        t = load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 5))
        assert len(t) == 2
        with pytest.raises(ValidationError):
            load_zero_table(p, kind="dirichlet")  # ambiguous without a label

    def test_order_violation_names_file_line(self, tmp_path):
        # the blank line counts: the out-of-order 3.0 of group (7, 3) is on
        # line 6, after a row of another group
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,5,1.0\n\n7,3,4.0\n7,3,3.0\n",
                  "d.csv")
        with pytest.raises(ValidationError, match=r"\(7, 3\).*line 6\b"):
            load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 3))

    def test_pair_doubling(self, tmp_path):
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,3,4.25\n", "d.csv")
        t = load_zero_table(p, kind="dirichlet")
        # the zero at V = 4.25 is an endpoint hit, so the pair weighs 2 x 1/2
        assert exact_weighted_sum(t, lambda g: 1.0, 0.0, 4.25) == 3.0


class TestOneReader:
    # both formats run through one loop: each rule keeps its exception
    # class and names the 1-based file line, counting blank, comment and
    # header lines
    @pytest.mark.parametrize("kind,text,exc,line", [
        ("zeta", "# c\n14.1\n\nabc\n", ParseError, 4),
        ("zeta", "14.1\n\ninf\n", ParseError, 3),
        ("zeta", "14.1\n# c\nnan\n", ParseError, 3),
        ("zeta", "# c\n0.0\n", ParseError, 2),
        ("zeta", "14.1\n-2.5\n", ParseError, 2),
        ("zeta", "14.1\n# c\n21.0 25.0\n", ParseError, 3),
        ("dirichlet", "q,index,gamma\n\n7,3,abc\n", ParseError, 3),
        ("dirichlet", "q,index,gamma\n7,3,2.5\n\n7,3,inf\n", ParseError, 4),
        ("dirichlet", "q,index,gamma\n7,3,nan\n", ParseError, 2),
        ("dirichlet", "q,index,gamma\n7,3,2.5\n7,3,0\n", ParseError, 3),
        ("dirichlet", "q,index,gamma\n\n7,3,-1.0\n", ParseError, 3),
        ("dirichlet", "q,index,gamma\n7,3,2.5\n7,3\n", ParseError, 3),
        ("dirichlet", "q,index,gamma\n7,3,2.5,1\n", ParseError, 2),
        ("dirichlet", "q,index,gamma\n7,3,2.5\n7,5,1.0\n\n7,5,9.0\n7,3,4.0\n7,5,3.0\n",
         ValidationError, 7),
    ], ids=["zeta-text", "zeta-inf", "zeta-nan", "zeta-zero", "zeta-negative",
            "zeta-two-fields", "dir-text", "dir-inf", "dir-nan", "dir-zero",
            "dir-negative", "dir-two-fields", "dir-four-fields", "dir-order-interleaved"])
    def test_error_class_and_line(self, tmp_path, kind, text, exc, line):
        p = write(tmp_path, text, "z.csv")
        label = CharacterLabel(7, 5) if kind == "dirichlet" else None
        with pytest.raises(exc, match=rf"line {line}\b") as info:
            load_zero_table(p, kind=kind, label=label)
        if exc is ParseError:
            assert info.value.line_number == line
        assert type(info.value) is exc

    def test_parse_error_pickles(self, tmp_path):
        # args hold (message, line_number), so unpickling needs no default
        with pytest.raises(ParseError) as info:
            load_zero_table(write(tmp_path, "14.1\n\nabc\n"), kind="zeta")
        back = pickle.loads(pickle.dumps(info.value))
        assert type(back) is ParseError
        assert str(back) == str(info.value) == "line 3: not a decimal ordinate: 'abc'"
        assert back.line_number == 3

    @pytest.mark.parametrize("kind,text", [
        ("zeta", "# only a comment\n\n"),
        ("dirichlet", "q,index,gamma\n"), ("dirichlet", "q,index,gamma\n\n"),
    ])
    def test_empty_and_header_only(self, tmp_path, kind, text):
        t = load_zero_table(write(tmp_path, text, "z.csv"), kind=kind)
        assert t.kind == kind
        assert len(t) == 0 and t.max_height == 0.0
        assert t.label is None
        out = tmp_path / "copy.csv"
        dump_zero_table(t, out)
        again = load_zero_table(out, kind=kind)
        assert (again.kind, len(again), again.max_height, again.label) == (kind, 0, 0.0, None)

    def test_labelled_dirichlet_roundtrip(self, tmp_path):
        rows = ["7,3,6.0209489055", "7,5,4.1354185622", "7,3,9.5549063941",
                "7,5,8.3421596017", "7,3,12.5345729021"]
        p = write(tmp_path, "q,index,gamma\n" + "\n".join(rows) + "\n", "d.csv")
        t = load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 3))
        out = tmp_path / "copy.csv"
        dump_zero_table(t, out)
        again = load_zero_table(out, kind="dirichlet", label=CharacterLabel(7, 3))
        assert again.label == t.label == CharacterLabel(7, 3)
        assert again.ordinates.tobytes() == t.ordinates.tobytes()
        assert again.max_height == t.max_height == 12.5345729021
        assert out.read_text().splitlines()[1:] == [rows[0], rows[2], rows[4]]

    @pytest.mark.parametrize("label", [CharacterLabel(7, 1), CharacterLabel(11, 2)])
    def test_missing_group_names_request_and_groups(self, tmp_path, label):
        # such a label once loaded an empty table
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,5,1.5\n7,5,9.0\n", "d.csv")
        with pytest.raises(ValidationError) as info:
            load_zero_table(p, kind="dirichlet", label=label)
        msg = str(info.value)
        assert f"({label.q}, {label.index})" in msg
        assert "(7, 3), (7, 5)" in msg

    def test_label_on_header_only_file_fails(self, tmp_path):
        p = write(tmp_path, "q,index,gamma\n", "d.csv")
        with pytest.raises(ValidationError, match="none"):
            load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 3))

    def test_several_groups_without_label_lists_them(self, tmp_path):
        p = write(tmp_path, "q,index,gamma\n7,3,2.5\n7,5,1.5\n", "d.csv")
        with pytest.raises(ValidationError, match=r"2 character groups \(\(7, 3\), \(7, 5\)\)"):
            load_zero_table(p, kind="dirichlet")


class TestWeightedSums:
    def test_single_zero_window(self, zeta_table_small):
        got = exact_weighted_sum(zeta_table_small, lambda t: 1.0 / t, 14.0, 15.0)
        assert got == pytest.approx(1.0 / 14.134725142, rel=1e-9)

    def test_empty_range(self, zeta_table_small):
        assert exact_weighted_sum(zeta_table_small, lambda t: 1.0, 20.0, 20.0) == 0.0

    def test_count_to_100(self, zeta_table_small):
        assert exact_weighted_sum(zeta_table_small, lambda t: 1.0, 0.0, 100.0) == 29.0

    def test_endpoint_half_weight(self, zeta_table_small):
        g1 = float(zeta_table_small.ordinates[0])
        half = exact_weighted_sum(zeta_table_small, lambda t: 1.0, g1, g1)
        # an exact endpoint hit carries weight 1/2
        assert half == pytest.approx(0.5)

    def test_coverage_error(self, zeta_table_small):
        with pytest.raises(CoverageError):
            exact_weighted_sum(zeta_table_small, lambda t: 1.0, 0.0,
                               zeta_table_small.max_height + 1.0)

    @given(st.floats(min_value=15.0, max_value=95.0))
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, zeta_table_small, split):
        phi = lambda t: 1.0 / t
        if np.any(zeta_table_small.ordinates == split):
            return
        whole = exact_weighted_sum(zeta_table_small, phi, 10.0, 100.0)
        left = exact_weighted_sum(zeta_table_small, phi, 10.0, split)
        right = exact_weighted_sum(zeta_table_small, phi, split, 100.0)
        assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-12)

    def test_monotone_in_v(self, zeta_table_small):
        phi = lambda t: 1.0 / (1.0 + t)
        vals = [exact_weighted_sum(zeta_table_small, phi, 0.0, v)
                for v in (20.0, 40.0, 60.0, 80.0, 100.0)]
        assert vals == sorted(vals)


class TestOmega:
    def _table(self, tmp_path, gammas, q=9857, index=2):
        lines = "q,index,gamma\n" + "".join(f"{q},{index},{g}\n" for g in gammas)
        p = tmp_path / "d.csv"
        p.write_text(lines)
        return load_zero_table(p, kind="dirichlet", label=CharacterLabel(q, index))

    def test_matches_weighted_sum(self, tmp_path):
        t = self._table(tmp_path, [0.7, 3.5, 42.0, 199.0, 200.0])
        direct = exact_weighted_sum(t, lambda g: (0.25 + g * g) ** -0.5, 0.0, 200.0)
        assert omega_low_sum(t) == pytest.approx(direct, rel=1e-14)

    def test_empty_with_declared_height(self):
        t = ZeroTable(kind="dirichlet", ordinates=np.array([]), max_height=250.0,
                      label=CharacterLabel(9857, 2))
        assert omega_low_sum(t) == 0.0

    def test_coverage(self, tmp_path):
        t = self._table(tmp_path, [0.7, 3.5])
        with pytest.raises(CoverageError):
            omega_low_sum(t)

    def test_zeta_rejected(self, zeta_table_small):
        with pytest.raises(DomainError):
            omega_low_sum(zeta_table_small)


class TestValidation:
    def test_label_coprimality(self):
        with pytest.raises(ValidationError):
            CharacterLabel(9, 3)

    def test_dirichlet_zeros_need_a_label(self):
        # dump_zero_table once wrote such a table as 0,0,gamma rows, which
        # load_zero_table rejects
        with pytest.raises(ValidationError, match="label"):
            ZeroTable(kind="dirichlet", ordinates=np.array([1.5, 2.5]), max_height=2.5)

    def test_zeta_table_takes_no_label(self):
        # dump_zero_table writes a zeta table without its label, so it would not round-trip
        with pytest.raises(ValidationError, match="label"):
            ZeroTable("zeta", np.array([14.1]), 14.1, label=CharacterLabel(7, 3))

    def test_table_invariants(self):
        with pytest.raises(ValidationError):
            ZeroTable(kind="zeta", ordinates=np.array([2.0, 1.0]), max_height=2.0)
        with pytest.raises(ValidationError):
            ZeroTable(kind="zeta", ordinates=np.array([-1.0]), max_height=1.0)
        with pytest.raises(ValidationError):
            ZeroTable(kind="nope", ordinates=np.array([1.0]), max_height=1.0)
        # the loader rejects inf and nan line by line; so does the constructor
        for ordinates, height in [([14.1, np.inf], np.inf), ([], math.nan),
                                  ([math.nan], 1.0), ([14.1], np.inf)]:
            with pytest.raises(ValidationError, match="finite"):
                ZeroTable("zeta", np.array(ordinates), height)


# ---------------------------------------------------------------------------
# The per-line loader as it stood before load_zero_table read whole files
# with numpy, frozen as the reference: on every file drawn below the loader
# must agree with it, by array bytes and label or by exception class,
# message and line number.

def _reference_zeta_rows(fh):
    for i, line in enumerate(fh, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield i, None, line


def _reference_dirichlet_rows(fh):
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["q", "index", "gamma"]:
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


def reference_load(path, kind, label=None):
    groups = {}
    with open(path, newline="") as fh:
        rows = _reference_zeta_rows if kind == "zeta" else _reference_dirichlet_rows
        for i, key, text in rows(fh):
            try:
                v = float(text)
            except ValueError:
                raise ParseError(f"not a decimal ordinate: {text!r}", line_number=i)
            if not 0.0 < v < math.inf:
                raise ParseError(f"ordinate must be a positive real: {text!r}", line_number=i)
            group = groups.setdefault(key, [])
            if group and v <= group[-1]:
                where = "" if key is None else f" for group {key}"
                raise ValidationError(f"ordinates{where} not strictly ascending at line {i}")
            group.append(v)
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
    ords = np.array(groups.get(key, []), dtype=np.float64)
    return ZeroTable(kind, ords, float(ords[-1]) if ords.size else 0.0, label)


def outcome(load, path, kind, label):
    """What a reader makes of a file: the table's bytes and label, or the
    error's class, message and line number."""
    try:
        t = load(path, kind, label)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return t.kind, t.ordinates.tobytes(), t.max_height, t.label


GROUPS = [(7, 3), (7, 5), (5, 2), (11, 2)]
CORRUPTIONS = {
    "not a number": ["abc", "1.2.3", "--5", "", "0x1p4"],
    "nan or inf": ["nan", "inf", "-inf", "Infinity", "NaN", "1e999"],
    "not positive": ["0", "0.0", "-0.0", "-2.5", "1e-400"],
    "two tokens": ["14.5 15.5", "1\t2"],
}


def _fmt(v, style):
    return (repr(v), f"{v:.10f}", f"{v:.6e}", f"  {v!r}\t")[style]


@st.composite
def zero_files(draw):
    """(kind, file text, label): a zeta or dirichlet file, valid or with one
    corrupted line, among blank (and, for zeta, comment) lines."""
    kind = draw(st.sampled_from(["zeta", "dirichlet"]))
    groups = GROUPS[:draw(st.integers(1, 3))] if kind == "dirichlet" else [None]
    rows = []
    for key in groups:
        values = sorted(set(draw(st.lists(
            st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False), max_size=8))))
        rows += [(key, v) for v in values]
    rows = draw(st.permutations(rows)) if kind == "dirichlet" else rows
    # re-sort within each group, so each group ascends in file order
    by_key = {key: iter(sorted(v for k, v in rows if k == key)) for key in groups}
    rows = [(key, next(by_key[key])) for key, _ in rows]
    lines = []
    for key, v in rows:
        text = _fmt(v, draw(st.integers(0, 3)))
        lines.append(text if key is None else f"{key[0]},{key[1]},{text}")
    fillers = ["", "   ", "\t"] + (["# comment", "  # indented, 1.5"] if kind == "zeta" else [])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(fillers)))
    what = draw(st.sampled_from(["valid", "not a number", "nan or inf", "not positive",
                                 "out of order", "field count", "label", "two tokens"]))
    key = draw(st.sampled_from(groups))
    prefix = "" if key is None else f"{key[0]},{key[1]},"
    if what == "out of order":
        # a repeat of one of the group's ordinates, or two equal lines
        values = [v for k, v in rows if k == key]
        bad = [prefix + repr(draw(st.sampled_from(values)))] if values else [prefix + "2.0"] * 2
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = bad
    elif what in CORRUPTIONS:
        lines.insert(draw(st.integers(0, len(lines))),
                     prefix + draw(st.sampled_from(CORRUPTIONS[what])))
    elif what == "field count" and kind == "dirichlet":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["7,3", "7,3,2.5,1", "7", "7,3,2.5,"])))
    elif what == "label" and kind == "dirichlet":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["7.0,3,2.5", "x,3,2.5", "7,3.5,2.5", ",3,2.5"])))
    if kind == "dirichlet":
        lines.insert(0, draw(st.sampled_from(["q,index,gamma", "Q, Index ,GAMMA"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    label = None
    if kind == "dirichlet" and draw(st.booleans()):
        label = CharacterLabel(*draw(st.sampled_from(GROUPS)))
    return kind, text, label


class TestLoaderOracle:
    @given(zero_files())
    @example(("zeta", "14.5 15.5\n21.0 22.0\n", None))  # every line two numbers
    @example(("zeta", "# c\n14.5 # c\n", None))
    @example(("dirichlet", "q,index,gamma\n7,3,2.5\n \n7,3,2.5\n", None))
    @example(("dirichlet", "q,index,gamma\n\"7\",3,2.5\n7,3,1_0\n", CharacterLabel(7, 3)))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_reader(self, tmp_path_factory, case):
        kind, text, label = case
        path = tmp_path_factory.getbasetemp() / "oracle.txt"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert outcome(load_zero_table, path, kind, label) == \
            outcome(reference_load, path, kind, label)

    @pytest.mark.parametrize("name", ["zeta_zeros.txt", "zeta_zeros_first100.txt"])
    def test_bundled_tables_match_reference_reader(self, name):
        path = DATA_DIR / name
        assert outcome(load_zero_table, path, "zeta", None) == \
            outcome(reference_load, path, "zeta", None)

    def test_plain_zeta_file_takes_one_numpy_parse(self, tmp_path):
        # the line reader serves only zeta files the tokenizer refuses or
        # that break a rule; a plain zeta file is read by numpy alone
        groups = zeros_module._parse_whole(write(tmp_path, "14.5\n\n21.0\n"))
        assert list(groups) == [None] and groups[None].tolist() == [14.5, 21.0]

    def test_peak_memory_on_bundled_table(self):
        # the per-line reader peaked near 491 KB; a whole-file list of line
        # strings would hold about 3.5 MB
        load_zero_table(ZEROS_FILE, kind="zeta")
        tracemalloc.start()
        try:
            load_zero_table(ZEROS_FILE, kind="zeta")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


# ---------------------------------------------------------------------------
# exact_weighted_sum calls phi once on an array; the scalar loop it replaced
# is the reference, compared by float.hex.

def reference_sum(table, phi, U, V):
    ords = table.ordinates
    sel = ords[np.searchsorted(ords, U, side="left"):np.searchsorted(ords, V, side="right")]
    if sel.size == 0:
        return 0.0
    weights = np.ones(sel.size)
    weights[sel == U] = 0.5
    weights[sel == V] = 0.5
    total = math.fsum(w * phi(g) for w, g in zip(weights, sel))
    return total * 2.0 if table.kind == "dirichlet" else total


CANONICAL = [weight_inverse(), weight_inverse_square(), weight_quarter_sqrt()]


def _ranges(ords, rng, n):
    """n seeded ranges inside the table, n with U or V (or both) on an
    ordinate, and n empty ones between two neighbouring ordinates."""
    top = float(ords[-1])
    out = [tuple(sorted(rng.uniform(0.0, top, 2).tolist())) for _ in range(n)]
    for _ in range(n):
        i, j = sorted(rng.integers(0, ords.size, 2).tolist())
        out += [(float(ords[i]), float(ords[j])), (float(ords[i]), top),
                (0.5, float(ords[j])), (float(ords[i]), float(ords[i]))]
        k = int(rng.integers(0, ords.size - 1))
        mid = 0.5 * (float(ords[k]) + float(ords[k + 1]))
        out.append((mid, mid))
    return out


class TestSumsBitIdentical:
    @pytest.mark.parametrize("kind", ["zeta", "dirichlet"])
    def test_against_scalar_fsum(self, zeta_table, kind):
        ords = zeta_table.ordinates[:3000]
        table = ZeroTable(kind, ords, float(ords[-1]),
                          CharacterLabel(7, 3) if kind == "dirichlet" else None)
        rng = np.random.default_rng(2701)
        phis = [w.value for w in CANONICAL] + [lambda t: 1.0, lambda t: 1.0 / (1.0 + t)]
        for U, V in _ranges(ords, rng, 20):
            for phi in phis:
                got = exact_weighted_sum(table, phi, U, V)
                assert float(got).hex() == float(reference_sum(table, phi, U, V)).hex()

    def test_phi_sees_the_table_unchanged(self, zeta_table_small):
        # phi may hand back its argument; halving an endpoint term must not
        # write into the table
        before = zeta_table_small.ordinates.copy()
        g1 = float(before[0])
        assert exact_weighted_sum(zeta_table_small, lambda t: t, g1, 30.0) == \
            math.fsum([0.5 * g1, *before[1:3].tolist()])
        assert zeta_table_small.ordinates.tobytes() == before.tobytes()

    @pytest.mark.parametrize("weight", CANONICAL, ids=lambda w: w.name)
    def test_canonical_value_on_array_equals_value_on_each_float(self, zeta_table, weight):
        rng = np.random.default_rng(2702)
        ts = np.concatenate([zeta_table.ordinates, rng.uniform(5.0 / 7.0, 2e4, 2000),
                             [5.0 / 7.0, 2.0 * math.pi, 1e-3, 1e8]])
        on_array = weight.value(ts)
        assert on_array.dtype == np.float64 and on_array.shape == ts.shape
        assert [v.hex() for v in on_array.tolist()] == \
            [float(weight.value(t)).hex() for t in ts.tolist()]
