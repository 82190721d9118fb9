import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pntap.errors import CoverageError, DomainError, ParseError, ValidationError
from pntap.zeros import (CharacterLabel, ZeroTable, dump_zero_table,
                         exact_weighted_sum, load_zero_table, omega_low_sum)

from conftest import KNOWN_FIRST_ZEROS


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
