"""Element, configuration, sample-file, and lamp-table parsing."""

from __future__ import annotations

import random

import pytest

from wreathwalls import CapExceededError, LampGroup
from wreathwalls.grammar import (
    ParseError,
    load_lamp_table,
    load_sample_file,
    parse_config,
    parse_element,
    parse_int,
    parse_lamp_table,
    parse_sample_text,
    parse_word,
)

from support import format_lamp_table, random_element, s3, z2, z3

# Characters at which str.splitlines() breaks but a text file does not.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestParseWord:
    def test_identity(self):
        assert parse_word("1", 2).is_identity

    def test_letters(self):
        w = parse_word("aBa", 2)
        assert w.letters == "aBa"

    def test_reduces_on_parse(self):
        assert parse_word("aA", 2).is_identity
        assert str(parse_word("abBA", 2)) == "1"

    def test_rejects_out_of_rank_letters(self):
        with pytest.raises(ParseError):
            parse_word("c", 2)
        parse_word("c", 3)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_word("", 2)
        with pytest.raises(ParseError):
            parse_word("a b", 2)
        with pytest.raises(ParseError):
            parse_word("2", 2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_word("ab!", 2)
        assert info.value.position == 2

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            parse_word("a", 0)


class TestParseConfig:
    def test_empty(self):
        assert parse_config("{}", z2(), 2).is_empty

    def test_entries(self):
        c = parse_config("{1:1,a:1}", z2(), 2)
        assert dict(c.entries).get(parse_word("1", 2), 0) == 1
        assert dict(c.entries).get(parse_word("a", 2), 0) == 1

    def test_entry_order_is_normalized(self):
        assert str(parse_config("{ab:1,1:1}", z2(), 2)) == "{1:1,ab:1}"

    def test_rejects_identity_lamp_id(self):
        with pytest.raises(ParseError):
            parse_config("{a:0}", z2(), 2)

    def test_rejects_out_of_range_lamp_id(self):
        with pytest.raises(ParseError):
            parse_config("{a:2}", z2(), 2)
        parse_config("{a:2}", z3(), 2)

    @pytest.mark.parametrize("length", [4300, 5000])
    def test_long_lamp_ids_are_out_of_range(self, length):
        # int() converts at most 4,300 digits by default; past that the id is still just large.
        nines = "9" * length
        with pytest.raises(ParseError) as info:
            parse_element(f"{{a:{nines}}}|1", z2(), 2)
        assert str(info.value) == f"lamp id {nines} outside 1..1 at position 3"
        with pytest.raises(ParseError) as info:
            parse_element(f"{{a:{'0' * length}}}|1", z2(), 2)
        assert str(info.value) == "lamp id 0 is the identity and may not appear at position 3"
        with pytest.raises(ParseError) as info:
            parse_sample_text(f"{{}}|1\n{{a:{nines}}}|1\n", z2(), 2)
        assert str(info.value) == f"line 2: lamp id {nines} outside 1..1 at position 3"

    def test_leading_zeros_are_dropped_from_lamp_ids(self):
        with pytest.raises(ParseError, match="^lamp id 7 outside 1..2 at position 3$"):
            parse_element("{a:007}|1", z3(), 2)
        assert str(parse_element(f"{{a:{'0' * 5000}1}}|1", z2(), 2)) == "{a:1}|1"

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ParseError):
            parse_config("{a:1,a:1}", z2(), 2)
        # Duplicates are syntactic: aA names the same position as 1.
        with pytest.raises(ParseError):
            parse_config("{1:1,aA:1}", z2(), 2)

    def test_rejects_malformed(self):
        for bad in ("{", "{a}", "{a:}", "{a:1", "{a:1,}", "a:1}", "{:1}"):
            with pytest.raises(ParseError):
                parse_config(bad, z2(), 2)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
    def test_lamp_ids_are_ascii_digits(self, digit):
        # Superscript two, Arabic-Indic three, fullwidth one: str.isdigit() holds for all three.
        with pytest.raises(ParseError) as info:
            parse_element(f"{{a:{digit}}}|1", z3(), 2)
        assert info.value.position == 3
        assert str(info.value) == f"expected a lamp id, found {digit!r} at position 3"
        with pytest.raises(ParseError, match="line 2: expected a lamp id"):
            parse_sample_text(f"{{}}|1\n{{a:{digit}}}|1\n", z3(), 2)


class TestParseElement:
    def test_identity(self):
        e = parse_element("{}|1", z2(), 2)
        assert e.is_identity

    def test_full_literal(self):
        e = parse_element("{1:1,a:1}|ab", z2(), 2)
        assert str(e.position) == "ab"
        assert [str(p) for p in e.lamps.support] == ["1", "a"]

    def test_rejects_missing_pieces(self):
        for bad in ("", "{}", "|a", "{}|", "{}|a|", "{}a"):
            with pytest.raises(ParseError):
                parse_element(bad, z2(), 2)

    def test_round_trip_is_identity_on_random_elements(self):
        rng = random.Random(313)
        for lamps in (z2(), z3(), s3()):
            for _ in range(300):
                e = random_element(rng, lamps, 2, max_lamps=3, max_len=4)
                assert parse_element(str(e), lamps, 2) == e

    def test_parse_then_format_canonicalizes(self):
        text = "{ba:1,1:1}|aA"
        assert str(parse_element(text, z2(), 2)) == "{1:1,ba:1}|1"


class TestSampleFiles:
    def test_comments_and_blanks(self):
        text = """
        # a header comment
        {}|1
        {a:1}|b  # trailing comment

        {}|ab
        """
        elements = parse_sample_text(text, z2(), 2)
        assert [str(e) for e in elements] == ["{}|1", "{a:1}|b", "{}|ab"]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as info:
            parse_sample_text("{}|1\n{a:9}|1\n", z2(), 2)
        assert "line 2" in str(info.value)

    def test_error_names_its_line_and_position_once(self):
        with pytest.raises(ParseError) as info:
            parse_sample_text("{}|1\n{a:9}|b\n", z2(), 2)
        assert str(info.value) == "line 2: lamp id 9 outside 1..1 at position 3"
        assert info.value.position == 3

    @pytest.mark.parametrize("mark", NOT_LINE_BREAKS)
    def test_lines_end_only_at_text_line_breaks(self, mark):
        text = f"{{}}|1 # page{mark}break\r{{}}|a\r\n{{}}|b\n"
        assert [str(e) for e in parse_sample_text(text, z2(), 2)] == ["{}|1", "{}|a", "{}|b"]
        with pytest.raises(ParseError, match="^line 1: unexpected trailing"):
            parse_sample_text(f"{{}}|1{mark}{{}}|a\n", z2(), 2)

    def test_load_sample_file(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("{}|1\n{1:1}|a\n")
        elements = load_sample_file(path, z2(), 2)
        assert len(elements) == 2


class TestParseInt:
    def test_ascii_decimal_with_optional_minus(self):
        texts = ("0", "7", "007", "-1", "-0", "-007", "0" * 5000 + "7", "-" + "0" * 5000)
        assert [parse_int(t) for t in texts] == [0, 7, 7, -1, 0, -7, 7, 0]

    @pytest.mark.parametrize("text", ["", "-", "+1", "1_0", " 1", "1 ", "--1", "1.0", "\u0661"])
    def test_rejects_what_int_would_also_read(self, text):
        with pytest.raises(ValueError, match="invalid int value"):
            parse_int(text)


class TestLampTables:
    def test_parse_cyclic_table(self):
        g = parse_lamp_table("order 2\n0 1\n1 0\n")
        assert g == z2()

    def test_round_trip(self):
        for g in (z2(), z3(), s3()):
            assert parse_lamp_table(format_lamp_table(g)) == g

    def test_rejects_bad_headers(self):
        for bad in ("", "order\n", "order two\n", "2\n0 1\n1 0\n"):
            with pytest.raises(ValueError):
                parse_lamp_table(bad)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            parse_lamp_table("order 2\n0 1\n")

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            parse_lamp_table("order 2\n0 x\n1 0\n")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0662"])
    def test_header_and_rows_are_ascii_digits(self, digit):
        # Superscript two fails int(); Arabic-Indic two would be read as 2.
        with pytest.raises(ValueError, match="must start with 'order k'"):
            parse_lamp_table(f"order {digit}\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="line 3: table entries must be integers"):
            parse_lamp_table("order 2\n0 1\n1 0\n".replace("1 0", f"{digit} 0"))
        with pytest.raises(ValueError, match="line 2: table entries must be integers"):
            parse_lamp_table("order 2\n0 \u0661\n1 0\n")

    @pytest.mark.parametrize("field", ["+1", "1_0"])
    def test_rows_are_ascii_integers(self, field):
        # int() reads "+1" as 1 and "1_0" as 10.
        with pytest.raises(ValueError, match="line 2: table entries must be integers"):
            parse_lamp_table(f"order 2\n0 {field}\n1 0\n")

    def test_negative_row_entry_is_out_of_range(self):
        with pytest.raises(ValueError, match="table entry -1 outside 0..1"):
            parse_lamp_table("order 2\n0 -1\n1 0\n")

    def test_rejects_non_group_tables(self):
        with pytest.raises(ValueError):
            parse_lamp_table("order 2\n0 1\n1 1\n")

    def test_refuses_above_cap_from_the_header(self):
        # Only the header is present: the refusal must come before the row count check.
        with pytest.raises(CapExceededError, match="lamp table check of order 300"):
            parse_lamp_table("order 300\n")
        with pytest.raises(CapExceededError):
            parse_lamp_table(format_lamp_table(s3()), cap=215)
        assert parse_lamp_table(format_lamp_table(s3()), cap=216) == s3()

    @pytest.mark.parametrize("length", [4300, 5000])
    def test_long_header_is_refused_by_the_cap(self, length):
        # Past int()'s 4,300-digit limit the order is above any cap a flag can give.
        nines = "9" * length
        with pytest.raises(CapExceededError) as info:
            parse_lamp_table(f"order {nines}\n")
        assert str(info.value) == (
            f"lamp table check of order {nines} would enumerate more than 1000000 elements,"
            " above the cap of 1000000"
        )
        assert (info.value.predicted is None) == (length > 4300)

    def test_leading_zeros_are_dropped_from_the_header(self):
        assert parse_lamp_table(f"order {'0' * 5000}2\n0 1\n1 0\n") == z2()

    def test_load_lamp_table(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(format_lamp_table(s3()))
        assert load_lamp_table(path) == s3()

    def test_load_refuses_from_the_header_before_reading_the_rows(self, tmp_path):
        # The bytes after the header are not even text; they must never be decoded.
        path = tmp_path / "table.txt"
        path.write_bytes(b"order 300\n" + b"\xff" * 4096)
        with pytest.raises(CapExceededError, match="lamp table check of order 300"):
            load_lamp_table(path)

    def test_load_reads_crlf_and_rejects_undecodable_rows(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_bytes(b"\n\norder 2\n0 1\n1 \xff\n")
        with pytest.raises(ValueError, match="integers"):
            load_lamp_table(path)
        path.write_bytes(b"\n\norder 2\r\n0 1\r\n1 0\r\n")
        assert load_lamp_table(path) == LampGroup.cyclic(2)

    @pytest.mark.parametrize("mark", NOT_LINE_BREAKS)
    def test_rows_end_only_at_text_line_breaks(self, mark):
        assert parse_lamp_table(f"order 2\r0{mark}1\r\n1 0\n") == z2()
        with pytest.raises(ValueError, match="expected 2 table rows, got 1"):
            parse_lamp_table(f"order 2\n0 1{mark}1 0\n")

    @pytest.mark.parametrize("mark", [m for m in NOT_LINE_BREAKS if m.isascii()])
    def test_parse_and_load_split_rows_alike(self, tmp_path, mark):
        path = tmp_path / "table.txt"
        path.write_bytes(f"order 2\n0{mark}1\n1 0\n".encode())
        assert parse_lamp_table(path.read_text()) == load_lamp_table(path) == z2()

    def test_format_is_loadable_text(self):
        text = format_lamp_table(z3())
        assert text == "order 3\n0 1 2\n1 2 0\n2 0 1\n"
        assert isinstance(LampGroup.cyclic(3), LampGroup)
