"""Text/JSON serialization round-trips and parse diagnostics."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_SIGMA, reference_format_sigma
from sudogen import (
    MatrixParseError,
    RandomSource,
    SigmaMatrix,
    decompose,
    format_layers,
    format_perm,
    format_pi,
    format_sigma,
    format_sudoku,
    gen_perm_direct,
    gen_pi_direct,
    gen_sudoku,
    parse_binary_matrix,
    parse_cells,
    parse_layers,
    parse_perm,
    parse_pi,
    perm_json,
    phi,
    pi_json,
    sigma_json,
    sudoku_json,
)
from sudogen import formats
from sudogen.formats import _read_layers

EXAMPLE = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]


class TestPerm:
    def test_format(self):
        assert format_perm([3, 1, 2]) == "3,1,2"
        assert format_perm([1]) == "1"

    def test_parse(self):
        assert parse_perm("3,1,2") == [3, 1, 2]
        assert parse_perm(" 3 , 1 , 2 \n") == [3, 1, 2]

    def test_round_trip(self):
        for p in ([1], [2, 1], [5, 3, 1, 2, 4]):
            assert parse_perm(format_perm(p)) == p

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_perm("")
        with pytest.raises(MatrixParseError):
            parse_perm("  \n \n")

    def test_multiple_lines_rejected(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_perm("1,2\n2,1")
        assert exc_info.value.line == 2

    def test_bad_token_position(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_perm("1,x,3")
        assert exc_info.value.line == 1
        assert exc_info.value.token == 2
        assert "line 1, token 2" in str(exc_info.value)

    def test_empty_field(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_perm("1,,3")
        assert exc_info.value.token == 2

    @given(st.lists(st.integers(min_value=-999, max_value=999), min_size=1, max_size=20))
    @settings(max_examples=80)
    def test_round_trip_any_ints(self, values):
        assert parse_perm(format_perm(values)) == values


class TestPi:
    def test_round_trip(self):
        rows = [[1, 2], [2, 1], [1, 2], [2, 1]]
        assert parse_pi(format_pi(rows)) == rows

    def test_round_trip_generated(self):
        src = RandomSource(31)
        for n in (1, 2, 3, 5):
            rows = gen_pi_direct(n, src)
            assert parse_pi(format_pi(rows)) == rows

    def test_blank_lines_skipped(self):
        assert parse_pi("1,2\n\n2,1\n\n1,2\n2,1\n") == [
            [1, 2],
            [2, 1],
            [1, 2],
            [2, 1],
        ]

    def test_diagnostics_use_original_line_numbers(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_pi("1,2\n\n2,oops\n")
        assert exc_info.value.line == 3
        assert exc_info.value.token == 2

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_pi("\n\n")


class TestSigma:
    def test_format(self):
        m = phi([[1, 2], [1, 2], [1, 2], [1, 2]])
        text = format_sigma(m)
        assert text.splitlines()[0] == "1 0 0 0"
        assert len(text.splitlines()) == 4

    def test_round_trip(self, sigma16):
        for m in sigma16:
            rows = parse_binary_matrix(format_sigma(m))
            assert SigmaMatrix.from_rows(rows).mask == m.mask

    def test_non_binary_rejected(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_binary_matrix("1 0\n0 2\n")
        assert exc_info.value.line == 2
        assert exc_info.value.token == 2

    def test_bad_token(self):
        with pytest.raises(MatrixParseError):
            parse_binary_matrix("1 0\n0 q\n")

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_binary_matrix("")


class TestSudoku:
    def test_plain_round_trip(self):
        assert parse_cells(format_sudoku(EXAMPLE)) == EXAMPLE

    def test_plain_format(self):
        assert format_sudoku([[1]]) == "1"
        assert format_sudoku(EXAMPLE).splitlines()[0] == "1 2 3 4"

    def test_pretty_has_block_gaps(self):
        text = format_sudoku(EXAMPLE, pretty=True)
        lines = text.splitlines()
        # 4 digit rows plus one separating blank line between block rows
        assert len(lines) == 5
        assert lines[2] == ""
        assert lines[0] == "1 2  3 4"

    def test_pretty_reparses_to_same_grid(self):
        assert parse_cells(format_sudoku(EXAMPLE, pretty=True)) == EXAMPLE

    def test_pretty_alignment_wide_entries(self):
        cells, _ = gen_sudoku(3, RandomSource(1))
        text = format_sudoku(cells, pretty=True)
        assert parse_cells(text) == cells
        digit_lines = [l for l in text.splitlines() if l.strip()]
        assert len(digit_lines) == 9
        assert len({len(l) for l in digit_lines}) == 1  # aligned columns

    def test_parse_diagnostics(self):
        with pytest.raises(MatrixParseError) as exc_info:
            parse_cells("1 2\n3 4x\n")
        assert exc_info.value.line == 2
        assert exc_info.value.token == 2

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_cells(" \n")


class TestLayers:
    def test_round_trip(self):
        layers = decompose(EXAMPLE)
        parsed = parse_layers(format_layers(layers))
        assert len(parsed) == 4
        assert [SigmaMatrix.from_rows(b).mask for b in parsed] == [
            m.mask for m in layers
        ]

    def test_blocks_split_on_blank_lines(self):
        text = "1 0\n0 1\n\n0 1\n1 0\n"
        assert parse_layers(text) == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]

    def test_blocks_split_without_blank_lines(self):
        # a block closes once it is square, so concatenated output works
        text = "1 0\n0 1\n0 1\n1 0\n"
        assert parse_layers(text) == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]

    def test_non_binary_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_layers("1 0\n0 3\n")

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_layers("\n  \n")


class TestJson:
    def test_perm(self):
        assert perm_json([2, 1, 3], 7) == {"n": 3, "values": [2, 1, 3], "seed": 7}

    def test_pi(self):
        rows = [[1, 2], [2, 1], [1, 2], [2, 1]]
        d = pi_json(rows, None)
        assert d == {"n": 2, "rows": rows, "seed": None}
        assert d["rows"] is not rows  # defensive copy

    def test_sigma(self):
        m = phi([[1, 2], [1, 2], [1, 2], [1, 2]])
        d = sigma_json(m, 12)
        assert d["n"] == 2
        assert d["ones"] == [[1, 1], [2, 3], [3, 2], [4, 4]]
        assert d["seed"] == 12

    def test_sudoku(self):
        d = sudoku_json(EXAMPLE, 0)
        assert d["n"] == 2
        assert d["cells"] == EXAMPLE
        assert d["seed"] == 0


@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_perm_text_round_trip_generated(n, seed):
    perm = gen_perm_direct(n, RandomSource(seed))
    assert parse_perm(format_perm(perm)) == perm


@given(
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25, deadline=None)
def test_sigma_text_round_trip_generated(n, seed):
    m = phi(gen_pi_direct(n, RandomSource(seed)))
    assert SigmaMatrix.from_rows(parse_binary_matrix(format_sigma(m))).mask == m.mask


def reference_bit_rows(text):
    """Token-by-token reading of 0/1 rows: each token must be an integer,
    then each value 0 or 1; errors give 1-based line and token."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for token_no, token in enumerate(line.split(), start=1):
            if not re.fullmatch(r"[+-]?\d+", token):
                raise MatrixParseError(f"invalid integer {token!r}", line=line_no, token=token_no)
            row.append(int(token))
        for token_no, v in enumerate(row, start=1):
            if v not in (0, 1):
                raise MatrixParseError(f"expected 0 or 1, got {v}", line=line_no, token=token_no)
        rows.append(row)
    return rows


def canonical_grid(n):
    side = n * n
    return [[(n * (r % n) + r // n + c) % side + 1 for c in range(side)] for r in range(side)]


class TestSigmaTextMatchesReference:
    def test_every_order_two_matrix(self, sigma16):
        for m in sigma16:
            assert format_sigma(m) == reference_format_sigma(m)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_seeded_orders(self, n):
        # orders 1 to 9, including sides whose rows span several machine words
        for seed in range(3):
            m = phi(gen_pi_direct(n, RandomSource(seed)))
            assert format_sigma(m) == reference_format_sigma(m)

    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=150)
    def test_random_masks(self, data, n):
        # rows with no 1, one 1 and several, and bits past n^4
        size = n**4
        ones = data.draw(st.lists(st.integers(0, size + 40), max_size=2 * n * n))
        m = SigmaMatrix(n, sum(1 << b for b in set(ones)))
        assert format_sigma(m) == reference_format_sigma(m)

    def test_one_one_rows_at_each_edge(self):
        # the spliced 1 in the first, a middle and the last column
        for n in range(1, 9):
            side = n * n
            for j in {0, side // 2, side - 1}:
                m = SigmaMatrix(n, sum(1 << (i * side + j) for i in range(side)))
                assert format_sigma(m) == reference_format_sigma(m)

    @pytest.mark.parametrize("name", MALFORMED_SIGMA)
    def test_malformed_masks(self, name):
        m = MALFORMED_SIGMA[name]
        assert format_sigma(m) == reference_format_sigma(m)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_decompose_layers(self, n):
        cells = gen_sudoku(n, RandomSource(n))[0] if n <= 3 else canonical_grid(n)
        layers = decompose(cells)
        want = "\n\n".join(map(reference_format_sigma, layers))
        # at n = 8 the texts run to 0.5 MB; pytest's diff of two such
        # strings takes tens of minutes, so only the first bad line is shown
        report = first_line_difference(format_layers(layers), want)
        assert report is None, report


    def test_layers_of_mixed_orders_and_malformed_masks(self):
        # the one-hot lines are built per side, so a side change mid-list
        # and rows with no or several 1s still format as format_sigma does
        layers = [phi(gen_pi_direct(n, RandomSource(n))) for n in (2, 3, 2, 1)]
        layers[1:1] = MALFORMED_SIGMA.values()
        want = "\n\n".join(map(reference_format_sigma, layers))
        assert format_layers(layers) == want


def first_line_difference(got: str, want: str) -> str | None:
    """None if two texts are equal, else a report of their first different line."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {i}: got {a!r}, want {b!r}"
    if len(got_lines) != len(want_lines):
        return f"got {len(got_lines)} lines, want {len(want_lines)}"
    return None


_SEPARATORS = [" ", "  ", "\t", " \t "]
_CLEAN = ["0", "1"]
_MIXED = ["0", "1", "+1", "01", "-0", "2", "x", "10", "-1"]


@st.composite
def bit_row_text(draw):
    """Lines of tokens with mixed whitespace, some clean 0/1, some not,
    with blank lines in between."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        alphabet = draw(st.sampled_from([_CLEAN, _CLEAN, _MIXED]))
        tokens = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
        parts = [draw(st.sampled_from(["", *_SEPARATORS]))]
        for token in tokens:
            parts += [token, draw(st.sampled_from(_SEPARATORS))]
        lines.append("".join(parts[:-1]) + draw(st.sampled_from(["", *_SEPARATORS])))
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        return "rows", parse(text)
    except MatrixParseError as exc:
        return "error", (str(exc), exc.line, exc.token)


@given(text=bit_row_text())
@settings(max_examples=300, deadline=None)
def test_bit_row_parsers_match_reference(text):
    expected = _outcome(reference_bit_rows, text)
    if expected == ("rows", []):
        expected = ("error", ("empty input", None, None))
    assert _outcome(parse_binary_matrix, text) == expected
    layers = _outcome(parse_layers, text)
    if layers[0] == "rows":
        layers = ("rows", [row for block in layers[1] for row in block])
    assert layers == expected


def reference_layers(text):
    """The token path of compose: every block read by parse_layers, then
    validated and packed by SigmaMatrix.from_rows."""
    return [SigmaMatrix.from_rows(block) for block in parse_layers(text)]


def _layers_outcome(read, text):
    try:
        return "layers", read(text)
    except (MatrixParseError, ValueError) as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "token", None))


def layer_texts(n, seed):
    """The text decompose writes at order n, and its spacing variants
    that keep every line one-hot: blank lines doubled, leading and
    trailing, no blank lines at all, and CRLF line ends."""
    cells = gen_sudoku(n, RandomSource(seed))[0] if n <= 3 else canonical_grid(n)
    text = format_layers(decompose(cells))
    return [
        text,
        text + "\n",
        text + "\n\n\n",
        "\n\n" + text,
        text.replace("\n\n", "\n\n\n"),
        text.replace("\n\n", "\n"),
        text.replace("\n", "\r\n") + "\r\n",
    ]


def unbuilt(side):
    raise AssertionError(f"built the one-hot lines of side {side}")


class TestLayerReader:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_written_layers_match_the_token_path(self, n):
        for text in layer_texts(n, seed=n):
            got = _layers_outcome(_read_layers, text)
            assert got[0] == "layers"
            assert got == _layers_outcome(reference_layers, text)

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_character_edits_match_the_token_path(self, data, n, seed):
        text = data.draw(st.sampled_from(layer_texts(n, seed)))
        i = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from(["0", "1", "2", " ", "\t", "\n", "\r", "+", "x", "\u0661"]))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            text = text[:i] + char + text[i + 1 :]
        elif edit == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + text[i + 1 :]
        assert _layers_outcome(_read_layers, text) == _layers_outcome(reference_layers, text)

    def test_order_eight_edits_match_the_token_path(self):
        text = layer_texts(8, seed=0)[0]
        lines = text.split("\n")
        edits = [
            text[:1] + "2" + text[2:],  # first token of the first line
            text[:-1] + "x",  # last token of the last line
            text[:-2] + "1 1",  # a row with two 1s, at the end
            "\n".join(lines[:64] + [lines[0]] + lines[65:]),  # a repeated column in layer 2
            "\n".join(lines[:-1]),  # the last layer one row short
            "\n".join(lines[:64] + ["  "] + lines[65:]),  # a whitespace-only separator
            text.replace(" ", "\t"),  # tab-separated
            "\n".join(lines[:130]),  # three layers, the third cut short
        ]
        for edited in edits:
            assert _layers_outcome(_read_layers, edited) == _layers_outcome(reference_layers, edited)

    @given(text=bit_row_text())
    @settings(max_examples=300, deadline=None)
    def test_any_bit_rows_match_the_token_path(self, text):
        assert _layers_outcome(_read_layers, text) == _layers_outcome(reference_layers, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "1",
            "1 0 0\n0 1 0\n0 0 1",  # side 3
            "1 0 0 0\n0 0 1 0\n0 1 0 0",  # a partial last block
            "1 0 0 0\n0 0 1 0\n\n0 1 0 0\n0 0 0 1",  # a block closed early
            "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1",  # two 1s in one 2 x 2 block
            "0 0 1 0" + "\n0 0 1 0" * 3,  # one column four times
            "1 0 0 0\n0 0 1 0\n1 0 0 0\n0 0 1 0",  # repeated columns in distinct blocks
            "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",  # a first line wider than the text holds
        ],
    )
    def test_edge_texts_match_the_token_path(self, text):
        assert _layers_outcome(_read_layers, text) == _layers_outcome(reference_layers, text)

    def test_no_lines_are_built_for_a_first_line_wider_than_the_text_holds(self, monkeypatch):
        # side 10^4 would build 10^4 one-hot lines of 2 * 10^4 - 1 characters
        monkeypatch.setattr(formats, "_one_hot_lines", unbuilt)
        text = "1" + " 0" * (10**4 - 1)
        assert _layers_outcome(_read_layers, text) == _layers_outcome(reference_layers, text)

    def test_canonical_text_skips_from_rows_and_other_text_does_not(self, monkeypatch):
        calls = []
        from_rows = SigmaMatrix.from_rows

        def spy(rows):
            calls.append(len(rows))
            return from_rows(rows)

        monkeypatch.setattr(SigmaMatrix, "from_rows", staticmethod(spy))
        text = layer_texts(8, seed=0)[0]
        layers = _read_layers(text)
        assert len(layers) == 64 and calls == []
        assert _read_layers(text.replace(" ", "\t")) == layers
        assert calls == [64] * 64


def reference_cell_rows(text):
    """Token-by-token reading of integer rows, errors with 1-based places."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for token_no, token in enumerate(line.split(), start=1):
            if not re.fullmatch(r"[+-]?\d+", token):
                raise MatrixParseError(f"invalid integer {token!r}", line=line_no, token=token_no)
            row.append(int(token))
        rows.append(row)
    if not rows:
        raise MatrixParseError("empty input")
    return rows


class TestCellRows:
    @pytest.mark.parametrize(
        "text",
        [
            "+1",
            "-0",
            "1_0",
            "\u0663",  # ARABIC-INDIC DIGIT THREE
            "\u00b2",  # SUPERSCRIPT TWO
            "00012",
            "1 2 3\n4 +5 6",
            "1 2 3\n4 5 -6",
            "1 2\n3 1_0",
            "7 \u0663\u0661 00012\n\u00b2 1",
            "1 2\t3\n\n4 5 6 ",
            "1 2 x",
        ],
    )
    def test_matches_the_token_path(self, text):
        assert _outcome(parse_cells, text) == _outcome(reference_cell_rows, text)

    def test_decimal_strings_are_the_unsigned_integer_tokens(self):
        # parse_cells reads a line whole when its tokens joined are
        # str.isdecimal(); that must be the set of one-character tokens
        # the regex path accepts without a sign, in all of Unicode
        digit = re.compile(r"\d")
        mismatched = [
            i for i in range(0x110000) if chr(i).isdecimal() != bool(digit.fullmatch(chr(i)))
        ]
        assert mismatched == []
