"""Delimited-file loading, config parsing, and report serialization."""

from __future__ import annotations

import codecs
import csv
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsel import data_io
from proxsel.data_io import (
    MISSING_TOKENS,
    LoadResult,
    OcpRow,
    RunReport,
    SchemaMap,
    estimate_to_dict,
    load_csv,
    monte_carlo_to_dict,
    parse_config,
    read_report,
    render_table,
    write_report,
)
from proxsel.estimators import EstimationConfig, estimate_invalid_tcp
from proxsel.exceptions import (
    ConfigError,
    EmptyAfterFiltering,
    IoError,
    MissingColumn,
    ParseError,
)
from proxsel.simulation import SimConfig, run_monte_carlo

from conftest import make_exact_dataset
from oracle import load_csv_rows

SCHEMA = SchemaMap(
    outcome_column="y",
    treatment_column="d",
    tcp_columns=("z1", "z2"),
    ocp_columns=("w1",),
)


def write_rows(path, header, rows, delimiter=","):
    lines = [delimiter.join(header)]
    lines += [delimiter.join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_rows(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, (n, 5)).round(3).tolist()


class TestSchemaMap:
    def test_roles_must_be_disjoint(self):
        with pytest.raises(ConfigError) as err:
            SchemaMap("y", "y", ("z1",), ("w1",))
        assert "y" in str(err.value)

    def test_proxy_blocks_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            SchemaMap("y", "d", (), ("w1",))
        with pytest.raises(ConfigError):
            SchemaMap("y", "d", ("z1",), ())

    def test_round_trip_through_dict(self):
        schema = SchemaMap("y", "d", ("z1", "z2"), ("w1",), ("x1",))
        assert SchemaMap.from_dict(schema.to_dict()) == schema

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            SchemaMap.from_dict(
                {
                    "outcome_column": "y",
                    "treatment_column": "d",
                    "tcp_columns": ["z1"],
                    "ocp_columns": ["w1"],
                    "id_column": "i",
                }
            )
        assert "id_column" in str(err.value)

    def test_value_types_are_checked(self):
        raw = {"outcome_column": "y", "treatment_column": "d",
               "tcp_columns": "z1", "ocp_columns": ["w1"]}
        with pytest.raises(ConfigError, match="tcp_columns"):
            SchemaMap.from_dict(raw)
        with pytest.raises(ConfigError, match="outcome_column"):
            SchemaMap.from_dict({**raw, "tcp_columns": ["z1"], "outcome_column": 3})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            SchemaMap.from_dict({"outcome_column": "y"})
        assert "treatment_column" in str(err.value)


class TestLoadCsv:
    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_a_delimiter_of_other_than_one_character_is_a_config_error(
        self, tmp_path, delimiter
    ):
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], sample_rows())
        with pytest.raises(ConfigError, match=f"delimiter must be exactly one character, "
                                              f"got {delimiter!r}"):
            load_csv(str(path), SCHEMA, delimiter=delimiter)

    def test_columns_are_mapped_by_header_name(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "data.csv"
        # header order deliberately differs from the role order
        write_rows(path, ["w1", "y", "z2", "d", "z1"], rows)
        result = load_csv(str(path), SCHEMA)
        assert isinstance(result, LoadResult)
        assert result.n_rows_read == 8
        assert result.n_rows_dropped == 0
        table = np.asarray(rows)
        np.testing.assert_array_equal(result.dataset.W[:, 0], table[:, 0])
        np.testing.assert_array_equal(result.dataset.Y, table[:, 1])
        np.testing.assert_array_equal(result.dataset.Z[:, 1], table[:, 2])
        np.testing.assert_array_equal(result.dataset.D, table[:, 3])
        np.testing.assert_array_equal(result.dataset.Z[:, 0], table[:, 4])

    def test_unmapped_columns_are_ignored(self, tmp_path):
        rows = [row + ["junk"] for row in sample_rows()]
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1", "note"], rows)
        result = load_csv(str(path), SCHEMA)
        assert result.dataset.n == 8

    @pytest.mark.parametrize("blank_line", [False, True], ids=["c-parser", "row-reader"])
    def test_a_mapped_column_named_twice_is_a_parse_error(self, tmp_path, blank_line):
        # A blank line sends the file to the row-by-row reader.
        rows = [row + [9.0] for row in sample_rows()]
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1", "y"], rows)
        if blank_line:
            path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="named more than once in the header: y$") as err:
            load_csv(str(path), SCHEMA)
        assert err.value.column == "y"

    @pytest.mark.parametrize("blank_line", [False, True], ids=["c-parser", "row-reader"])
    def test_unmapped_columns_may_share_a_name(self, tmp_path, blank_line):
        rows = [row + ["a", "b"] for row in sample_rows()]
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1", "note", "note"], rows)
        if blank_line:
            path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        result = load_csv(str(path), SCHEMA)
        assert result.dataset.n == 8
        np.testing.assert_array_equal(result.dataset.Y, np.asarray(sample_rows())[:, 0])

    def test_missing_columns_listed_together(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1"], [[1, 2, 3]])
        with pytest.raises(MissingColumn) as err:
            load_csv(str(path), SCHEMA)
        assert "z2" in str(err.value) and "w1" in str(err.value)
        assert err.value.columns == ["z2", "w1"]

    def test_missing_tokens_drop_the_row(self, tmp_path):
        rows = sample_rows()
        rows[2][0] = "NA"
        rows[5][3] = ""
        for token in MISSING_TOKENS:
            assert token == token.lower()
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        result = load_csv(str(path), SCHEMA)
        assert result.n_rows_dropped == 2
        assert result.dataset.n == 6

    def test_short_rows_are_treated_as_missing(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["y,d,z1,z2,w1"]
        lines += [",".join("1.5" for _ in range(5)) for _ in range(7)]
        lines.append("1.0,2.0,3.0")  # short row
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = load_csv(str(path), SCHEMA)
        assert result.n_rows_dropped == 1
        assert result.dataset.n == 7

    def test_strict_mode_locates_parse_failures(self, tmp_path):
        rows = sample_rows()
        rows[3][1] = "forty"
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        with pytest.raises(ParseError) as err:
            load_csv(str(path), SCHEMA)
        message = str(err.value)
        assert "row 4" in message
        assert "'d'" in message
        assert "'forty'" in message
        assert (err.value.row, err.value.column) == (4, "d")

    def test_lenient_mode_drops_unparseable_rows(self, tmp_path):
        rows = sample_rows()
        rows[3][1] = "forty"
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        result = load_csv(str(path), SCHEMA, strict=False)
        assert result.n_rows_dropped == 1
        assert result.dataset.n == 7

    def test_all_rows_dropped_raises(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(
            path, ["y", "d", "z1", "z2", "w1"], [["na"] * 5 for _ in range(6)]
        )
        with pytest.raises(EmptyAfterFiltering):
            load_csv(str(path), SCHEMA)

    @pytest.mark.parametrize("cell", ["inf", "-NaN", "1e400"])
    def test_strict_mode_locates_non_finite_cells(self, tmp_path, cell):
        rows = sample_rows()
        rows[3][1] = cell
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        with pytest.raises(ParseError) as err:
            load_csv(str(path), SCHEMA)
        assert (err.value.row, err.value.column) == (4, "d")
        assert f"{cell!r} is not a finite number" in str(err.value)

    def test_lenient_mode_drops_non_finite_rows(self, tmp_path):
        rows = sample_rows()
        rows[3][1] = "+inf"
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        result = load_csv(str(path), SCHEMA, strict=False)
        assert (result.n_rows_read, result.n_rows_dropped) == (8, 1)
        assert result.dataset.n == 7

    def test_too_few_rows_for_the_schema_raise(self, tmp_path):
        # p_z + p_w + p_x + 1 = 4 rows are too few; a clean file takes the
        # C parser, a file with a dropped row the row reader.
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], sample_rows(n=4))
        with pytest.raises(EmptyAfterFiltering, match="needs more than 4"):
            load_csv(str(path), SCHEMA)
        rows = sample_rows(n=4) + [["na"] * 5]
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        with pytest.raises(EmptyAfterFiltering, match="after dropping 1 of 5"):
            load_csv(str(path), SCHEMA)
        write_rows(path, ["y", "d", "z1", "z2", "w1"], sample_rows(n=5))
        assert load_csv(str(path), SCHEMA).dataset.n == 5

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_csv(str(path), SCHEMA)

    def test_nonexistent_file_raises(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(str(tmp_path / "missing.csv"), SCHEMA)

    def test_custom_delimiter(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "data.tsv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows, delimiter=";")
        result = load_csv(str(path), SCHEMA, delimiter=";")
        assert result.dataset.n == 8

    def test_row_permutation_permutes_the_arrays(self, tmp_path):
        rows = sample_rows(n=10, seed=3)
        header = ["y", "d", "z1", "z2", "w1"]
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(a_path, header, rows)
        perm = np.random.default_rng(4).permutation(10)
        write_rows(b_path, header, [rows[i] for i in perm])
        a = load_csv(str(a_path), SCHEMA).dataset
        b = load_csv(str(b_path), SCHEMA).dataset
        np.testing.assert_array_equal(b.Y, a.Y[perm])
        np.testing.assert_array_equal(b.Z, a.Z[perm])


def load_outcome(load, path, schema, **kwargs):
    """What a loader gives back, in a form that compares bit for bit: the row
    counts and the bytes of every array, or the error with its fields."""
    try:
        result = load(str(path), schema, **kwargs)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None), getattr(exc, "columns", None))
    data = result.dataset
    arrays = (data.Y, data.D, data.Z, data.W, data.X)
    return (result.n_rows_read, result.n_rows_dropped,
            *((a.dtype, a.shape, a.tobytes()) for a in arrays))


def assert_matches_row_reader(path, schema, **kwargs):
    new = load_outcome(load_csv, path, schema, **kwargs)
    old = load_outcome(load_csv_rows, path, schema, **kwargs)
    if old[0] is not ValueError:
        assert new == old
        return
    # The row reader hands a non-finite cell, or too few complete rows, on to
    # Dataset's bare ValueError; load_csv names them.
    min_n = len(schema.all_columns()) - 1
    if "non-finite" in old[1] and kwargs.get("strict", True):
        assert new[0] is ParseError and "is not a finite number" in new[1]
        with open(path, newline="", encoding="utf-8") as handle:
            lines = list(csv.reader(handle, delimiter=kwargs.get("delimiter", ",")))
        header = [h.strip() for h in lines[0]]
        assert not math.isfinite(float(lines[new[2]][header.index(new[3])]))
    elif "non-finite" in old[1]:
        # Lenient: the rows with a non-finite cell are dropped and counted.
        assert new[0] is EmptyAfterFiltering or (isinstance(new[0], int) and new[1] >= 1)
    else:
        assert old[1].startswith("need n > p_z + p_w + p_x + 1")
        assert new[0] is EmptyAfterFiltering
        assert new[1].endswith(f"the schema needs more than {min_n}")
    if new[0] is EmptyAfterFiltering and not new[1].startswith("no complete rows"):
        assert int(new[1].split()[0]) <= min_n


DELIMITERS = (",", ";", "\t", "|", " ")

# Cells the C parser reads differently from float(), or not at all.
SPECIAL_CELLS = (
    "nan", "+nan", "-NaN", "NAN", " nan ", "inf", "-inf", "+Infinity",
    "1e400", "-1e-400", "1_0", "1__0", "\u0661\u0662", "\u0663.\u0665",
    "\xa01.5\xa0", " 2.5\t", '"1.5"', '"2,5"', '"', "forty", "0x1p3",
    "#1", "1.5.2", "1.5\x00", "\x00", "5e-324", "-0.0",
    "2.2250738585072014e-308", "1.7976931348623157e+308",
)

# Unmapped junk: the delimiters, quotes, line breaks and characters that
# only one of the two parsers treats as whitespace or a digit.
JUNK = "ab7.#_-\"'" + "".join(DELIMITERS) + "\r\n\x00\x1c\x85\xa0\u0661\u3000"


@st.composite
def missing_tokens(draw):
    token = draw(st.sampled_from(sorted(MISSING_TOKENS)))
    token = "".join(c.upper() if draw(st.booleans()) else c for c in token)
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + token + draw(pad)


repr_floats = st.one_of(
    st.floats(allow_nan=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # down to subnormals
).map(repr)
numbers = st.one_of(repr_floats, st.integers(-10**6, 10**6).map(str))


@st.composite
def csv_files(draw):
    """A delimited file, its schema and delimiter. A clean file holds only
    numbers in mapped cells, plain junk elsewhere and full rows; any other
    file mixes in missing tokens, special cells, junk, blank lines, short
    and long rows."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    schema = SchemaMap(
        "y", "d",
        tuple(f"z{j}" for j in range(draw(st.integers(1, 2)))),
        tuple(f"w{j}" for j in range(draw(st.integers(1, 2)))),
        tuple(f"x{j}" for j in range(draw(st.integers(0, 1)))),
    )
    mapped = schema.all_columns()
    header = draw(st.permutations(
        list(mapped) + [f"note{j}" for j in range(draw(st.integers(0, 2)))]
    ))
    clean = draw(st.booleans())
    if clean:
        cell = numbers
        junk = st.text("ab7.#_-", max_size=4)
        shapes = st.just("full")
        newlines = st.sampled_from(["\n", "\r\n"])
    else:
        cell = st.one_of(numbers, numbers, missing_tokens(), st.sampled_from(SPECIAL_CELLS))
        junk = st.one_of(
            st.text(JUNK, max_size=4), st.text(JUNK, max_size=3).map('"{}"'.format)
        )
        shapes = st.sampled_from(["full", "full", "full", "short", "long", "blank"])
        newlines = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(cell if name in mapped else junk) for name in header]
        shape = draw(shapes)
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(junk, min_size=1, max_size=2))
        lines.append("" if shape == "blank" else delimiter.join(row))
    newline = draw(newlines)
    ending = draw(st.sampled_from(["", newline, 2 * newline]))
    return newline.join(lines) + ending, schema, delimiter


class TestLoadCsvMatchesRowReader:
    """``load_csv`` gives what the row-by-row reader it replaced gave: the
    same bits in every array, the same row counts, the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(csv_files(), st.booleans())
    def test_generated_files(self, file, strict):
        text, schema, delimiter = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            assert_matches_row_reader(path, schema, delimiter=delimiter, strict=strict)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("cell", SPECIAL_CELLS + ("NA", " Null ", "\tnone", ""))
    def test_one_special_cell(self, tmp_path, cell, strict):
        rows = sample_rows()
        rows[3][1] = cell
        path = tmp_path / "data.csv"
        write_rows(path, ["y", "d", "z1", "z2", "w1"], rows)
        assert_matches_row_reader(path, SCHEMA, strict=strict)

    @pytest.mark.parametrize("delimiter", DELIMITERS)
    @pytest.mark.parametrize(
        "layout",
        ["blank-middle", "blank-end", "crlf", "short", "long", "quoted",
         "quoted-line-break", "junk"],
    )
    def test_line_layouts(self, tmp_path, layout, delimiter):
        header = ["note", "y", "d", "z1", "z2", "w1"]
        lines = [delimiter.join(header)] + [
            delimiter.join(["n", *map(repr, row)]) for row in sample_rows()
        ]
        newline = "\r\n" if layout == "crlf" else "\n"
        if layout == "blank-middle":
            lines.insert(4, "")
        elif layout == "blank-end":
            lines += ["", ""]
        elif layout == "short":
            lines[4] = delimiter.join(lines[4].split(delimiter)[:3])
        elif layout == "long":
            lines[4] += delimiter + "1.0" + delimiter + "extra"
        elif layout == "quoted":
            lines[4] = '"' + lines[4].replace(delimiter, '"' + delimiter + '"') + '"'
        elif layout == "quoted-line-break":
            # csv reads rows 4 and 5 as one, a plain split as two full rows
            lines[4] = '"' + lines[4]
            lines[5] = 'n"' + lines[5][1:]
        elif layout == "junk":
            lines[4] = "#\u0661\x00\xa0'" + lines[4][1:]
        path = tmp_path / "data.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        assert_matches_row_reader(path, SCHEMA, delimiter=delimiter)
        assert_matches_row_reader(path, SCHEMA, delimiter=delimiter, strict=False)

    def test_a_clean_repr_file_takes_the_c_parser(self, tmp_path, monkeypatch):
        """Written as the benchmark writes its study CSV: ``repr`` floats,
        ``\\n`` line ends, every column mapped."""
        rng = np.random.default_rng(0)
        table = rng.standard_normal((500, 22)) * np.logspace(-300, 300, 22)
        schema = SchemaMap(
            "y", "d", tuple(f"z{j + 1}" for j in range(10)),
            tuple(f"w{k + 1}" for k in range(10)),
        )
        path = tmp_path / "study.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(schema.all_columns()) + "\n")
            for row in table:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        expected = load_outcome(load_csv_rows, path, schema)

        def row_reader(*args):
            raise AssertionError("the row-by-row reader ran on a clean file")

        monkeypatch.setattr(data_io, "_read_rows", row_reader)
        assert load_outcome(load_csv, path, schema) == expected
        assert expected[:2] == (500, 0)


def marked(path):
    """A twin of the file at ``path`` that starts with a UTF-8 byte-order mark,
    as spreadsheets export; every reader takes it as if the mark were absent."""
    twin = path.with_name("marked-" + path.name)
    twin.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return twin


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "cell, counts",
        [(None, (200, 0)), ("", (200, 1)), ("forty", None)],
        ids=["clean", "blank-cell", "unparseable"],
    )
    def test_a_csv_loads_as_its_twin_without_the_mark(self, tmp_path, cell, counts):
        rows = sample_rows(200)
        if cell is not None:
            rows[7][2] = cell
        plain = tmp_path / "data.csv"
        write_rows(plain, ["y", "d", "z1", "z2", "w1"], rows)
        outcome = load_outcome(load_csv, marked(plain), SCHEMA)
        assert outcome == load_outcome(load_csv, plain, SCHEMA)
        if counts is None:
            assert outcome[:4] == (ParseError, "row 8, column 'z1': cannot parse 'forty' "
                                   "as a number", 8, "z1")
        else:
            assert outcome[:2] == counts

    def test_a_schema_parses_as_its_twin_without_the_mark(self, tmp_path):
        plain = tmp_path / "schema.json"
        plain.write_text(json.dumps(SCHEMA.to_dict()), encoding="utf-8")
        assert parse_config(str(marked(plain)), "schema") == SCHEMA


def config_file(tmp_path, text, name="config.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self, tmp_path):
        assert parse_config(config_file(tmp_path, ""), "sim") == SimConfig()
        blank = config_file(tmp_path, "  \n ")
        assert parse_config(blank, "estimation") == EstimationConfig()

    def test_no_path_gives_defaults(self):
        assert parse_config(None, "sim") == SimConfig()
        assert parse_config(None, "estimation") == EstimationConfig()
        with pytest.raises(ConfigError, match="outcome_column"):
            parse_config(None, "schema")

    def test_simulation_fields_are_applied(self, tmp_path):
        text = json.dumps({"n": 2500, "p_z": 10, "s_z": 3, "seed": 7})
        cfg = parse_config(config_file(tmp_path, text), "sim")
        assert cfg == SimConfig(n=2500, p_z=10, s_z=3, seed=7)
        # generating-process defaults stay pinned unless overridden
        assert cfg.xi_z_invalid == 0.6
        assert cfg.xi_z_valid == 0.2
        assert cfg.alpha_invalid == 0.8

    def test_estimation_fields_are_applied(self, tmp_path):
        text = json.dumps({"lambda_n": None, "lambda_mode": "cv"})
        cfg = parse_config(config_file(tmp_path, text), "estimation")
        assert cfg == EstimationConfig(lambda_n=None, lambda_mode="cv")

    def test_unknown_key_names_the_source(self, tmp_path):
        path = config_file(tmp_path, '{"reps_per_cell": 3}', name="run.json")
        with pytest.raises(ConfigError) as err:
            parse_config(path, "sim")
        assert "reps_per_cell" in str(err.value)
        assert "run.json" in str(err.value)

    def test_type_errors_are_reported(self, tmp_path):
        for text in ('{"n": "many"}', '{"n": true}', '{"beta_true": [1]}'):
            with pytest.raises(ConfigError):
                parse_config(config_file(tmp_path, text), "sim")

    @pytest.mark.parametrize("kind, text", [
        ("estimation", '{"lambda_n": Infinity}'),
        ("sim", '{"beta_true": -Infinity}'),
        ("sim", '{"u_sd": 1e400}'),
        ("estimation", '{"alpha_level": NaN}'),
    ])
    def test_a_non_finite_number_names_its_key(self, tmp_path, kind, text):
        # A report could not echo it: JSON has no such number.
        key = text.split('"')[1]
        with pytest.raises(ConfigError, match=f"key '{key}' must be finite"):
            parse_config(config_file(tmp_path, text), kind)

    def test_integer_accepted_for_float_fields(self, tmp_path):
        cfg = parse_config(config_file(tmp_path, '{"beta_true": 1}'), "sim")
        assert cfg.beta_true == 1.0

    def test_invariant_violations_become_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(config_file(tmp_path, '{"p_z": 4, "s_z": 9}'), "sim")
        with pytest.raises(ConfigError):
            parse_config(config_file(tmp_path, '{"lambda_mode": "oracle"}'), "estimation")

    def test_non_object_document_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(config_file(tmp_path, "[1, 2]"), "sim")
        with pytest.raises(ConfigError):
            parse_config(config_file(tmp_path, "{invalid"), "sim")

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"n": 300, "p_z": 5, "s_z": 2}', encoding="utf-8")
        assert parse_config(str(path), "sim") == SimConfig(n=300, p_z=5, s_z=2)
        with pytest.raises(IoError):
            parse_config(str(tmp_path / "none.json"), "sim")

    def test_round_trip_through_dict(self, tmp_path):
        for cfg in (
            SimConfig(n=400, p_z=6, s_z=2, y_noise_sd=1.0, seed=3),
            EstimationConfig(lambda_n=12.5, alpha_level=0.1),
        ):
            kind = "sim" if isinstance(cfg, SimConfig) else "estimation"
            text = json.dumps(dataclasses.asdict(cfg))
            assert parse_config(config_file(tmp_path, text), kind) == cfg


class TestEstimateSerialization:
    def test_fields_and_name_mapping(self):
        data, _ = make_exact_dataset()
        est = estimate_invalid_tcp(data)
        payload = estimate_to_dict(est, tcp_names=("a", "b", "c", "d"))
        assert payload["method"] == "post_adaptive_2sls"
        assert payload["selected_invalid_tcps"] == [0]
        assert payload["selected_invalid_tcp_names"] == ["a"]
        assert payload["beta_hat"] == est.beta_hat
        assert len(payload["alpha_hat"]) == 4

    def test_nan_becomes_null(self):
        data, _ = make_exact_dataset()
        est = estimate_invalid_tcp(data)
        object.__setattr__(est, "variance", math.nan)
        payload = estimate_to_dict(est)
        assert payload["variance"] is None
        json.dumps(payload, allow_nan=False)  # must not raise

    def test_monte_carlo_payload_is_json_safe(self):
        report = run_monte_carlo(
            SimConfig(n=200, p_z=4, s_z=1, reps=2, y_noise_sd=1.0),
            ("adaptive", "ols"),
        )
        payload = monte_carlo_to_dict(report)
        text = json.dumps(payload, allow_nan=False)
        assert "adaptive" in payload["methods"]
        assert payload["config"]["n"] == 200
        assert json.loads(text) == payload


class TestReports:
    def make_report(self):
        rows = (
            OcpRow("w1", ("z1",), ("z2",), 0.51, 0.44, 0.58),
            OcpRow("w2", (), (), None, None, None, error="degenerate"),
        )
        return RunReport(
            command="estimate",
            config={"mode": "median", "subsample_n": 50},
            estimate={"beta_hat": 0.5, "ci_lower": 0.4, "ci_upper": 0.6},
            per_ocp=rows,
            diagnostics={"n_rows_dropped": 1},
            seed=11,
        )

    def test_structured_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert read_report(str(path)) == report

    def test_a_report_with_a_byte_order_mark_reads_back(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert read_report(str(marked(path))) == report

    def test_writes_are_byte_identical(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, str(a))
        write_report(report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_table_format_renders_rows_and_failures(self, tmp_path):
        report = self.make_report()
        text = render_table(report)
        for fragment in ("OCP", "Invalid TCPs", "Valid TCPs", "beta_hat", "95% CI"):
            assert fragment in text
        assert "FAILED" in text
        assert "w1" in text and "w2" in text
        assert "0.5" in text  # summary line shows the aggregate
        path = tmp_path / "report.txt"
        write_report(report, str(path), format="table")
        assert path.read_text(encoding="utf-8") == text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(IoError):
            write_report(self.make_report(), str(tmp_path / "r.xml"), "xml")

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(IoError):
            write_report(self.make_report(), str(tmp_path / "no" / "dir.json"))

    def test_fields_serialize_in_order_with_nan_as_null(self):
        row = OcpRow("w1", ("z1",), ("z2", "z3"), math.nan, 0.4, 0.6)
        assert list(row.to_dict().items()) == [
            ("label", "w1"), ("invalid_tcps", ["z1"]), ("valid_tcps", ["z2", "z3"]),
            ("beta_hat", None), ("ci_lower", 0.4), ("ci_upper", 0.6), ("error", None),
        ]
        payload = self.make_report().to_dict()
        assert list(payload) == [
            "command", "config", "estimate", "per_ocp", "diagnostics", "timing", "seed"
        ]
        assert payload["per_ocp"][1]["error"] == "degenerate"
        report = run_monte_carlo(SimConfig(n=200, p_z=4, s_z=1, reps=2), ("ols",))
        methods = monte_carlo_to_dict(report)["methods"]
        assert list(methods["ols"]) == [
            "coverage", "ci_length", "bias", "se", "rmse", "n_used", "n_failed"
        ]

    def test_report_keys_are_checked(self, tmp_path):
        path = tmp_path / "report.json"
        payload = self.make_report().to_dict()
        for broken, key in (
            ({**payload, "extra": 1}, "extra"),
            ({k: v for k, v in payload.items() if k != "command"}, "command"),
            ({**payload, "per_ocp": [{"label": "w1"}]}, "invalid_tcps"),
        ):
            path.write_text(json.dumps(broken), encoding="utf-8")
            with pytest.raises(ConfigError, match=key):
                read_report(str(path))

    def test_invalid_json_raises_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ParseError):
            read_report(str(path))
