"""The chunked QUBO/Ising text writer and reader against per-line reference code.

Chunk sizes are patched down to a few lines or characters, so every file
here spans many chunks and every line layout meets a chunk boundary.
Every text export goes through the one record writer, and nothing past
the magnitude cap is written.
"""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubofolio import qubo as qubo_module
from qubofolio.cli import main
from qubofolio.qubo import (
    IsingModel,
    QuboError,
    QuboParseError,
    SparseQubo,
    build_qubo,
    read_qubo_text,
    to_ising,
    to_sparse,
    write_bqp_json,
    write_ising_text,
    write_qubo_text,
)
from qubofolio.toy import random_sparse_qubo, synthetic_spec, toy_spec

SPECIAL = [-0.0, 0.0, 5e-324, 0.1, 2.0, 1e16, 1e22, -1.7976931348623157e308]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(qubo_module, "_CHUNK_LINES", 7)
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", 7)


def reference_lines(rows, cols, vals) -> str:
    return "".join(f"{int(i)} {int(j)} {float(v)!r}\n" for i, j, v in zip(rows, cols, vals))


def reference_terms(text: str):
    """The header's count of term lines, parsed one at a time with int, int, float.

    The indices are in the index dtype the header's num_vars documents.
    """
    header, *lines = text.splitlines()
    num_vars, num_terms = (int(field) for field in header.split()[2:4])
    lines = lines[:num_terms]
    index = qubo_module._index_dtype(num_vars)
    rows = np.array([int(line.split()[0]) for line in lines], dtype=index)
    cols = np.array([int(line.split()[1]) for line in lines], dtype=index)
    vals = np.array([float(line.split()[2]) for line in lines])
    return rows, cols, vals


def assert_bits_equal(got, want):
    """Equal dtypes and equal bytes, so -0.0 and 0.0 differ and int32 and int64 do too."""
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def no_per_line_parse(*args):
    raise AssertionError("a canonical chunk was parsed line by line")


def sample_terms(num_vars: int, seed: int):
    """Distinct upper-triangular pairs carrying SPECIAL, repeated and random values."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(num_vars)
    vals = rng.normal(scale=10.0 ** rng.integers(-300, 300, len(iu)))
    vals[rng.integers(0, 4, len(iu)) == 0] = 0.25  # runs of one repeated value
    vals[: len(SPECIAL)] = SPECIAL
    return iu, ju, vals


def test_writer_bytes_match_reference_formatter(tmp_path, small_chunks):
    rows, cols, vals = sample_terms(12, seed=1)
    sq = SparseQubo(num_vars=12, rows=rows, cols=cols, vals=vals, offset=-0.0)
    path = tmp_path / "a.qubo"
    write_qubo_text(sq, path)
    header = f"p qubo 12 {len(vals)} -0.0\n"
    assert path.read_bytes() == (header + reference_lines(rows, cols, vals)).encode()
    assert "\n0 0 -0.0\n0 1 0.0\n0 2 5e-324\n" in path.read_text()


def test_ising_writer_bytes_match_reference_formatter(tmp_path, small_chunks):
    _, _, vals = sample_terms(12, seed=2)
    h = np.zeros(15)
    h[[0, 3, 4, 9, 14]] = SPECIAL[1:6]  # the zero field is left out
    ising = IsingModel(h=h, j_rows=np.arange(9), j_cols=np.arange(1, 10), j_vals=vals[:9],
                       offset=1e22)
    path = tmp_path / "a.ising"
    write_ising_text(ising, path)
    h_idx = np.array([3, 4, 9, 14])
    expected = ("p ising 15 13 1e+22\n" + reference_lines(h_idx, h_idx, h[h_idx])
                + reference_lines(ising.j_rows, ising.j_cols, ising.j_vals))
    assert path.read_bytes() == expected.encode()


def test_writer_handles_an_empty_model_and_wide_indices(tmp_path, small_chunks):
    path = tmp_path / "empty.qubo"
    write_qubo_text(SparseQubo(num_vars=3, rows=np.zeros(0, dtype=np.int64),
                               cols=np.zeros(0, dtype=np.int64), vals=np.zeros(0),
                               offset=0.5), path)
    assert path.read_bytes() == b"p qubo 3 0 0.5\n"
    rows = np.array([7, 9, 123456789])
    sq = SparseQubo(num_vars=10**9, rows=rows, cols=rows, vals=np.array([1.5, -2.0, 3.0]),
                    offset=0.0)
    write_qubo_text(sq, path)
    assert path.read_text() == ("p qubo 1000000000 3 0.0\n7 7 1.5\n9 9 -2.0\n"
                                "123456789 123456789 3.0\n")


# A value of every repr length a float64 has, 3 to 24 characters, then -0.0 and 5e-324.
REPRS = ([float("1" + "234567890123456"[:k] + ".5") for k in range(16)]
         + [float(f"{m}e-100") for m in ("1.234567890123", "1.2345678901235", "1.23456789012346",
                                          "1.234567890123457", "1.2345678901234567",
                                          "-1.2345678901234567")]
         + [-0.0, 5e-324])


def reference_bqp_terms(rows, cols, vals) -> str:
    return ", ".join(f"[{int(i)}, {int(j)}, {float(v)!r}]" for i, j, v in zip(rows, cols, vals))


@pytest.mark.parametrize("num_vars", [10_001, 10**6], ids=["index-table", "index-per-chunk"])
def test_writer_bytes_match_reference_at_every_index_width_and_repr_length(
        tmp_path, small_chunks, num_vars):
    """Index text widens 9 -> 10, 99 -> 100 and 9999 -> 10000 inside a chunk of 7 lines.

    At 10,001 variables and 10,004 terms the index text is one table; at
    10**6 variables each chunk forms its own.
    """
    assert sorted({len(repr(v)) for v in REPRS}) == list(range(3, 25))
    rows = np.r_[np.arange(10_001), 9, 99, 9999]
    cols = np.r_[np.arange(10_001), 10, 100, 10_000]
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    vals = np.resize(REPRS, len(rows))
    path = tmp_path / "a.qubo"
    write_qubo_text(SparseQubo(num_vars=num_vars, rows=rows, cols=cols, vals=vals, offset=0.0),
                    path)
    lines = reference_lines(rows, cols, vals)
    assert "\n9 10 " in lines and "\n99 100 " in lines and "\n9999 10000 " in lines
    assert path.read_text() == f"p qubo {num_vars} {len(vals)} 0.0\n" + lines
    h = np.zeros(num_vars)
    h[:len(REPRS)] = REPRS
    pair = rows != cols
    ising = IsingModel(h=h, j_rows=rows[pair], j_cols=cols[pair], j_vals=vals[pair],
                       offset=5e-324)
    write_ising_text(ising, path)
    h_idx = np.flatnonzero(h)  # -0.0 is no field
    assert path.read_text() == (f"p ising {num_vars} {len(h_idx) + 3} 5e-324\n"
                                + reference_lines(h_idx, h_idx, h[h_idx])
                                + reference_lines(rows[pair], cols[pair], vals[pair]))


@pytest.mark.parametrize("lines", [1, 5, 7, 64])
def test_spec_exports_match_reference_across_step_boundaries(tmp_path, monkeypatch, lines):
    """The writer keeps a value table a step: a file chunk of `lines` lines that straddles
    a step boundary, and a value in two steps, are written as the per-line reference."""
    monkeypatch.setattr(qubo_module, "_CHUNK_LINES", lines)
    spec = synthetic_spec(n=2, T=3, k=2, B=4, C=4, seed=8)
    for qubo in (build_qubo(spec), build_qubo(spec, include_penalty=False)):
        sq = to_sparse(qubo)
        step = sq.rows // qubo.wp.shape[1]
        bounds = np.cumsum(np.bincount(step))[:-1]
        assert lines == 1 or (bounds % lines).all()  # every step boundary inside a chunk
        assert set(sq.vals[step == 0].tolist()) & set(sq.vals[step == 1].tolist())
        path = tmp_path / "a.qubo"
        write_qubo_text(qubo, path)
        assert path.read_text() == (f"p qubo {sq.num_vars} {sq.num_terms} {sq.offset!r}\n"
                                    + reference_lines(sq.rows, sq.cols, sq.vals))
    write_bqp_json(spec, path)
    assert f'"terms": [{reference_bqp_terms(sq.rows, sq.cols, sq.vals)}]}}' in path.read_text()


def test_every_text_export_goes_through_the_one_record_writer(tmp_path, monkeypatch):
    """A counter on qubo._write_records: each of the four exports calls it once, with every
    term it writes, so no second formatting path can come back."""
    terms_seen = []
    writer = qubo_module._write_records

    def counted(fh, parts, *args, **kwargs):
        parts = list(parts)
        terms_seen.append(sum(len(part[2]) for part in parts))
        writer(fh, parts, *args, **kwargs)

    monkeypatch.setattr(qubo_module, "_write_records", counted)
    spec = synthetic_spec(n=2, T=3, k=2, B=4, C=4, seed=8)
    qubo = build_qubo(spec)
    exports = {"block-qubo": lambda path: write_qubo_text(qubo, path),
               "triplet-qubo": lambda path: write_qubo_text(to_sparse(qubo), path),
               "ising": lambda path: write_ising_text(to_ising(qubo), path),
               "bqp-terms": lambda path: write_bqp_json(spec, path)}
    for name, export in exports.items():
        terms_seen.clear()
        path = tmp_path / name
        export(path)
        if name == "bqp-terms":
            written = len(json.loads(path.read_text())["objective"]["terms"])
        else:
            written = int(path.read_text().split(maxsplit=4)[3])
        assert terms_seen == [written] and written > 0, name


def _overflowing(**params):
    spec = toy_spec(n=2, T=2, B=1, seed=1)
    return dataclasses.replace(spec, params=dataclasses.replace(spec.params, **params))


@pytest.mark.parametrize("export", [
    lambda path: write_qubo_text(SparseQubo(num_vars=2, rows=[0, 1], cols=[1, 1],
                                            vals=[1.0, np.inf], offset=0.0), path),
    lambda path: write_qubo_text(SparseQubo(num_vars=2, rows=[0], cols=[1], vals=[1.0],
                                            offset=np.nan), path),
    lambda path: write_ising_text(IsingModel(h=np.array([np.nan, 1.0]), j_rows=[0], j_cols=[1],
                                             j_vals=[1.0], offset=0.0), path),
    lambda path: write_ising_text(IsingModel(h=np.ones(2), j_rows=[0], j_cols=[1],
                                             j_vals=[-np.inf], offset=0.0), path),
    lambda path: write_ising_text(IsingModel(h=np.ones(2), j_rows=[0], j_cols=[1],
                                             j_vals=[1.0], offset=np.inf), path),
    lambda path: write_qubo_text(build_qubo(_overflowing(q=1e300)), path),
    lambda path: write_qubo_text(build_qubo(_overflowing(delta=1e305)), path),
    lambda path: write_bqp_json(_overflowing(q=1e300), path),
    lambda path: write_bqp_json(_overflowing(delta=1e305), path),
], ids=["triplet-term", "triplet-offset", "ising-field", "ising-coupling", "ising-offset",
        "block-q", "block-delta", "bqp-q", "bqp-delta"])
def test_an_export_past_the_magnitude_cap_raises_and_opens_no_file(tmp_path, export):
    """A term or offset that is not finite would write a file no reader takes back."""
    path = tmp_path / "out"
    with np.errstate(all="ignore"), pytest.raises(QuboError, match="^magnitude cap"):
        export(path)
    assert not path.exists()


@pytest.mark.parametrize("seed", range(4))
def test_reader_arrays_match_reference_parse(tmp_path, small_chunks, seed):
    rows, cols, vals = sample_terms(15, seed=seed)
    sq = SparseQubo(num_vars=15, rows=rows, cols=cols, vals=vals, offset=2.5)
    path = tmp_path / "a.qubo"
    write_qubo_text(sq, path)
    want = reference_terms(path.read_text())
    parsed = read_qubo_text(path)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), want)
    assert parsed.offset == 2.5


@pytest.mark.parametrize("chunk", [7, 40, 1 << 21])
def test_canonical_file_takes_no_per_line_parse(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", chunk)
    sq = random_sparse_qubo(30, seed=4)
    path = tmp_path / "a.qubo"
    write_qubo_text(sq, path)
    monkeypatch.setattr(qubo_module, "_parse_lines", no_per_line_parse)
    parsed = read_qubo_text(path)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), (sq.rows, sq.cols, sq.vals))


@pytest.mark.parametrize("layout", ["crlf", "cr", "tabs", "spaces", "signs", "no-final-newline",
                                    "trailing-blank-lines"])
def test_reader_matches_reference_on_other_layouts(tmp_path, small_chunks, layout):
    rows, cols, vals = sample_terms(9, seed=5)
    lines = [f"{i} {j} {v!r}" for i, j, v in zip(rows, cols, vals.tolist())]
    sep, tail = "\n", "\n"
    if layout == "crlf":
        sep = tail = "\r\n"
    elif layout == "cr":
        sep = tail = "\r"
    elif layout == "tabs":
        lines = [line.replace(" ", "\t") for line in lines]
    elif layout == "spaces":
        lines = ["  " + line.replace(" ", "   ") + " " for line in lines]
    elif layout == "signs":
        lines = [f"+{i} 0{j} {v!r}" if repr(v)[0] == "-" else f"+{i} 0{j} +{v!r}"
                 for i, j, v in zip(rows, cols, vals.tolist())]
    elif layout == "no-final-newline":
        tail = ""
    elif layout == "trailing-blank-lines":
        tail = "\n\n  \n\t\n"
    path = tmp_path / "a.qubo"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"p qubo 9 {len(lines)} 0.0{sep}" + sep.join(lines) + tail)
    parsed = read_qubo_text(path)
    want = reference_terms(path.read_text())
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), want)


def test_malformed_line_in_third_chunk_reports_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", 25)
    lines = ["0 1 0.125"] * 12  # 10 characters with the newline: chunks hold 2-3 lines
    lines[6] = "0 1 0.1x5"  # file line 8, read in the third chunk
    path = tmp_path / "bad.qubo"
    path.write_text("p qubo 2 12 0.0\n" + "\n".join(lines) + "\n")
    with pytest.raises(QuboParseError, match=r"bad\.qubo:8: bad term line '0 1 0\.1x5\\n'"):
        read_qubo_text(path)


@pytest.mark.parametrize("line", ["0 1 2.0 junk", "0 1", "", "0 1 2.0 3.0", "0 1 1e5x",
                                  "0 1 2.0\0", "1" * 20 + " 1 2.0", "0 1.0 2.0"])
def test_reader_rejects_bad_term_lines(tmp_path, small_chunks, line):
    path = tmp_path / "bad.qubo"
    path.write_text("p qubo 2 3 0.0\n0 0 1.0\n" + line + "\n1 1 1.0\n")
    with pytest.raises(QuboParseError, match=r"bad\.qubo:3: bad term line"):
        read_qubo_text(path)


def test_a_parse_error_quotes_at_most_80_characters_of_a_line(tmp_path):
    line = "0 1 " + "9" * 200_000 + "x"
    path = tmp_path / "bad.qubo"
    path.write_text("p qubo 2 1 0.0\n" + line + "\n")
    with pytest.raises(QuboParseError) as raised:
        read_qubo_text(path)
    assert str(raised.value) == (
        f"{path}:2: bad term line {line[:80]!r}... ({len(line) + 1} characters)")
    path.write_text("q" * 255 + "\n")
    with pytest.raises(QuboParseError) as raised:
        read_qubo_text(path)
    assert str(raised.value) == f"{path}: bad header {'q' * 80!r}... (255 characters)"


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "end-of-file"])
def test_a_header_of_256_characters_is_past_the_bound(tmp_path, end):
    header = "p qubo 1 0 " + "0" * 245
    path = tmp_path / "long.qubo"
    path.write_text(header[:-1] + end)
    assert read_qubo_text(path).num_vars == 1
    path.write_text(header + end)
    with pytest.raises(QuboParseError, match="header line longer than 255 characters$"):
        read_qubo_text(path)


def test_reader_keeps_its_file_checks(tmp_path, small_chunks):
    path = tmp_path / "a.qubo"
    path.write_text("p qubo 2 3 0.0\n0 0 1.0\n0 1 2.0\n")
    with pytest.raises(QuboParseError, match="expected 3 terms, got 2"):
        read_qubo_text(path)
    path.write_text("p qubo 2 1 0.0\n0 0 1.0\n\n0 1 2.0\n")
    with pytest.raises(QuboParseError, match="more lines than the 1 terms declared"):
        read_qubo_text(path)
    path.write_text("p qubo 2 2 0.0\n0 0 1.0\n0 1 1e999\n")
    with pytest.raises(QuboParseError, match="non-finite term value"):
        read_qubo_text(path)
    path.write_text("p qubo 2 2 0.0\n0 0 1.0\n1 0 2.0\n")
    with pytest.raises(QuboParseError, match="out of range or not upper-triangular"):
        read_qubo_text(path)


def test_ising_round_trip_across_chunks(tmp_path, small_chunks):
    ising = to_ising(random_sparse_qubo(11, seed=6))
    first, second = tmp_path / "a.ising", tmp_path / "b.ising"
    write_ising_text(ising, first)
    parsed = read_qubo_text(first)
    write_ising_text(parsed, second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(parsed.h.view(np.int64), ising.h.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                          st.floats(-1e300, 1e300, allow_nan=False),
                          st.sampled_from([" ", "\t", "  "])), min_size=1, max_size=30),
       st.integers(1, 64))
def test_reader_matches_reference_on_random_files(tmp_path_factory, terms, chunk):
    lines = [f"{min(i, j)}{sp}{max(i, j)}{sp}{v!r}" for i, j, v, sp in terms]
    path = tmp_path_factory.mktemp("random") / "r.qubo"
    path.write_text(f"p qubo 41 {len(lines)} 0.0\n" + "\n".join(lines) + "\n")
    want = reference_terms(path.read_text())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qubo_module, "_CHUNK_CHARS", chunk)
        parsed = read_qubo_text(path)
    # SparseQubo sums repeated pairs, so compare against the same summation
    expected = SparseQubo(num_vars=41, rows=want[0], cols=want[1], vals=want[2], offset=0.0)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals),
                      (expected.rows, expected.cols, expected.vals))


@pytest.mark.parametrize("sep", ["\t"], ids=["per-line"])
def test_reader_rejects_an_index_that_would_wrap_in_int32(tmp_path, sep):
    """2^32 + 5 is 5 in int32: the chunk's int64 indices are checked before they are narrowed.

    Only the per-line parse reads such an index: the word parse reads at
    most 8 digits, below 2^31.
    """
    path = tmp_path / "wrap.qubo"
    path.write_text(f"p qubo 40000 2 0.0\n0 0 1.0\n4294967301{sep}4294967301{sep}1.0\n")
    assert qubo_module._index_dtype(40000) is np.int32
    with pytest.raises(QuboParseError, match="out of range or not upper-triangular"):
        read_qubo_text(path)
    out = tmp_path / "r.json"  # 40,000 variables: solve stops at the header, past its caps
    assert main(["solve", "--qubo", str(path), "--solver", "exact", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("sep", [" ", "\t"], ids=["numpy-chunk", "per-line"])
def test_reader_rejects_an_index_that_would_wrap_in_int16(tmp_path, monkeypatch, sep):
    """2^16 + 5 is 5 in int16: the chunk's int64 indices are checked before they are narrowed."""
    path = tmp_path / "wrap.qubo"
    path.write_text(f"p qubo 10 2 0.0\n0 0 1.0\n65541{sep}65541{sep}1.0\n")
    assert qubo_module._index_dtype(10) is np.int16
    if sep == " ":
        monkeypatch.setattr(qubo_module, "_parse_lines", no_per_line_parse)
    with pytest.raises(QuboParseError, match="out of range or not upper-triangular"):
        read_qubo_text(path)
    out = tmp_path / "r.json"
    assert main(["solve", "--qubo", str(path), "--solver", "exact", "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("header", ["p qubo 2.5 0 0.0", "p ising 2 x 0.0", "p qubo 2 0 zero"],
                         ids=["fractional-vars", "word-terms", "word-offset"])
def test_reader_rejects_a_header_field_of_the_wrong_kind(tmp_path, header):
    path = tmp_path / "bad.qubo"
    path.write_text(header + "\n")
    with pytest.raises(QuboParseError, match=r"bad\.qubo: bad header values: "):
        read_qubo_text(path)


def test_reader_keeps_int64_indices_past_two_to_the_31(tmp_path):
    """num_vars = 2^31 needs int64 indices; the reader allocates nothing of size num_vars."""
    path = tmp_path / "wide.qubo"
    path.write_text("p qubo 2147483648 1 0.0\n5 2147483647 1.0\n")
    parsed = read_qubo_text(path)
    assert parsed.rows.dtype == parsed.cols.dtype == np.int64
    assert parsed.rows.tolist() == [5] and parsed.cols.tolist() == [2**31 - 1]
    path.write_text("p qubo 2147483647 1 0.0\n5 2147483646 1.0\n")
    parsed = read_qubo_text(path)
    assert parsed.rows.dtype == parsed.cols.dtype == np.int32
    assert parsed.cols.tolist() == [2**31 - 2]


# --- the word parse of canonical chunks -------------------------------------------

HAND_TOKENS = ["1", "1e5", "+2.5", "1_0", "-0.0", "5e-324", "1e22", "0.25"]


@st.composite
def index_texts(draw):
    """An index of 1-18 digits, leading zeros included: over 8 takes the per-line parse."""
    digits = draw(st.integers(1, 18))
    return str(draw(st.integers(0, 10**digits - 1))).zfill(digits)


long_tokens = st.integers(25, 32).flatmap(lambda n: st.sampled_from(
    ["0" * (n - 3) + "1.5", "1." + "2" * (n - 2), "-" + "3" * (n - 5) + "e-10"]))
value_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.integers(10**16, 10**17 - 1), st.integers(-330, 290)).map(
        lambda m: f"{m[0]}e{m[1]}"),  # 17-digit mantissas
    st.sampled_from(HAND_TOKENS), long_tokens)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(index_texts(), index_texts(), value_tokens), min_size=1, max_size=40),
       st.integers(7, 200))
def test_word_parse_matches_reference_on_canonical_files(tmp_path_factory, terms, chunk):
    lines = [f"{i} {j} {v}" if int(i) <= int(j) else f"{j} {i} {v}" for i, j, v in terms]
    num_vars = 1 + max(int(field) for i, j, _ in terms for field in (i, j))
    path = tmp_path_factory.mktemp("words") / "w.qubo"
    path.write_text(f"p qubo {num_vars} {len(lines)} 0.0\n" + "\n".join(lines) + "\n")
    want = reference_terms(path.read_text())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qubo_module, "_CHUNK_CHARS", chunk)
        parsed = read_qubo_text(path)
    expected = SparseQubo(num_vars=num_vars, rows=want[0], cols=want[1], vals=want[2], offset=0.0)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals),
                      (expected.rows, expected.cols, expected.vals))


@pytest.mark.parametrize("digits", [9, 16])
def test_an_index_of_more_than_eight_digits_takes_the_per_line_parse(tmp_path, monkeypatch,
                                                                      digits):
    path = tmp_path / "long.qubo"
    path.write_text(f"p qubo {10**digits} 2 0.0\n0 0 1.0\n5 {10**digits - 1} 2.5\n")
    calls = []
    parse_lines = qubo_module._parse_lines
    monkeypatch.setattr(qubo_module, "_parse_lines",
                        lambda *args: calls.append(args) or parse_lines(*args))
    parsed = read_qubo_text(path)
    assert len(calls) == 1
    assert parsed.cols.tolist() == [0, 10**digits - 1] and parsed.vals.tolist() == [1.0, 2.5]


def test_a_ten_digit_index_with_a_non_digit_up_front_takes_the_per_line_parse(tmp_path):
    """An index field of over 8 digits is left to the per-line parse, which names the line."""
    line = b"x123456789 5 1.0\n"  # its last 8 bytes are digits, its first two are not
    buf = qubo_module._FRONT + line + qubo_module._BACK
    assert qubo_module._canonical_terms(buf, len(buf) - qubo_module._PAD_BYTES, 1) is None
    path = tmp_path / "bad.qubo"
    path.write_bytes(b"p qubo 10 2 0.0\n0 0 1.0\n" + line)
    with pytest.raises(QuboParseError, match=r"bad\.qubo:3: bad term line"):
        read_qubo_text(path)


@pytest.mark.parametrize("mixer", [
    lambda parts: np.zeros(len(parts[0]), dtype=np.uint64),  # every run holds two tokens
    lambda parts: np.arange(len(parts[0]), dtype=np.uint64) % 2,  # distinct runs share a key
], ids=["zeros", "alternating"])
def test_key_collision_takes_the_per_line_parse(tmp_path, monkeypatch, mixer):
    rows, cols, vals = sample_terms(15, seed=7)
    path = tmp_path / "a.qubo"
    write_qubo_text(SparseQubo(num_vars=15, rows=rows, cols=cols, vals=vals, offset=0.0), path)
    want = reference_terms(path.read_text())
    per_line = []

    def counted(*args):
        per_line.append(args[2])
        return parse_lines(*args)

    parse_lines = qubo_module._parse_lines
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", 200)
    monkeypatch.setattr(qubo_module, "_parse_lines", counted)
    monkeypatch.setattr(qubo_module, "_token_keys", mixer)
    parsed = read_qubo_text(path)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), want)
    assert sum(per_line) > len(vals) // 2  # a chunk of one line cannot collide


@pytest.mark.parametrize("chunk", [200, 1 << 18])
def test_spec_export_parses_bit_for_bit_without_the_per_line_parse(tmp_path, monkeypatch, chunk):
    """A slow fallback would keep the arrays right and lose the speed, so none may run."""
    qubo = build_qubo(synthetic_spec(n=20, T=3, seed=1))
    path = tmp_path / "spec.qubo"
    write_qubo_text(qubo, path)
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(qubo_module, "_parse_lines", no_per_line_parse)
    parsed, want = read_qubo_text(path), to_sparse(qubo)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), (want.rows, want.cols, want.vals))
    assert parsed.offset == want.offset


def test_reader_working_set_is_bounded_by_the_chunk(tmp_path, monkeypatch):
    """Above its result the reader holds less than a byte a term and 16 chunks.

    A whole-file bool mask alone is a byte a term.  Measured: 0.54 bytes a
    term, 13.1 chunks.  The value tokens here are all distinct, the most a
    chunk's dedup can hold.
    """
    num_terms, chunk = 200_000, 1 << 13
    rng = np.random.default_rng(3)
    iu, ju = np.triu_indices(1000)
    pick = np.sort(rng.choice(len(iu), num_terms, replace=False))
    vals = rng.normal(size=num_terms) * 10.0 ** rng.integers(-5, 8, num_terms)
    path = tmp_path / "big.qubo"
    write_qubo_text(SparseQubo(num_vars=1000, rows=iu[pick], cols=ju[pick], vals=vals,
                               offset=0.0), path)
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(qubo_module, "_CHECK_BLOCK", 1 << 11)
    tracemalloc.start()
    try:
        parsed = read_qubo_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    above = peak - held_bytes(parsed)
    assert np.array_equal(parsed.vals.view(np.int64), vals.view(np.int64))
    assert above < num_terms
    assert above < 16 * chunk


def held_bytes(parsed) -> int:
    return sum(a.nbytes for a in vars(parsed).values() if isinstance(a, np.ndarray))


def rows_file(tmp_path, num_vars: int) -> tuple:
    """40 rows of 50 terms each, which straddle chunks of 300 characters, and their file."""
    rng = np.random.default_rng(5)
    rows = np.repeat(np.sort(rng.choice(num_vars - 100, 40, replace=False)), 50)
    cols = rows + np.tile(np.arange(50), 40)
    path = tmp_path / "rows.qubo"
    write_qubo_text(SparseQubo(num_vars=num_vars, rows=rows, cols=cols,
                               vals=rng.normal(size=len(rows)), offset=0.0), path)
    return rows, cols, path


@pytest.mark.parametrize("num_vars, index_bytes", [(2**15 - 1, 2), (2**31 - 1, 4)],
                         ids=["int16", "int32"])
def test_a_parse_holds_its_triplets_and_nothing_else(tmp_path, monkeypatch, num_vars,
                                                     index_bytes):
    """A term takes a row and a column index and a float64 value, whatever the chunking."""
    rows, cols, path = rows_file(tmp_path, num_vars)
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", 300)
    parsed = read_qubo_text(path)
    assert held_bytes(parsed) == (2 * index_bytes + 8) * len(rows)
    assert parsed.rows.tolist() == rows.tolist() and parsed.cols.tolist() == cols.tolist()


def test_consumers_read_the_parsed_arrays_themselves(tmp_path):
    """to_dense, to_ising and write_qubo_text take a parse's terms through _triplets, which
    forms no second copy of them."""
    path = tmp_path / "a.qubo"
    write_qubo_text(random_sparse_qubo(12, seed=4), path)
    parsed = read_qubo_text(path)
    rows, cols, vals, offset = qubo_module._triplets(parsed)
    assert rows is parsed.rows and cols is parsed.cols and vals is parsed.vals
    assert offset == parsed.offset


@st.composite
def term_lists(draw):
    """Terms of up to 30 variables in file order, and the chunk size to read them in.

    The header is a QUBO's or an Ising model's.  The pairs leave rows with
    no term and repeat some, which a small chunk puts either side of a
    boundary.  The lines are sorted, shuffled, or sorted with one adjacent
    pair swapped, an order break wherever a chunk boundary falls; an index
    may be written in 9 digits, which only the per-line parse reads.
    """
    kind = draw(st.sampled_from(["qubo", "ising"]))
    num_vars = draw(st.integers(1, 30))
    index = st.integers(0, num_vars - 1)
    pairs = sorted((min(i, j), max(i, j))
                   for i, j in draw(st.lists(st.tuples(index, index), min_size=1, max_size=40)))
    order = draw(st.sampled_from(["sorted", "shuffled", "swapped"]))
    if order == "shuffled":
        pairs = draw(st.permutations(pairs))
    elif order == "swapped" and len(pairs) > 1:
        k = draw(st.integers(0, len(pairs) - 2))
        pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    vals = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(pairs),
                         max_size=len(pairs)))
    wide = draw(st.integers(-1, len(pairs) - 1))  # the line whose row is written in 9 digits
    lines = [f"{str(i).zfill(9) if k == wide else i} {j} {v!r}"
             for k, ((i, j), v) in enumerate(zip(pairs, vals))]
    text = f"p {kind} {num_vars} {len(lines)} 0.0\n" + "\n".join(lines) + "\n"
    return text, num_vars, pairs, vals, draw(st.sampled_from([1, 7, 40, 1 << 18]))


@settings(max_examples=80, deadline=None)
@given(term_lists())
@example(("p qubo 5 4 0.0\n0 1 1.5\n2 2 -1.0\n2 2 0.25\n000000004 4 3.0\n", 5,
          [(0, 1), (2, 2), (2, 2), (4, 4)], [1.5, -1.0, 0.25, 3.0], 1))  # a repeat across chunks
@example(("p qubo 4 3 0.0\n0 0 1.0\n3 3 2.0\n1 2 -0.5\n", 4, [(0, 0), (3, 3), (1, 2)],
          [1.0, 2.0, -0.5], 1))  # the order breaks between two chunks
@example(("p ising 3 4 0.0\n0 0 1.5\n1 2 2.0\n0 0 -0.25\n0 1 1.0\n", 3,
          [(0, 0), (1, 2), (0, 0), (0, 1)], [1.5, 2.0, -0.25, 1.0], 1))  # a field given twice
def test_compressed_parse_equals_the_triplet_constructor(tmp_path_factory, case):
    text, num_vars, pairs, vals, chunk = case
    path = tmp_path_factory.mktemp("terms") / "t.qubo"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qubo_module, "_CHUNK_CHARS", chunk)
        parsed = read_qubo_text(path)
    if text.startswith("p ising"):
        assert_parse_equals_the_ising_triplets(parsed, num_vars, pairs, vals)
    else:
        assert_parse_equals_the_triplet_constructor(parsed, num_vars, pairs, vals)


def assert_parse_equals_the_ising_triplets(parsed, num_vars, pairs, vals):
    """parsed is the IsingModel of the file's terms, bit for bit: h summed from the diagonal
    terms in file order, the other terms its couplings."""
    rows, cols = (np.array(k, dtype=np.int64) for k in zip(*pairs))
    h = np.zeros(num_vars)
    for (i, j), v in zip(pairs, vals):
        if i == j:
            h[i] += v
    coupling = rows != cols
    want = IsingModel(h=h, j_rows=rows[coupling], j_cols=cols[coupling],
                      j_vals=np.array(vals)[coupling], offset=0.0)
    assert isinstance(parsed, IsingModel)
    assert_bits_equal((parsed.h, parsed.j_rows, parsed.j_cols, parsed.j_vals),
                      (want.h, want.j_rows, want.j_cols, want.j_vals))
    assert parsed.offset == want.offset


def assert_parse_equals_the_triplet_constructor(parsed, num_vars, pairs, vals):
    """parsed is SparseQubo(rows, cols, vals) of the file's terms, and so are its dense and
    Ising forms, bit for bit."""
    rows, cols = (np.array(k, dtype=np.int64) for k in zip(*pairs))
    want = SparseQubo(num_vars=num_vars, rows=rows, cols=cols, vals=np.array(vals), offset=0.0)
    assert_bits_equal((parsed.rows, parsed.cols, parsed.vals), (want.rows, want.cols, want.vals))
    summed = qubo_module._sum_repeated(num_vars, rows, cols, np.array(vals))[2]
    assert_bits_equal((parsed.vals,), (summed,))
    (A, offset), (want_A, want_offset) = qubo_module.to_dense(parsed), qubo_module.to_dense(want)
    assert_bits_equal((A,), (want_A,))
    assert offset == want_offset
    got, ref = to_ising(parsed), to_ising(want)
    assert_bits_equal((got.h, got.j_rows, got.j_cols, got.j_vals),
                      (ref.h, ref.j_rows, ref.j_cols, ref.j_vals))
    assert got.offset == ref.offset


SPELLINGS = [["1.0", "1.00", "1e0", "+1.0"], ["-0.0"], ["0.0", "0", "0e5"], ["2.5", "25e-1"],
             ["-3.75"]]  # the tokens of one value each, so neighbours may spell one value apart


@st.composite
def value_run_files(draw):
    """Terms whose values come in runs, some over 255 terms, in file order, and a chunk size.

    A run's terms cycle through the spellings of its value, and -0.0 and
    0.0 may stand side by side.  The pairs are distinct or repeated, and
    sorted, shuffled or sorted with one adjacent pair swapped; one line's
    row may be written in 9 digits, which only the per-line parse reads.
    """
    num_vars = draw(st.integers(1, 60))
    runs = draw(st.lists(st.tuples(st.integers(0, len(SPELLINGS) - 1), st.integers(1, 600)),
                         min_size=1, max_size=4))
    tokens = [SPELLINGS[v][k % len(SPELLINGS[v])] for v, length in runs for k in range(length)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, ju = np.triu_indices(num_vars)
    if draw(st.booleans()):  # repeated pairs
        pick = rng.integers(0, len(iu), len(tokens))
    else:
        tokens = tokens[:len(iu)]
        pick = rng.choice(len(iu), len(tokens), replace=False)
    pairs = sorted(zip(iu[pick].tolist(), ju[pick].tolist()))
    order = draw(st.sampled_from(["sorted", "shuffled", "swapped"]))
    if order == "shuffled":
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    elif order == "swapped" and len(pairs) > 1:
        k = int(rng.integers(0, len(pairs) - 1))
        pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    wide = draw(st.integers(-1, len(pairs) - 1))
    lines = [f"{str(i).zfill(9) if k == wide else i} {j} {v}"
             for k, ((i, j), v) in enumerate(zip(pairs, tokens))]
    text = f"p qubo {num_vars} {len(lines)} 0.0\n" + "\n".join(lines) + "\n"
    vals = [float(v) for v in tokens]
    return text, num_vars, pairs, vals, draw(st.sampled_from([7, 40, 300, 1 << 18]))


def cycled_tokens(tokens: list[str], num_terms: int, chunk: int):
    """A value_run_files case: num_terms sorted terms whose values cycle through tokens."""
    iu, ju = (a[:num_terms].tolist() for a in np.triu_indices(30))
    spelled = [tokens[k % len(tokens)] for k in range(num_terms)]
    lines = [f"{i} {j} {v}" for i, j, v in zip(iu, ju, spelled)]
    text = f"p qubo 30 {num_terms} 0.0\n" + "\n".join(lines) + "\n"
    return text, 30, list(zip(iu, ju)), [float(v) for v in spelled], chunk


@settings(max_examples=40, deadline=None)
@given(value_run_files())
@example(cycled_tokens(["1.0", "1e0"], 400, 1 << 18))  # runs of 255 terms within one chunk
@example(cycled_tokens(["1.0", "1.00"], 400, 300))  # a run across chunks of about 30 lines
@example(cycled_tokens(["0.0", "-0.0", "-0.0"], 40, 1 << 18))  # zeros of either sign
def test_value_runs_parse_equals_the_triplet_constructor(tmp_path_factory, case):
    text, num_vars, pairs, vals, chunk = case
    path = tmp_path_factory.mktemp("runs") / "v.qubo"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qubo_module, "_CHUNK_CHARS", chunk)
        parsed = read_qubo_text(path)
    assert_parse_equals_the_triplet_constructor(parsed, num_vars, pairs, vals)


def test_a_shuffled_parse_peaks_no_higher_than_before_value_runs(tmp_path):
    """A file out of (i, j) order is read, then sorted and summed; the sort order is released
    first.

    The bound is the traced peak a term of the same parse before the
    reader held its values as runs (52.05 bytes).  Measured with the
    triplets the reader holds now: 44.02 bytes a term.
    """
    num_terms = 200_000
    rng = np.random.default_rng(11)
    iu, ju = np.triu_indices(1000)
    pick = np.sort(rng.choice(len(iu), num_terms, replace=False))
    vals = np.repeat(rng.normal(size=-(-num_terms // 3)), 3)[:num_terms]
    path = tmp_path / "shuffled.qubo"
    write_qubo_text(SparseQubo(num_vars=1000, rows=iu[pick], cols=ju[pick], vals=vals,
                               offset=0.0), path)
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(lines[k] for k in rng.permutation(len(lines))))
    del lines
    tracemalloc.start()
    try:
        parsed = read_qubo_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(parsed.vals.view(np.int64), vals.view(np.int64))
    assert peak < 52.05 * num_terms


def test_the_term_line_bound_is_262144_characters(tmp_path):
    line = "0 0 1." + "0" * (qubo_module._MAX_LINE_CHARS - 6)
    assert len(line) == 262_144
    path = tmp_path / "long.qubo"
    path.write_text("p qubo 1 1 0.0\n" + line + "\n")
    assert read_qubo_text(path).vals.tolist() == [1.0]
    path.write_text("p qubo 1 1 0.0\n" + line + "0\n")
    with pytest.raises(QuboParseError, match=":2: term line longer than 262144 characters$"):
        read_qubo_text(path)


@pytest.mark.parametrize("chunk", [7, 1 << 18])
def test_a_term_line_past_the_bound_names_its_line(tmp_path, monkeypatch, chunk):
    line = "0 1 " + "9" * 299_996
    path = tmp_path / "long.qubo"
    path.write_text("p qubo 2 2 0.0\n0 0 1.0\n" + line + "\n")
    monkeypatch.setattr(qubo_module, "_CHUNK_CHARS", chunk)
    with pytest.raises(QuboParseError) as raised:
        read_qubo_text(path)
    assert str(raised.value) == f"{path}:3: term line longer than 262144 characters"
    assert main(["solve", "--qubo", str(path), "--out", str(tmp_path / "r.json")]) == 4


def test_a_10_mb_term_line_is_not_read_whole(tmp_path):
    path = tmp_path / "long.qubo"
    path.write_text("p qubo 2 1 0.0\n0 1 " + "9" * 10_000_000 + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(QuboParseError, match=":2: term line longer than"):
            read_qubo_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_an_ising_header_past_memory_is_a_qubo_error(tmp_path):
    path = tmp_path / "huge.ising"
    path.write_text("p ising 1000000000000000 0 0.0\n")
    with pytest.raises(QuboError, match="1000000000000000 spins cannot be held in memory$"):
        read_qubo_text(path)
