"""The chunked QUBO/Ising text writer and reader against per-line reference code.

Chunk sizes are patched down to a few lines or characters, so every file
here spans many chunks and every line layout meets a chunk boundary.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofolio import qubo as qubo_module
from qubofolio.cli import main
from qubofolio.qubo import (
    IsingModel,
    QuboParseError,
    SparseQubo,
    build_qubo,
    read_qubo_text,
    to_ising,
    to_sparse,
    write_ising_text,
    write_qubo_text,
)
from qubofolio.toy import random_sparse_qubo, synthetic_spec

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
    out = tmp_path / "r.json"
    assert main(["solve", "--qubo", str(path), "--solver", "exact", "--out", str(out)]) == 4
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

    A whole-file bool mask alone is a byte a term.  Measured: 0.56 bytes a
    term, 13.6 chunks.  The value tokens here are all distinct, the most
    a chunk's dedup can hold; exp1's export reads 7.2 chunks.
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
    above = peak - parsed.rows.nbytes - parsed.cols.nbytes - parsed.vals.nbytes
    assert np.array_equal(parsed.vals.view(np.int64), vals.view(np.int64))
    assert above < num_terms
    assert above < 16 * chunk
