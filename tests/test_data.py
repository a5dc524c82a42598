import codecs
import hashlib
import logging
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from exploressl import data as data_module
from exploressl.data import (
    DataFormatError,
    Dataset,
    Norm,
    SeedPartition,
    choose_seeded_classes,
    load_dataset,
    make_partitions,
    normalize_dataset,
    subset,
    tfidf_weight,
    write_sparse_triplet,
)
from exploressl.experiments import prepare_family_datasets
from exploressl.synth import GeneratorFamily, SyntheticSpec, generate_synthetic
from reference import (
    entries,
    from_dense,
    from_pairs,
    from_rows,
    norm,
    normalize,
    read_sparse_triplet,
)


def make_dataset(rows, vocab=None, labels=None):
    vecs = [from_pairs(r) for r in rows]
    vocab = vocab or max(v.shape[1] for v in vecs)
    labels = labels if labels is not None else [-1] * len(rows)
    return from_rows(vecs, labels, vocab)


class TestRows:
    def test_orders_and_drops_zeros(self):
        x = from_pairs([(5, 1.0), (2, 3.0), (7, 0.0)])
        assert entries(x) == [(2, 3.0), (5, 1.0)]
        assert x.shape == (1, 6)

    def test_dense_roundtrip(self):
        x = from_dense([0.0, 2.0, 0.0, -1.5])
        assert entries(x) == [(1, 2.0), (3, -1.5)]
        assert x.toarray().tolist() == [[0.0, 2.0, 0.0, -1.5]]


class TestNormalize:
    def test_l1(self):
        x = normalize(from_dense([2.0, 2.0]), Norm.L1)
        assert x.data.tolist() == [0.5, 0.5]

    def test_l2_345(self):
        x = normalize(from_dense([3.0, 4.0]), Norm.L2)
        assert np.allclose(x.data, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize(from_pairs([]), Norm.L1)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8).filter(
            lambda v: any(abs(x) > 1e-6 for x in v)
        ),
        st.sampled_from([Norm.L1, Norm.L2]),
    )
    def test_idempotent(self, dense, kind):
        x = normalize(from_dense(dense), kind)
        y = normalize(x, kind)
        assert np.allclose(x.data, y.data, atol=1e-12)
        assert math.isclose(norm(y, kind), 1.0, abs_tol=1e-9)


class TestLoadDataset:
    def test_sparse_triplet(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("rec.autos 3:2 17:1\n")
        d = load_dataset(f)
        assert len(d) == 1
        assert d.instances[0].nnz == 2
        assert d.label_names == ["rec.autos"]
        assert d.gold_ids.tolist() == [0]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("")
        with pytest.raises(DataFormatError, match="no instances"):
            load_dataset(f)

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a 0:1\nb 1:x\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(f)

    def test_feature_beyond_vocab(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("%%vocab 4\na 5:1\n")
        with pytest.raises(DataFormatError):
            load_dataset(f)

    def test_roundtrip(self, tmp_path):
        d = make_dataset([[(0, 1.0), (3, 2.0)], [(1, 4.0)]], labels=[0, 1])
        d.label_names = ["x", "y"]
        f = tmp_path / "out.txt"
        write_sparse_triplet(d, f)
        d2 = load_dataset(f)
        assert len(d2) == 2
        assert d2.vocab_size == d.vocab_size
        assert entries(d2.instances[0]) == entries(d.instances[0])

    def test_writer_rejects_an_unlabeled_instance(self, tmp_path):
        d = make_dataset([[(0, 2.0)], [(1, 1.0)], [], [(2, 1.0)]], vocab=3,
                         labels=[0, -1, -1, 0])
        d.label_names = ["a"]
        f = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="instance 1 has no gold label"):
            write_sparse_triplet(d, f)
        assert not f.exists()

    def test_writer_pads_unnamed_class_ids_so_they_round_trip(self, tmp_path):
        # unpadded, "10" sorts between "1" and "2" and takes id 2 on loading
        d = from_rows([from_pairs([(0, 1.0)])] * 11, list(range(11)), 1)
        f = tmp_path / "out.txt"
        write_sparse_triplet(d, f)
        assert f.read_text().splitlines()[1:3] == ["00 0:1", "01 0:1"]
        assert load_dataset(f).gold_ids.tolist() == list(range(11))

    @pytest.mark.parametrize("name", ["rec autos", "", "%%vocabulary", "%%x", "a\tb", " a"])
    def test_writer_rejects_a_label_name_it_cannot_carry(self, tmp_path, name):
        d = from_rows([from_pairs([(0, 1.0)])] * 2, [0, 1], 1, label_names=["a", name])
        f = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=f"label name {re.escape(repr(name))} is empty"):
            write_sparse_triplet(d, f)
        assert not f.exists()

    def test_writer_keeps_integer_text_below_a_million(self, tmp_path):
        d = from_rows([from_pairs([(0, 1.0), (1, 999999.0), (2, 1e6), (3, 0.5)])], [0], 4,
                      label_names=["a"])
        f = tmp_path / "out.txt"
        write_sparse_triplet(d, f)
        assert f.read_text() == "%%vocab 4\na 0:1 1:999999 2:1000000 3:0.5\n"

    @pytest.mark.parametrize("make", [
        lambda: from_rows(
            [from_pairs([(0, 1234567.0), (2, 0.0123456789), (5, 1e20)]),
             from_pairs([(1, -2.5), (3, 1.0 / 3.0), (4, 5e-324), (5, 3.0)])],
            [0, 1], 6, label_names=["a", "b"]),
        lambda: generate_synthetic(SyntheticSpec(
            3, 10, 40, 1.5, family=GeneratorFamily.HYPERSPHERE, rng_seed=5)),
    ], ids=["floats", "hypersphere"])
    def test_write_then_load_gives_the_same_arrays(self, tmp_path, make):
        d = make()
        f = tmp_path / "out.txt"
        write_sparse_triplet(d, f)
        d2 = load_dataset(f)
        X, X2 = d.matrix(), d2.matrix()
        for a, b in ((X.indptr, X2.indptr), (X.indices, X2.indices), (X.data, X2.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (d2.vocab_size, d2.gold_ids.tolist(), d2.label_names) == (
            d.vocab_size, d.gold_ids.tolist(), d.label_names)

    def test_dense_csv(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("label,f0,f1\na,1,0\nb,0,2\n")
        d = load_dataset(f, format="dense-csv")
        assert d.vocab_size == 2
        assert entries(d.instances[1]) == [(1, 2.0)]


# (file contents, format, the DataFormatError message): every bad input names
# the line the first bad entry is on, in file order, as the per-line loader did
BAD_INPUTS = [
    ("a 0:1\nb 3:x\n", "sparse-triplet", "line 2: malformed entry '3:x'"),
    ("a 0:1\nb 3\n", "sparse-triplet", "line 2: malformed entry '3'"),
    ("a 3:4:5\n", "sparse-triplet", "line 1: malformed entry '3:4:5'"),
    ("a :1\n", "sparse-triplet", "line 1: malformed entry ':1'"),
    ("a 3.5:1\n", "sparse-triplet", "line 1: malformed entry '3.5:1'"),
    ("a 3 4:5:6\n", "sparse-triplet", "line 1: malformed entry '3'"),
    ("a 0:1\n\nb -2:1\n", "sparse-triplet", "line 3: negative feature id"),
    ("a -2:0\n", "sparse-triplet", "line 1: negative feature id"),
    ("a 1:1 1:2\n", "sparse-triplet",
     "line 1: feature ids must be non-negative and strictly increasing"),
    ("a 1:nan\n", "sparse-triplet", "line 1: weights must be finite"),
    ("a 0:1\nb 2:1 1:-inf\n", "sparse-triplet", "line 2: weights must be finite"),
    ("%%vocab x\na 0:1\n", "sparse-triplet", "line 1: malformed vocab header"),
    ("a 0:1\n%%vocab\n", "sparse-triplet", "line 2: malformed vocab header"),
    # a header declares one positive size and nothing more, and a later
    # header may repeat it but not change it
    ("%%vocab -3\na 0:1\n", "sparse-triplet", "line 1: malformed vocab header"),
    ("%%vocab 0\na 0:1\n", "sparse-triplet", "line 1: malformed vocab header"),
    ("%%vocab 9 junk\na 0:1\n", "sparse-triplet", "line 1: malformed vocab header"),
    ("a 0:1\n%%vocab 9 9\n", "sparse-triplet", "line 2: malformed vocab header"),
    # only the word %%vocab names a header, and any other %%-word is no label
    ("a 0:1\n%%vocabulary 5\n", "sparse-triplet", "line 2: unknown header '%%vocabulary'"),
    ("%%vocab5 7\na 0:1\n", "sparse-triplet", "line 1: unknown header '%%vocab5'"),
    ("a 0:1\n%%x\n", "sparse-triplet", "line 2: unknown header '%%x'"),
    ("%%vocab 9\na 0:1\n%%vocab 3\n", "sparse-triplet",
     "line 3: vocab header 3 conflicts with the earlier 9"),
    ("%%vocab 9\na 0:1\n%%vocab 9\nb 1:1\n%%vocab 8\n", "sparse-triplet",
     "line 5: vocab header 8 conflicts with the earlier 9"),
    ("%%vocab 9\na 0:x\n%%vocab 3\n", "sparse-triplet", "line 2: malformed entry '0:x'"),
    ("%%vocab 4\na 5:1\n", "sparse-triplet", "feature id 5 >= declared vocab size 4"),
    ("%%vocab 3\na 1:1\nb 0:1 7:2\n", "sparse-triplet",
     "feature id 7 >= declared vocab size 3"),
    ("", "sparse-triplet", "no instances"),
    (" \n\t\n\n", "sparse-triplet", "no instances"),
    ("%%vocab 3\n", "sparse-triplet", "no instances"),
    # no entry with a nonzero count: the exact parser reads the first two,
    # the integer scan the third
    ("a\nb\n", "sparse-triplet", "vocabulary size is 0: no entry has a nonzero count"),
    ("a 1:0.0\nb\n", "sparse-triplet", "vocabulary size is 0: no entry has a nonzero count"),
    ("a 1:0\nb\n", "sparse-triplet", "vocabulary size is 0: no entry has a nonzero count"),
    # within a line the first bad token wins; a malformed or negative token
    # comes before a duplicate id, and a duplicate before a non-finite count
    ("a -1:1 3:x\n", "sparse-triplet", "line 1: negative feature id"),
    ("a 3:x -1:1\n", "sparse-triplet", "line 1: malformed entry '3:x'"),
    ("a 1:nan 1:2\n", "sparse-triplet",
     "line 1: feature ids must be non-negative and strictly increasing"),
    # the first bad line wins, whatever its kind
    ("a 0:1\nb 1:inf\n%%vocab x\n", "sparse-triplet", "line 2: weights must be finite"),
    ("%%vocab x\nb 1:inf\n", "sparse-triplet", "line 1: malformed vocab header"),
    ("a 2:1 2:1\nb 1:y\n", "sparse-triplet",
     "line 1: feature ids must be non-negative and strictly increasing"),
    ("", "dense-csv", "no instances"),
    ("label,f0,f1\n", "dense-csv", "no instances"),
    ("label\na\n", "dense-csv", "dense-csv header must declare at least one feature"),
    ("label,f0,f1\na,1,0\nb,1\n", "dense-csv", "line 3: expected 3 columns"),
    ("label,f0,f1\na,1,0\nb,1,x\n", "dense-csv", "line 3: non-numeric value"),
    ("label,f0,f1\na,1,nan\n", "dense-csv", "line 2: non-numeric value"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("text,fmt,message", BAD_INPUTS)
    def test_names_the_first_bad_line(self, tmp_path, text, fmt, message):
        f = tmp_path / "d.txt"
        f.write_text(text)
        with pytest.raises(DataFormatError) as e:
            load_dataset(f, format=fmt)
        assert str(e.value) == message

    def test_zero_counts_dropped(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a 0:1 2:0 3:2\nb 1:0 5:0\n")
        d = load_dataset(f)
        assert entries(d.instances[0]) == [(0, 1.0), (3, 2.0)]
        assert d.instances[1].nnz == 0
        assert d.vocab_size == 4  # a zero count does not widen the vocabulary
        f.write_text("a 1:0 1:2\n")  # a zero count is no duplicate
        assert entries(load_dataset(f).instances[0]) == [(1, 2.0)]

    def test_any_whitespace_and_any_id_order(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a\t5:1   2:3 \r\n\x0cb 0:1\n")
        d = load_dataset(f)
        assert [entries(x) for x in d.instances] == [[(2, 3.0), (5, 1.0)], [(0, 1.0)]]

    def test_feature_id_beyond_int64_is_malformed(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a 0:1\nb 9223372036854775808:0\n")
        with pytest.raises(DataFormatError, match="line 2: malformed entry"):
            load_dataset(f)

    @pytest.mark.parametrize("text", [
        "%%vocab 9\na 0:1 3:2\nb 1:1\na 2:5\n",  # integer counts: the scan
        "a 0:1.5 3:2\nb 1:1\n",  # a float count: the exact parser
    ])
    def test_a_byte_order_mark_is_not_read(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
        assert load_outcome(marked) == load_outcome(plain)
        # nor by the re-read that names the first bad line
        marked.write_text("%%vocab x\n" + text, encoding="utf-8-sig")
        assert load_outcome(marked) == (DataFormatError, "line 1: malformed vocab header")

    def test_label_only_line_survives_load_and_drops_at_tfidf(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("a 0:1 1:1\nb\nc 1:2\n")
        d = load_dataset(f)
        assert len(d) == 3 and d.instances[1].nnz == 0
        assert d.gold_ids.tolist() == [0, 1, 2]
        w = tfidf_weight(d)
        assert w.instance_ids == ["0", "2"]
        assert w.gold_ids.tolist() == [0, 2]


def load_outcome(path):
    """The loaded Dataset's arrays and labels, or the error's type and message."""
    try:
        d = load_dataset(path)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)
    X = d.matrix()
    return (X.indptr.tobytes(), X.indices.tobytes(), X.data.tobytes(), X.shape,
            d.gold_ids.tolist(), d.label_names)


def file_text(token, space, header):
    """Files of up to 6 lines: entry lines of the given tokens and spaces,
    label-only, blank and vocabulary lines, with one line ending."""
    entry_line = st.builds(
        lambda label, pairs, tail: label + "".join(sep + t for sep, t in pairs) + tail,
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.tuples(space, token), max_size=6),
        st.sampled_from(["", " ", "\t"]),
    )
    line = st.one_of(*[entry_line] * 4, st.sampled_from(["", " ", "b"]), header)
    return st.builds(lambda lines, eol: eol.join(lines) + eol,
                     st.lists(line, min_size=1, max_size=6),
                     st.sampled_from(["\n", "\r\n", "\r"]))


SMALL = st.integers(0, 30).map(str)
# 1 to 18 digits, leading zeros among them, with or without a sign: every
# number the scan reads
PLACES = st.builds(str.__add__, st.sampled_from(["", "", "+", "-"]),
                   st.text("0123456789", min_size=1, max_size=18))
INT = st.one_of(SMALL, SMALL, SMALL, PLACES,
                st.sampled_from(["-0", "+0", "+1", "+7", "007", "-007", "-3"]))
WIDE_INT = st.one_of(
    INT,
    st.integers(10**18, 10**21).map(str),  # 19 digits and more
    st.integers(10**18, 10**21).map(lambda v: f"-{v}"),
    st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, -(2**63) + 1, -(2**63), -(2**63) - 1]).map(str),
)
NUMBER = st.one_of(WIDE_INT, WIDE_INT, st.sampled_from(
    ["1_0", "1.5", "2e1", "nan", "-inf", "٣", "5-", "-", "+-1", "--1", ""]))
INT_SPACE = st.sampled_from([" ", " ", "  ", "\t", " \t ", "\x0b", "\x0c"])
INT_HEADER = st.sampled_from(["%%vocab 5001", "%%vocab 5001", "%%vocab 8"])
# ids that repeat less often, as a row with a repeated id is a fault
FID = st.one_of(SMALL, st.integers(0, 5000).map(str), st.sampled_from(["-0", "+7", "007"]))
INT_FILE = file_text(st.builds("{}:{}".format, FID, INT), INT_SPACE, INT_HEADER)
WIDE_INT_FILE = file_text(st.builds("{}:{}".format, WIDE_INT, WIDE_INT), INT_SPACE, INT_HEADER)
ANY_FILE = file_text(
    st.one_of(
        *[st.builds("{}:{}".format, NUMBER, NUMBER)] * 4,
        st.builds("{}::{}".format, NUMBER, NUMBER),
        st.builds(":{}".format, NUMBER),
        st.builds("{}:".format, NUMBER),
        st.builds("{}:{}:{}".format, NUMBER, NUMBER, NUMBER),
        NUMBER,
    ),
    st.sampled_from([" ", " ", " ", "\t", "\x0b", "\x1c", "\xa0"]),
    st.sampled_from(["%%vocab 5001", "%%vocab 40", "%%vocab x", "%%vocab"]),
)


# entries that are not all <int>:<int>, though a scanner may read two
# numbers from each
MALFORMED_ENTRIES = [
    ["1:2:3 5"],  # as many colons as tokens, two in one token
    ["1:2 :3"],
    ["1-:5"],
    ["-:5 1-2:3"],
    ["1:2\x00 3:4"],
    ["1:2\x1c3:4"],
    ["1:2\xa03:4"],
    ["1:٣"],
    ["1:1.5"],
    ["1:1_0"],
    ["1:+"],  # a sign that no digit follows
    ["-:5"],
    ["2:3 +:1"],
    ["1:2+3"],  # a sign inside a number
    ["+-1:1"],
    ["1:--1"],
]


def exact_outcome(path):
    """load_outcome(path) with every block left to the exact parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_scan_int_entries", lambda entries: None)
        return load_outcome(path)


class TestIntegerScan:
    """Integer-count files are read by digit place in a few vectorised
    passes; every other file, and every fault, is left to the exact parser,
    so both give one outcome."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(INT_FILE, WIDE_INT_FILE, ANY_FILE))
    @example(text="%%vocab 9\na -0:007 +1:+1 2:-0\n")
    def test_scan_equals_exact_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "scan.txt"  # rewritten by each example
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(path) == exact_outcome(path)

    # (entry text, whether the scan reads it): 18 digits are the most it
    # reads, leading zeros and a sign included or not
    @pytest.mark.parametrize("entries,scanned", [
        ("1:999999999999999999", True),
        ("1:-999999999999999999 2:+100000000000000000", True),
        ("1:000000000000000007 2:-00000000000000000", True),
        ("123456789012345678:1", True),
        ("1:1000000000000000000", False),
        ("1:-0000000000000000001", False),
        ("1:+9223372036854775807", False),
        ("1000000000000000000:1", False),
        ("0:1 +1:-2 3:4 -0:+5 6:007 7:-0 8:+0", True),  # signed and unsigned mixed
        ("+3:-12 -0:007 2:+9", True),
    ])
    def test_widths_and_signs_equal_the_exact_parser(self, tmp_path, entries, scanned):
        assert (data_module._scan_int_entries([entries, "0:1"]) is not None) == scanned
        f = tmp_path / "d.txt"
        f.write_text(f"a {entries}\nb 0:1\n")
        assert load_outcome(f) == exact_outcome(f)

    def test_integer_files_take_the_scan(self, tmp_path, monkeypatch):
        def no_parse(entries):
            raise AssertionError("the exact parser ran")

        monkeypatch.setattr(data_module, "_parse_entries", no_parse)
        f = tmp_path / "d.txt"
        f.write_text("%%vocab 9\na 3:2 1:+1\t0:-4\r\nb\n\nc 8:0 -0:007\n")
        d = load_dataset(f)
        assert [entries(x) for x in d.instances] == [
            [(0, -4.0), (1, 1.0), (3, 2.0)], [], [(0, 7.0)]]
        assert d.vocab_size == 9

    @pytest.mark.parametrize("entries", [
        ["", " \t"],  # no entry
        ["1:99999999999999999999"],  # more than 18 digits
        ["-99999999999999999999:1"],
        [f"{2**63 - 1}:1"],
        [f"1:{-(2**63)}"],
        *MALFORMED_ENTRIES,
    ])
    def test_scan_declines(self, entries):
        assert data_module._scan_int_entries(entries) is None

    @pytest.mark.parametrize("entries", MALFORMED_ENTRIES)
    def test_structure_checks_decline_what_a_lax_scanner_reads(self, entries, monkeypatch):
        def lax(codes, digits, start, end, signed):  # a number for every span, whatever its bytes
            return np.zeros(len(start), dtype=np.int64)

        monkeypatch.setattr(data_module, "_read_numbers", lax)
        assert data_module._scan_int_entries(["0:1", *entries]) is None  # a good first line


BLOCK = data_module.LINES_PER_PARSE


def int_lines(rng, n, vocab=60):
    """n entry lines with integer counts, some of them zero."""
    return [
        f"c{rng.integers(4)} " + " ".join(
            f"{j}:{rng.integers(0, 4)}" for j in rng.choice(vocab, rng.integers(1, 8), replace=False))
        for _ in range(n)
    ]


def float_lines(rng, n, vocab=60):
    """n entry lines with float counts, ids in any order."""
    return [
        f"c{rng.integers(4)} " + " ".join(
            f"{j}:{rng.lognormal()!r}" for j in rng.choice(vocab, rng.integers(1, 8), replace=False))
        for _ in range(n)
    ]


def with_label_only_and_blank(lines, first):
    """lines with a label-only line and a blank line around the end of the
    first block, the label-only one first when first is "label"."""
    pair = ["c9", ""] if first == "label" else ["", "c9"]
    return lines[: BLOCK - 1] + pair + lines[BLOCK - 1 :]


# (name, the file's lines as a function of a generator, line end)
BLOCK_FILES = [
    ("header-last", lambda rng: int_lines(rng, 2 * BLOCK + 10) + ["%%vocab 70"], "\n"),
    ("label-only-then-blank-at-a-boundary",
     lambda rng: with_label_only_and_blank(int_lines(rng, BLOCK + 20), "label"), "\n"),
    ("blank-then-label-only-at-a-boundary",
     lambda rng: with_label_only_and_blank(float_lines(rng, BLOCK + 20), "blank"), "\n"),
    ("int-block-then-float-block",
     lambda rng: int_lines(rng, BLOCK) + float_lines(rng, BLOCK), "\n"),
    ("crlf", lambda rng: ["%%vocab 64"] + int_lines(rng, BLOCK) + float_lines(rng, 30), "\r\n"),
    ("one-line-past-a-block", lambda rng: ["%%vocab 60"] + int_lines(rng, BLOCK), "\n"),
]


class TestBlockLoader:
    """The loader reads LINES_PER_PARSE lines at a time; it must give what
    reading the file one line at a time gives."""

    @pytest.mark.parametrize("make,eol", [(m, e) for _, m, e in BLOCK_FILES],
                             ids=[name for name, _, _ in BLOCK_FILES])
    def test_equals_the_line_by_line_reference(self, tmp_path, make, eol):
        f = tmp_path / "d.txt"
        f.write_bytes(eol.join(make(np.random.default_rng(3))).encode() + eol.encode())
        d, want = load_dataset(f), read_sparse_triplet(f)
        X = d.matrix()
        for name in ("data", "indices", "indptr"):
            got = getattr(X, name)
            assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes()
        assert X.shape == (len(want["gold_ids"]), want["vocab_size"])
        assert d.gold_ids.tolist() == want["gold_ids"]
        assert d.instance_ids == want["instance_ids"]
        assert d.label_names == want["label_names"]

    def test_an_int_block_takes_the_scan_and_a_float_block_the_parser(self, tmp_path,
                                                                      monkeypatch):
        parsed = []
        parse = data_module._parse_entries
        monkeypatch.setattr(data_module, "_parse_entries",
                            lambda entries: parsed.append(len(entries)) or parse(entries))
        rng = np.random.default_rng(4)
        f = tmp_path / "d.txt"
        f.write_text("\n".join(int_lines(rng, BLOCK) + float_lines(rng, BLOCK + 1)) + "\n")
        assert len(load_dataset(f)) == 2 * BLOCK + 1
        assert parsed == [BLOCK, 1]

    def test_a_header_in_a_later_block_may_repeat_but_not_change_the_size(self, tmp_path):
        lines = ["%%vocab 70"] + int_lines(np.random.default_rng(6), 2 * BLOCK) + ["%%vocab 70"]
        f = tmp_path / "d.txt"
        f.write_text("\n".join(lines) + "\n")
        assert load_dataset(f).vocab_size == 70
        lines[-1] = "%%vocab 71"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as e:
            load_dataset(f)
        assert str(e.value) == f"line {len(lines)}: vocab header 71 conflicts with the earlier 70"

    def test_names_the_first_bad_line_across_blocks(self, tmp_path):
        lines = int_lines(np.random.default_rng(5), 3 * BLOCK)
        lines[1] = "c0 1:1 1:2"  # block 1: a repeated feature id
        lines[2 * BLOCK + 5] = "c0 3:x"  # block 3: a malformed entry
        f = tmp_path / "d.txt"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as e:
            load_dataset(f)
        assert str(e.value) == "line 2: " + INCREASING


def traced_peak(call):
    """(the result of call(), the peak bytes tracemalloc saw during it)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        """A multinomial corpus of 1200 lines, about five blocks."""
        f = tmp_path_factory.mktemp("corpus") / "d.txt"
        write_sparse_triplet(generate_synthetic(SyntheticSpec(20, 60, 3000, 10.0, rng_seed=7)), f)
        return f

    @staticmethod
    def array_bytes(d):
        return d.matrix().data.nbytes + d.matrix().indices.nbytes

    # reading the whole text at once peaked at 5.6 times the bytes of the
    # weights and ids, and preparing with copied ids at 4.2; with blocks and
    # shared ids the peaks are 2.5 and 2.3
    def test_load_peak(self, corpus):
        d, peak = traced_peak(lambda: load_dataset(corpus))
        assert peak < 3.5 * self.array_bytes(d)

    def test_prepare_peak(self, corpus):
        raw = load_dataset(corpus)
        _, peak = traced_peak(lambda: prepare_family_datasets(raw))
        assert peak < 3.2 * self.array_bytes(raw)

    def test_dense_csv_keeps_one_dense_row(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = np.where(rng.random((200, 500)) < 0.05, rng.normal(size=(200, 500)), 0.0)
        dense[0, :3] = [-0.0, 5e-324, -2.5]
        f = tmp_path / "d.csv"
        with open(f, "w") as fh:
            fh.write("label," + ",".join(f"f{j}" for j in range(500)) + "\n")
            for i, row in enumerate(dense.tolist()):
                fh.write(f"c{i % 3}," + ",".join(map(repr, row)) + "\n")
        d, peak = traced_peak(lambda: load_dataset(f, format="dense-csv"))
        # below the dense matrix; holding every row as Python floats peaks at 4.3 MB
        assert peak < dense.nbytes
        want = sp.csr_matrix(dense)
        X = d.matrix()
        assert X.indptr.tolist() == want.indptr.tolist()
        assert X.indices.tolist() == want.indices.tolist()
        assert X.data.tobytes() == want.data.tobytes()
        assert d.label_names == ["c0", "c1", "c2"]


INCREASING = "feature ids must be non-negative and strictly increasing"


class TestDatasetMatrix:
    @pytest.mark.parametrize("data,indices,indptr,message", [
        ([1.0, 2.0], [3, 1], [0, 2], "instance 0: " + INCREASING),
        ([1.0, 2.0, 3.0], [0, 2, 2], [0, 1, 3], "instance 1: " + INCREASING),
        ([1.0, 1.0], [0, -1], [0, 1, 2], "instance 1: " + INCREASING),
        ([1.0, 0.0], [0, 1], [0, 1, 2], "instance 1: explicit zero weights are not allowed"),
        ([np.nan], [2], [0, 0, 1], "instance 1: weights must be finite"),
        ([1.0, 1.0], [0, 4], [0, 2, 2], "instance 0: feature id >= vocab size 4"),
    ])
    def test_rejects_non_canonical_rows(self, data, indices, indptr, message):
        X = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, 4))
        with pytest.raises(DataFormatError) as e:
            Dataset(X, [-1] * X.shape[0])
        assert str(e.value) == message

    def test_rejects_other_formats(self):
        with pytest.raises(TypeError):
            Dataset(sp.coo_matrix(np.eye(2)), [-1, -1])
        with pytest.raises(TypeError):
            Dataset(np.eye(2), [-1, -1])

    def test_rows_are_views_of_the_canonical_matrix(self):
        d = make_dataset([[(2, 1.0), (0, 3.0)], [], [(1, 2.0)]], vocab=3)
        X = d.matrix()
        assert X.dtype == np.float64 and X.indices.dtype == np.int64
        assert X.indptr.tolist() == [0, 2, 2, 3]
        assert entries(d.row(0)) == [(0, 3.0), (2, 1.0)]
        assert entries(d.row(-1)) == [(1, 2.0)]
        assert d.row(2).shape == (1, 3)
        assert np.shares_memory(d.row(2).data, X.data)
        assert [x.nnz for x in d.instances] == [2, 0, 1]
        with pytest.raises(IndexError):
            d.row(3)

    def test_arrays_are_read_only_views(self):
        d = make_dataset([[(2, 1.0), (0, 3.0)], [(1, 0.5)]], vocab=3)
        X = d.matrix()
        for a in (X.data, X.indices, X.indptr):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            X.data[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            X.eliminate_zeros()
        X.sort_indices()  # sorted already, so it writes nothing
        X.has_sorted_indices = False
        with pytest.raises(ValueError, match="read-only"):
            X.sort_indices()
        assert d.row(0).data.tolist() == [3.0, 1.0]

    def test_products_and_row_indexing_read_the_arrays(self):
        d = make_dataset([[(2, 1.0), (0, 3.0)], [(1, 0.5)]], vocab=3)
        X = d.matrix()
        assert (X @ np.array([1.0, 2.0, 4.0])).tolist() == [7.0, 1.0]
        assert X[[1, 0]].toarray().tolist() == [[0.0, 0.5, 0.0], [3.0, 0.0, 1.0]]

    def test_the_callers_arrays_stay_writable(self):
        data, indices, indptr = np.array([1.0, 2.0]), np.array([0, 2]), np.array([0, 1, 2])
        X = sp.csr_matrix((2, 3))
        X.data, X.indices, X.indptr = data, indices, indptr
        d = Dataset(X, [-1, -1])
        assert np.shares_memory(d.matrix().indices, indices)
        assert all(a.flags.writeable for a in (data, indices, indptr))
        data[0] = 5.0  # the dataset sees it, as it holds a view
        assert d.matrix().data[0] == 5.0


def loop_tfidf_normalize(d, norm):
    """tfidf_weight then normalize_dataset, one instance at a time, as the
    per-row code computed them: the reference the matrix versions must match
    bit for bit."""
    df = np.zeros(d.vocab_size)
    for x in d.instances:
        df[x.indices] += 1.0
    idf = np.where(df > 0, np.log(len(d) / np.maximum(df, 1.0)), 0.0)
    out = []
    for x in d.instances:
        w = x.data * idf[x.indices]
        vec = from_pairs(zip(x.indices.tolist(), w.tolist()), d.vocab_size)
        if vec.nnz:
            out.append(normalize(vec, norm))
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 300), min_size=1, max_size=12),
    st.sampled_from([Norm.L1, Norm.L2]),
)
def test_tfidf_and_normalize_match_row_loop(seed, lengths, norm):
    # rows longer than 128 entries take numpy's recursive pairwise sum
    rng = np.random.default_rng(seed)
    V = 400
    rows = [
        [(int(j), float(v)) for j, v in zip(
            rng.choice(V, size=k, replace=False), rng.lognormal(0.0, 3.0, size=k))]
        for k in lengths
    ]
    rows.append([(0, 1.0)])  # one row whose only term may be everywhere
    d = make_dataset(rows, vocab=V)
    expected = loop_tfidf_normalize(d, norm)
    if not expected:  # every term is in every row
        with pytest.raises(DataFormatError, match="no instances survive"):
            tfidf_weight(d)
        return
    got = normalize_dataset(tfidf_weight(d), norm).instances
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.indices.tolist() == b.indices.tolist()
        assert a.data.tobytes() == b.data.tobytes()


class TestGoldIds:
    def test_read_only_with_minus_one_for_no_label(self):
        labels = np.array([2, -1, 0, -1, 7], dtype=np.int32)
        d = make_dataset([[(0, 1.0)]] * 5, vocab=2, labels=labels)
        ids = d.gold_ids
        assert ids.dtype == np.int64 and ids.tolist() == [2, -1, 0, -1, 7]
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 1
        labels[0] = 5  # the dataset holds its own copy
        assert d.gold_ids[0] == 2

    def test_rejects_a_negative_label(self):
        with pytest.raises(ValueError, match="^gold ids must be integers, -1 for no label$"):
            make_dataset([[(0, 1.0)]] * 2, vocab=2, labels=[0, -2])

    @pytest.mark.parametrize("label", [1.5, "a", None])
    def test_rejects_a_label_that_is_not_an_integer(self, label):
        with pytest.raises(ValueError, match="^gold ids must be integers, -1 for no label$"):
            make_dataset([[(0, 1.0)]] * 2, vocab=2, labels=[0, label])

    @pytest.mark.parametrize("labels", [[0], [0, 1, 2], [[0], [1]]])
    def test_rejects_labels_that_do_not_match_the_rows(self, labels):
        with pytest.raises(ValueError, match="^gold_ids length mismatch$"):
            make_dataset([[(0, 1.0)]] * 2, vocab=2, labels=labels)


class TestTfidf:
    def test_one_counted_warning_for_all_drops(self, caplog):
        rows = [[(0, 1.0)] for _ in range(8)] + [[(0, 1.0), (1, 1.0)]]
        d = make_dataset(rows, vocab=2)
        with caplog.at_level(logging.WARNING, logger="exploressl.data"):
            w = tfidf_weight(d)
        assert len(w) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "dropping 8 instance(s) all-zero after tf-idf: 0, 1, 2, 3, 4, ..."
        ]

    def test_nothing_left_raises(self, caplog):
        d = make_dataset([[(0, 1.0)], [(0, 2.0)]], vocab=1)
        with caplog.at_level(logging.WARNING, logger="exploressl.data"):
            with pytest.raises(DataFormatError, match="no instances survive"):
                tfidf_weight(d)
        assert len(caplog.records) == 1


    def test_everywhere_term_vanishes(self):
        d = make_dataset([[(0, 1.0), (1, 2.0)], [(0, 3.0)]], vocab=2)
        w = tfidf_weight(d)
        # feature 0 occurs in both docs -> weight 0 everywhere
        assert all(0 not in x.indices for x in w.instances)

    def test_single_doc_single_term_drops_out(self):
        d = make_dataset([[(0, 3.0)], [(0, 1.0), (1, 1.0)]], vocab=2)
        w = tfidf_weight(d)
        assert len(w) == 1  # first doc becomes all-zero and is dropped

    def test_hand_value(self):
        # 2 docs, term 1 in one doc with tf=2 -> 2*ln 2
        d = make_dataset([[(0, 1.0), (1, 2.0)], [(0, 1.0)]], vocab=2)
        w = tfidf_weight(d)
        assert math.isclose(dict(entries(w.instances[0]))[1], 2.0 * math.log(2.0))

    def test_preserves_sparsity_pattern_otherwise(self):
        rng = np.random.default_rng(0)
        rows = [
            [(j, float(rng.integers(1, 5))) for j in sorted(rng.choice(30, size=5, replace=False))]
            for _ in range(8)
        ]
        d = make_dataset(rows, vocab=30)
        df = np.zeros(30)
        for x in d.instances:
            df[x.indices] += 1
        w = tfidf_weight(d)
        for before, after in zip(d.instances, w.instances):
            expected = [i for i in before.indices if df[i] < len(d)]
            assert after.indices.tolist() == expected


class TestPartitions:
    def _dataset(self, sizes, vocab=10):
        rows, labels = [], []
        for c, size in enumerate(sizes):
            for _ in range(size):
                rows.append([(c % vocab, 1.0)])
                labels.append(c)
        return make_dataset(rows, vocab=vocab, labels=labels)

    def test_five_percent_of_200(self):
        d = self._dataset([200, 200])
        parts = make_partitions(d, 2, 0.05, 1, 0)
        per_class = {}
        assert np.bincount(d.gold_ids[parts[0].labeled_idx]).tolist() == [10, 10]

    def test_ten_partitions_same_seed_classes(self):
        d = self._dataset([50, 40, 30])
        parts = make_partitions(d, 2, 0.05, 10, 3)
        assert len(parts) == 10
        assert all(p.seeded_class_ids.tolist() == [0, 1] for p in parts)
        assert len({p.labeled_idx.tobytes() for p in parts}) > 1

    def test_deterministic(self):
        d = self._dataset([50, 40, 30])
        a = make_partitions(d, 2, 0.1, 5, 9)
        b = make_partitions(d, 2, 0.1, 5, 9)
        for p, q in zip(a, b, strict=True):
            for name in ("seeded_class_ids", "labeled_idx", "unlabeled_idx"):
                assert np.array_equal(getattr(p, name), getattr(q, name))

    def test_cover_and_disjoint(self):
        d = self._dataset([13, 7, 5])
        for p in make_partitions(d, 2, 0.3, 4, 1):
            rows = np.concatenate([p.labeled_idx, p.unlabeled_idx])
            assert np.sort(rows).tolist() == list(range(len(d)))

    def test_minimum_one_seed(self):
        d = self._dataset([3, 3])
        p = make_partitions(d, 2, 0.05, 1, 0)[0]
        assert len(p.labeled_idx) == 2  # ceil(0.15) -> 1 per class

    def test_largest_classes_chosen(self):
        d = self._dataset([5, 20, 10])
        assert choose_seeded_classes(d, 2) == [1, 2]

    def test_too_many_seed_classes(self):
        d = self._dataset([5, 5])
        with pytest.raises(ValueError):
            make_partitions(d, 3, 0.1, 1, 0)

    def test_index_arrays_are_the_sorted_sets(self):
        d = self._dataset([13, 7, 5])
        for p in make_partitions(d, 2, 0.3, 4, 1):
            copy = pickle.loads(pickle.dumps(p))
            for name in ("seeded_class_ids", "labeled_idx", "unlabeled_idx"):
                arr = getattr(p, name)
                assert arr.dtype == np.int64 and not arr.flags.writeable
                assert np.all(arr[1:] > arr[:-1])  # sorted, with no repeats
                assert np.array_equal(getattr(copy, name), arr)
        p = SeedPartition([2, 0], (3, 1), np.array([4, 0, 2], dtype=np.int32))
        assert [getattr(p, f).tolist() for f in ("seeded_class_ids", "labeled_idx",
                                                 "unlabeled_idx")] == [[0, 2], [1, 3], [0, 2, 4]]
        assert p.unlabeled_idx.dtype == np.int64

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_rejects_indices_that_are_not_integers(self, field):
        parts = [[0], [1], [0, 2]]
        parts[field] = parts[field] + [2.5]
        name = ("seeded_class_ids", "labeled_idx", "unlabeled_idx")[field]
        with pytest.raises(ValueError, match=f"^{name} must hold integers$"):
            SeedPartition(*parts)

    # sha256 of the concatenated sorted labeled rows of both partitions, as
    # the set-based implementation drew them; the draws must not move
    LABELED_DIGESTS = {
        (0.1, 0): "51b4398f85aa0434",
        (0.1, 1): "a840d0d5272fabe0",
        (0.1, 2): "f509c330b23f83f0",
        (0.3, 0): "4e8f828f3706db5b",
        (0.3, 1): "0b71245d1eac2c86",
        (0.3, 2): "c7228525ec170dc4",
    }

    @pytest.mark.parametrize("fraction, seed", sorted(LABELED_DIGESTS))
    def test_labeled_rows_are_pinned(self, fraction, seed):
        d = generate_synthetic(SyntheticSpec(4, 25, 30, separation=2.0, rng_seed=3))
        h = hashlib.sha256()
        for p in make_partitions(d, 3, fraction, 2, seed):
            h.update(p.labeled_idx.tobytes())
        assert h.hexdigest()[:16] == self.LABELED_DIGESTS[fraction, seed]

    @pytest.mark.parametrize("labeled, unlabeled, message", [
        ({0}, {1, 2}, "does not cover"),  # row 3 missing
        ({0}, {1, 2, 3, 4}, "does not cover"),  # row 4 beyond the dataset
        ({0, -1}, {1, 2, 3}, "does not cover"),
        (set(), {0, 1, 2}, "does not cover"),
        ({0, 3}, {1, 2}, "labeled instance 3 has non-seeded label"),
        (set(), {0, 1, 2, 3}, None),
        ([0], [1, 1, 2], "does not cover"),  # row 1 twice, row 3 missing: four rows
        ([0, 0], [1, 2], "does not cover"),
        ([0], [0, 1, 2], "does not cover"),  # row 0 in both, row 3 missing
        ([0], [1, 2, 4], "does not cover"),  # four rows, one outside [0, 4)
        ([0], [-1, 1, 2], "does not cover"),
    ])
    def test_validate(self, labeled, unlabeled, message):
        d = self._dataset([3, 1])  # rows 0-2 in class 0, row 3 in class 1
        p = SeedPartition([0], sorted(labeled), sorted(unlabeled))
        if message is None:
            p.validate(d)
        else:
            with pytest.raises(ValueError, match=message):
                p.validate(d)

    @pytest.mark.parametrize("labeled, first_bad", [
        ({0, 1, 2, 3}, 1),  # row 1 has no label
        ({0, 2, 3, 4}, 2),  # row 2 is in class 1, which is not seeded
        ({0, 3, 4}, 4),
    ])
    def test_validate_names_the_first_labeled_row_outside_the_seeds(self, labeled, first_bad):
        d = make_dataset([[(0, 1.0)]] * 5, vocab=2, labels=[0, -1, 1, 0, 2])
        p = SeedPartition([0], sorted(labeled), sorted(set(range(5)) - labeled))
        message = f"^labeled instance {first_bad} has non-seeded label$"
        with pytest.raises(ValueError, match=message):
            p.validate(d)


def test_subset_keeps_alignment():
    d = make_dataset([[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]], vocab=3, labels=[0, 1, 2])
    s = subset(d, [2, 0])
    assert s.gold_ids.tolist() == [2, 0]
    assert entries(s.instances[0]) == [(2, 1.0)]
