import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mklmmwu import (
    Dataset,
    EmptyDataset,
    MklError,
    NonBinaryLabels,
    OneClassSplit,
    ParseError,
    ScalingParams,
    apply_scaling,
    fit_scaling,
    parse_libsvm,
    split,
)
from mklmmwu import data as data_module
from mklmmwu.data import BLOCK_RECORDS

from reference import parse_libsvm_records, serialize_libsvm


def _as_file(text: str):
    """A text file object over `text`, read with universal newlines as `open` reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


class TestParse:
    def test_basic_records(self):
        ds = parse_libsvm("+1 1:0.5 3:1.0\n-1 2:0.25")
        assert ds.n == 2 and ds.d == 3
        assert np.array_equal(ds.points, [[0.5, 0.0, 1.0], [0.0, 0.25, 0.0]])
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_empty_input(self):
        with pytest.raises(EmptyDataset):
            parse_libsvm("")
        with pytest.raises(EmptyDataset):
            parse_libsvm("# only a comment\n\n   \n")

    def test_zero_one_label_mapping(self):
        ds = parse_libsvm("1 1:0.1\n0 1:0.9")
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_one_two_label_mapping(self):
        ds = parse_libsvm("2 1:0.1\n1 1:0.9")
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_non_binary_labels(self):
        with pytest.raises(NonBinaryLabels):
            parse_libsvm("0 1:1\n1 1:1\n2 1:1")

    def test_malformed_lines_carry_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:0.5\n-1 nonsense\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("spam 1:0.5")
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm("+1 1:1\n-1 1:1\n+1 2:1 2:2")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 0:0.5")
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 3:0.5 2:0.5")

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n+1 1:0.5  # trailing\n\n-1 2:0.25\n")
        assert ds.n == 2 and ds.d == 2

    def test_n_features_override(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1", n_features=5)
        assert ds.d == 5
        with pytest.raises(ParseError):
            parse_libsvm("+1 4:1\n-1 1:1", n_features=3)

    def test_index_past_n_features_reports_its_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1 3:1\n-1 4:1\n+1 5:1", n_features=3)

    def test_unallocatable_width_names_the_first_line_with_the_largest_index(self):
        # a 3 x 99999999999 dense array needs 2.2 TiB, more than any test host
        # can allocate; the error names line 2, not the repeat on line 3
        with pytest.raises(ParseError, match="line 2: .*largest index 99999999999"):
            parse_libsvm("+1 1:1\n-1 99999999999:1\n+1 5:1 99999999999:2")
        # an index past int64 is reported alike, after the rest of the file is checked
        with pytest.raises(ParseError, match=f"line 2: .*largest index {2**64}"):
            parse_libsvm(f"+1 1:1\n-1 {2**64}:1\n+1 5:1 {2**64}:2")
        with pytest.raises(ParseError, match="line 3: bad label 'x'"):
            parse_libsvm(f"+1 1:1\n-1 {2**64}:1\nx 5:1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("+1 1: 2", "line 1: bad feature token '1:'"),
            ("+1 1:2:3", "line 1: bad feature token '1:2:3'"),
            ("+1 5", "line 1: expected index:value, got '5'"),
            ("+1 :2", "line 1: bad feature token ':2'"),
            ("+1 a:1", "line 1: bad feature token 'a:1'"),
            ("+1 1:nan", "line 1: non-finite value in '1:nan'"),
            ("+1 1:inf 2:x", "line 1: non-finite value in '1:inf'"),
            ("+1 1:1e400", "line 1: non-finite value in '1:1e400'"),
            ("+1 0:1", "line 1: feature index 0 is not 1-based"),
            ("+1 -1:2", "line 1: feature index -1 is not 1-based"),
            ("+1 2:1 2:2", "line 1: feature index 2 not strictly increasing"),
            ("+1 2:1 1:x", "line 1: bad feature token '1:x'"),
            ("+1 \u01fe1:2", "line 1: bad feature token '\u01fe1:2'"),
            ("x 1:1", "line 1: bad label 'x'"),
            ("+1 1:1\n\n-1 1:2 1:3", "line 3: feature index 1 not strictly increasing"),
            ("nan 1:1", "line 1: bad label 'nan'"),
            ("+1 1:1\ninf 1:2", "line 2: bad label 'inf'"),
            ("-inf 1:1", "line 1: bad label '-inf'"),
        ],
    )
    def test_error_messages(self, text, message):
        for source in (text, _as_file(text)):
            with pytest.raises(ParseError) as exc:
                parse_libsvm(source)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, points",
        [
            ("+1\n-1 2:1", [[0.0, 0.0], [0.0, 1.0]]),  # a label-only record
            ("+1\t1:0.5\r\n-1\t2:1\r\n", [[0.5, 0.0], [0.0, 1.0]]),
            ("+1 01:1\n-1 2:1", [[1.0, 0.0], [0.0, 1.0]]),
            ("+1 1:1 # c\n-1 2:3#x:y", [[1.0, 0.0], [0.0, 3.0]]),
        ],
    )
    def test_accepted_records(self, text, points):
        for source in (text, _as_file(text)):
            ds = parse_libsvm(source)
            assert np.array_equal(ds.points, points)
            assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_label_pair_is_found_per_file(self):
        for text, pair in (("+1 1:1\n-1 1:2", (-1.0, 1.0)), ("1 1:1\n0 1:2", (0.0, 1.0)),
                           ("2 1:1\n1 1:2", (1.0, 2.0)), ("1 1:1\n1 1:2", (-1.0, 1.0))):
            assert parse_libsvm(text).label_pair == pair

    def test_given_pair_decodes_a_file_of_one_label(self):
        # on its own, a file of `1` records reads them as +1
        ds = parse_libsvm("1 1:0.5\n1 1:0.25", labels=(1.0, 2.0))
        assert np.array_equal(ds.labels, [-1.0, -1.0]) and ds.label_pair == (1.0, 2.0)
        assert parse_libsvm("1 1:0.5", labels=(0.0, 1.0)).labels.tolist() == [1.0]

    def test_label_outside_the_given_pair_in_a_full_block(self):
        # every other record of the block converts and passes, so only the
        # label check sends the block to the record routine
        lines = ["+1 1:0.5 2:1", "-1 2:0.25"] * (BLOCK_RECORDS // 2)
        lines[37] = "0 1:0.5"
        text = "\n".join(lines) + "\n"
        assert parse_libsvm(text.replace("0 1:0.5", "1 1:0.5")).n == BLOCK_RECORDS
        for source in (text, _as_file(text)):
            with pytest.raises(ParseError) as exc:
                parse_libsvm(source, labels=(-1.0, 1.0))
            assert str(exc.value) == "line 38: label '0' is outside the label pair -1 1"
            assert exc.value.line_no == 38

    def test_label_outside_the_given_pair_in_the_record_fallback(self, monkeypatch):
        # numpy's reader refuses line 3's `1_0`, which Python reads as 10, so
        # the block of lines 1-3 goes to the record routine, where line 2's
        # label raises
        monkeypatch.setattr(data_module, "BLOCK_RECORDS", 3)
        text = "2 1:1\n-1 2:1\n1 1_0:1\n2 1:0.5\n"
        for source in (text, _as_file(text)):
            with pytest.raises(ParseError, match=r"^line 2: label '-1' is outside the label pair 1 2$"):
                parse_libsvm(source, labels=(1.0, 2.0))
        ds = parse_libsvm(text.replace("-1 ", "1 "), labels=(1.0, 2.0))
        assert ds.points.shape == (4, 10) and ds.labels.tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_parse_serialize_parse_idempotent(self):
        text = "+1 1:0.5 3:1.0\n-1 2:0.25\n+1 1:0.125\n"
        first = parse_libsvm(text)
        second = parse_libsvm(serialize_libsvm(first))
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.labels, second.labels)
        assert serialize_libsvm(first) == serialize_libsvm(second)


# every line break str.splitlines knows
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

_FAULTY = ("x 1:1", "+1 2:1 2:2", "+1 1:nan", "-1 5")
_records = st.one_of(
    st.tuples(
        st.sampled_from(("+1", "-1", "1", "2")),
        st.lists(st.integers(1, 6), unique=True, max_size=4).map(sorted),
        st.lists(st.floats(-1e3, 1e3).map(repr), min_size=4, max_size=4),
        st.sampled_from(("", " # c", "#x:y", "\t")),
    ).map(lambda r: " ".join([r[0], *(f"{i}:{v}" for i, v in zip(r[1], r[2]))]) + r[3]),
    st.sampled_from(("", "   ", "# only a comment")),
    st.sampled_from(_FAULTY),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_records, st.sampled_from(_LINE_BREAKS)), max_size=8), st.booleans())
def test_str_and_file_sources_parse_alike(lines, final_break):
    text = "".join(record + brk for record, brk in lines)
    if lines and not final_break:
        text = text[: -len(lines[-1][1])]
    outcomes = []
    for source in (text, _as_file(text)):
        try:
            ds = parse_libsvm(source)
            outcomes.append((ds.points.shape, ds.points.tobytes(), ds.labels.tobytes()))
        except ParseError as exc:  # its line counts the lines of str.splitlines
            assert text.splitlines()[exc.line_no - 1] in _FAULTY
            outcomes.append((type(exc), str(exc)))
        except MklError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


# Python reads the first five and numpy's reader refuses them. Python refuses
# the sixth, where numpy's integer reader takes U+01FE for a digit. The last
# two convert, and a check must catch them: a label that is not finite, and
# a width no host can allocate.
_ODD = ("+1 1_0:1", "-1 1:1_5", "+1 \uff11:1", "-1 \u0661:2", f"+1 2:1 {2**63}:1", "-1 \u01fe1:2",
        "inf 2:1", "-1 99999999999:1")
_mixed = st.one_of(_records, st.sampled_from(("+1", "-1", "2") + _ODD))


def _outcome(parse, source, n_features):
    try:
        ds = parse(source, n_features)
    except MklError as exc:
        return type(exc), str(exc)
    return ds.points.shape, ds.points.tobytes(), ds.labels.tobytes()


@settings(max_examples=150, deadline=None)
@example([("-1 \u01fe1:2", "\n")], 1, BLOCK_RECORDS, None)
@example([("inf 2:1", "\n")], BLOCK_RECORDS, 2, None)
@example([("-1 99999999999:1", "\n")], 1, BLOCK_RECORDS, None)
@given(st.lists(st.tuples(_mixed, st.sampled_from(_LINE_BREAKS)), max_size=12),
       st.sampled_from((0, 1, BLOCK_RECORDS - 1, BLOCK_RECORDS, 2 * BLOCK_RECORDS - 1)),
       st.sampled_from((1, 2, 5, BLOCK_RECORDS)), st.sampled_from((None, 5)))
def test_blocks_parse_as_the_record_reference(lines, lead, block, n_features):
    # clean records first, so the drawn ones land at every place in a block,
    # after clean blocks; a block of label-only records must not warn
    text = "".join(("+1 1:0.5 4:2\n", "-1\n")[i % 2] for i in range(lead))
    text += "".join(record + brk for record, brk in lines)
    outcomes = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(data_module, "BLOCK_RECORDS", block)
        for parse in (parse_libsvm, parse_libsvm_records):
            for source in (text, _as_file(text)):
                outcomes.append(_outcome(parse, source, n_features))
    assert outcomes == [outcomes[-1]] * 4


def test_parse_peak_memory_is_a_few_dense_arrays(tmp_path):
    # 5000 x 33 with every feature present, like the benchmark's query file;
    # holding the text, its lines and boxed numbers took 12x the dense array
    rng = np.random.default_rng(5)
    n, d = 5000, 33
    path = tmp_path / "dense.svm"
    with open(path, "w", encoding="utf-8") as fh:
        for x in rng.random((n, d)):
            fh.write("+1 " + " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(x)) + "\n")
    tracemalloc.start()
    with open(path, encoding="utf-8") as fh:
        ds = parse_libsvm(fh)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert ds.points.shape == (n, d)
    assert peak <= 5 * ds.points.nbytes, f"file: peak {peak / ds.points.nbytes:.2f}x the dense array"
    text = path.read_text(encoding="utf-8")  # the caller's copy is not the parser's
    tracemalloc.start()
    parse_libsvm(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 5 * ds.points.nbytes, f"str: peak {peak / ds.points.nbytes:.2f}x the dense array"


# about 30% exact zeros; the rest any finite double, subnormals, -0.0 and
# the extremes included
_cells = st.tuples(st.integers(0, 9), st.floats(allow_nan=False, allow_infinity=False)).map(
    lambda t: 0.0 if t[0] < 3 else t[1]
)


@st.composite
def _datasets(draw):
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    points = draw(st.lists(_cells, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    return Dataset(np.array(points).reshape(n, d), np.array(labels))


@settings(max_examples=60, deadline=None)
@given(_datasets())
def test_serialize_parse_round_trip_property(ds):
    # value equality: -0.0 is omitted as zero and comes back as 0.0
    text = serialize_libsvm(ds)
    back = parse_libsvm(text, n_features=ds.d)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)
    assert serialize_libsvm(back) == text


class TestDatasetInvariants:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))

    def test_rejects_a_label_pair_the_parser_does_not_know(self):
        with pytest.raises(ValueError, match="label pair"):
            Dataset(np.zeros((2, 1)), np.array([1.0, -1.0]), (2.0, 4.0))

    def test_subset_split_and_scaling_keep_the_label_pair(self):
        ds = parse_libsvm("1 1:0\n2 1:1\n1 1:2\n2 1:3\n1 1:4\n2 1:5")
        train, test = split(ds, 0.5, seed=0)
        derived = (ds.subset([1]), train, test, apply_scaling(ds, fit_scaling(ds)))
        assert [d.label_pair for d in derived] == [(1.0, 2.0)] * 4


class TestScaling:
    def test_affine_normalization(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([1.0, -1.0, 1.0]))
        out = apply_scaling(ds, fit_scaling(ds))
        assert np.allclose(out.points[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_goes_to_zero(self):
        ds = Dataset(np.array([[3.0, 1.0], [3.0, 2.0]]), np.array([1.0, -1.0]))
        out = apply_scaling(ds, fit_scaling(ds))
        assert np.array_equal(out.points[:, 0], [0.0, 0.0])

    def test_out_of_range_clamped(self):
        train = Dataset(np.array([[2.0], [6.0]]), np.array([1.0, -1.0]))
        params = fit_scaling(train)
        test = Dataset(np.array([[8.0], [0.0]]), np.array([1.0, -1.0]))
        out = apply_scaling(test, params)
        assert np.array_equal(out.points[:, 0], [1.0, 0.0])

    def test_fit_apply_lands_in_unit_box(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(10, 4)) * rng.uniform(0.1, 50)
            ds = Dataset(pts, np.where(rng.random(10) > 0.5, 1.0, -1.0))
            out = apply_scaling(ds, fit_scaling(ds))
            assert out.points.min() >= 0.0 and out.points.max() <= 1.0

    def test_span_past_float64_names_the_feature(self):
        ds = Dataset(np.array([[0.0, 1e308], [1.0, -1e308]]), np.array([1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"feature index 2 spans \[-1e\+308, 1e\+308\]"):
                fit_scaling(ds)

    def test_far_query_clamps_without_warning(self):
        params = ScalingParams(np.array([1e308]), np.array([1.5e308]))
        queries = Dataset(np.array([[-1e308], [1.2e308]]), np.array([1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_scaling(queries, params)
        assert np.allclose(out.points[:, 0], [0.0, 0.4])

    def test_dimension_mismatch(self):
        ds = Dataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
        params = fit_scaling(Dataset(np.zeros((2, 3)), np.array([1.0, -1.0])))
        with pytest.raises(ValueError):
            apply_scaling(ds, params)


class TestSplit:
    def _dataset(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        labels[:2] = [1.0, -1.0]
        return Dataset(rng.random((n, 2)), labels)

    def test_cardinality(self):
        train, test = split(self._dataset(), 0.8, seed=3)
        assert train.n == 8 and test.n == 2

    def test_deterministic_and_partition(self):
        ds = self._dataset(40, seed=1)
        a_train, a_test = split(ds, 0.7, seed=9)
        b_train, b_test = split(ds, 0.7, seed=9)
        assert np.array_equal(a_train.points, b_train.points)
        assert np.array_equal(a_test.points, b_test.points)
        combined = np.vstack([a_train.points, a_test.points])
        original = ds.points[np.lexsort(ds.points.T)]
        assert np.array_equal(combined[np.lexsort(combined.T)], original)
        assert a_train.n + a_test.n == ds.n

    def test_one_class_error(self):
        ds = Dataset(np.random.default_rng(0).random((6, 2)), np.ones(6))
        with pytest.raises(OneClassSplit):
            split(ds, 0.5, seed=0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split(self._dataset(), 1.0, seed=0)
        with pytest.raises(ValueError):
            split(self._dataset(), 0.0, seed=0)
