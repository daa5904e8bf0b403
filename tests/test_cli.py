import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mklmmwu import Dataset, NumericalFailure, apply_scaling, load_model, parse_libsvm, predict
from mklmmwu.cli import main, median_ci, run_protocol, stratified_folds
from mklmmwu.solver import SolverConfig, iteration_budget

from helpers import make_blobs, make_random_dataset
from reference import serialize_libsvm


def _write_blobs(path, n=40, seed=0):
    ds = make_blobs(n, seed)
    path.write_text(serialize_libsvm(ds), encoding="utf-8")
    return ds


def _pairs(stdout):
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _report(capsys):
    return _pairs(capsys.readouterr().out)


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "blobs.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        code = main(
            ["train", "--data", str(data), "--out", str(model_path),
             "--eps", "0.3", "--C", "10", "--seed", "1"]
        )
        rep = _report(capsys)
        assert code == 0
        assert model_path.exists()
        assert rep["margin"] == "l2"
        assert float(rep["train_error"]) == 0.0
        assert float(rep["test_error"]) == 0.0
        assert int(rep["m"]) == 12

    def test_deterministic_given_seed(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, seed=2)
        out1, out2 = tmp_path / "a.mkl", tmp_path / "b.mkl"
        for out in (out1, out2):
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--eps", "0.3", "--seed", "7", "--max-iters", "300"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_eps_exits_2(self, tmp_path):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data), "--eps", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "5"], ["--C", "nan"], ["--eps", "nan"], ["--C", "0", "--margin", "hard"]],
        ids=["eps_above_2rho", "C_nan", "eps_nan", "C0_hard_margin"],
    )
    def test_bad_solver_settings_exit_2(self, tmp_path, flags):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data), *flags])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [(["train", "--eps", "1e-170"], "eps"), (["train", "--eps", "1e-160"], "eps"),
         (["cv", "--eps-grid", "1e-200"], "eps"), (["train", "--C", "1e-320"], "C"),
         (["train", "--seed", "-1"], "--seed"), (["cv", "--seed", "-1"], "--seed")],
        ids=["eps_squared_underflows", "budget_overflows", "eps_grid_squared_underflows", "ridge_overflows",
             "negative_seed", "cv_negative_seed"],
    )
    def test_unrunnable_settings_exit_2_naming_the_option(self, tmp_path, capsys, argv, option):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        with pytest.raises(SystemExit) as err:
            main([*argv, "--data", str(data)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        assert err_text.splitlines()[-1].startswith(f"mklmmwu: error: {option} ")

    def test_budget_overflowing_for_the_data_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        assert main(["train", "--data", str(data), "--eps", "3.2e-154"]) == 3
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text and "error: eps 3.2e-154 is too small for n=24" in err_text

    def test_missing_file_exits_3(self, capsys):
        assert main(["train", "--data", "/nonexistent/data.svm"]) == 3

    def test_numerical_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        import mklmmwu.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalFailure(17)

        monkeypatch.setattr(cli_mod, "fit", boom)
        assert main(["train", "--data", str(data)]) == 4

    def test_feature_span_past_float64_exits_3(self, tmp_path, capsys):
        data = tmp_path / "wide.svm"
        data.write_text("+1 1:1e308\n-1 1:-1e308\n+1 1:1e308\n-1 1:-1e308\n+1 1:0.5\n-1 1:0.2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--data", str(data), "--max-iters", "20", "--train-fraction", "0.9"])
        assert code == 3
        assert "error: feature index 1 spans [-1e+308, 1e+308]" in capsys.readouterr().err

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # 40 blobs split with seed 1 leave both classes on each side
        text = serialize_libsvm(make_blobs(40, 0)).encode("utf-8")
        reports = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name / "d.svm"
            path.parent.mkdir()
            path.write_bytes(data)
            assert main(["train", "--data", str(path), "--max-iters", "5", "--seed", "1"]) == 0
            reports.append(_report(capsys))
            del reports[-1]["wall_seconds"]
        assert reports[0] == reports[1]

    def test_split_model_keeps_the_file_label_pair(self, tmp_path, capsys):
        # the train side of the split writes the file's pair, and eval reads
        # a file of only `1` records as -1 with it
        ds = make_blobs(40, 0)
        data = tmp_path / "one_two.svm"
        data.write_text(serialize_libsvm(ds).replace("+1 ", "2 ").replace("-1 ", "1 "), encoding="utf-8")
        model_path = tmp_path / "m.mkl"
        assert main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40"]) == 0
        assert "labels 1 2" in model_path.read_text().splitlines()
        ones = tmp_path / "ones.svm"
        ones.write_text("".join(line + "\n" for line in data.read_text().splitlines() if line.startswith("1 ")))
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(ones)]) == 0
        assert _report(capsys)["test_error"] == "0.000000"

    def test_m_counts_the_kernels_the_model_file_keeps(self, tmp_path, capsys):
        # the 12 kernels of the constant feature 2 get mu = 0 exactly and are
        # left out of the file, so train, eval and the file agree on m
        rng = np.random.default_rng(3)
        labels = np.where(np.arange(60) % 2 == 0, 1.0, -1.0)
        points = np.c_[rng.random(60) + 0.5 * labels, rng.random(60), np.full(60, 0.5)]
        data, model_path = tmp_path / "c.svm", tmp_path / "c.mkl"
        data.write_text(serialize_libsvm(Dataset(points, labels)), encoding="utf-8")
        assert main(["train", "--data", str(data), "--out", str(model_path), "--margin", "hard",
                     "--per-feature-kernels", "--seed", "1"]) == 0
        trained = int(_report(capsys)["m"])
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 0
        kernel_lines = sum(line.split()[0] in ("poly", "gaussian") for line in model_path.read_text().splitlines())
        assert trained == int(_report(capsys)["m"]) == kernel_lines == 24

    def test_max_iters_reflected_in_report(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        assert main(["train", "--data", str(data), "--max-iters", "44"]) == 0
        assert int(_report(capsys)["T"]) == 44

    def test_low_eps_budget_formula(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=25, seed=3)
        assert main(["train", "--data", str(data), "--eps", "0.07", "--seed", "1"]) == 0
        rep = _report(capsys)
        n_train = int(rep["n"])
        expected = iteration_budget(SolverConfig(eps=0.07), n_train)
        assert int(rep["T"]) == expected

    def test_explicit_test_file(self, tmp_path, capsys):
        train_file, test_file = tmp_path / "train.svm", tmp_path / "test.svm"
        _write_blobs(train_file, n=36, seed=20)
        _write_blobs(test_file, n=12, seed=21)
        code = main(["train", "--data", str(train_file), "--test", str(test_file),
                     "--eps", "0.3", "--C", "10", "--seed", "2"])
        rep = _report(capsys)
        assert code == 0
        assert int(rep["n"]) == 36  # trains on the whole file when --test is given
        assert float(rep["test_error"]) == 0.0

    def test_csv_report(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        csv_path = tmp_path / "runs.csv"
        for _ in range(2):
            assert main(["train", "--data", str(data), "--max-iters", "40",
                         "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + two runs
        assert lines[0].startswith("dataset,")

    def test_csv_train_and_eval_rows_line_up(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path, csv_path = tmp_path / "m.mkl", tmp_path / "runs.csv"
        assert main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data), "--csv", str(csv_path)]) == 0
        eval_report = _report(capsys)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            train_row, eval_row = csv.DictReader(fh)
        assert None not in train_row and None not in eval_row  # no row longer than the header
        assert train_row["train_error"] != ""
        assert eval_row["train_error"] == ""
        assert eval_row["test_error"] == eval_report["test_error"]
        assert eval_row["active_kernels"] == eval_report["active_kernels"]

    def test_csv_with_another_header_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        csv_path = tmp_path / "runs.csv"
        csv_path.write_text("dataset,n,test_error\nx,1,0.5\n", encoding="utf-8")
        assert main(["train", "--data", str(data), "--max-iters", "40", "--csv", str(csv_path)]) == 3
        assert csv_path.read_text(encoding="utf-8") == "dataset,n,test_error\nx,1,0.5\n"


class TestEval:
    def test_eval_on_training_data(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path),
              "--eps", "0.3", "--C", "10"])
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 0
        assert float(_report(capsys)["test_error"]) == 0.0

    def test_eval_reports_no_iterations_or_wall_time(self, tmp_path, capsys):
        # eval runs no fit: T and wall_seconds are off stdout and empty cells
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path, csv_path = tmp_path / "m.mkl", tmp_path / "runs.csv"
        assert main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data), "--csv", str(csv_path)]) == 0
        keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert "T" not in keys and "wall_seconds" not in keys and "test_error" in keys
        with open(csv_path, newline="", encoding="utf-8") as fh:
            train_row, eval_row = csv.DictReader(fh)
        assert train_row["T"] == "40" and train_row["wall_seconds"] != ""
        assert eval_row["T"] == eval_row["wall_seconds"] == ""

    def test_constant_positive_model_on_balanced_data(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=40)  # exactly half positive
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "60"])
        text = model_path.read_text()
        lines = []
        for line in text.splitlines():
            if line.startswith("bias "):
                lines.append("bias 1e9")
            else:
                lines.append(line)
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 0
        assert float(_report(capsys)["test_error"]) == 0.5

    def test_empty_data_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40"])
        capsys.readouterr()
        empty = tmp_path / "empty.svm"
        empty.write_text("# nothing\n")
        assert main(["eval", "--model", str(model_path), "--data", str(empty)]) == 3

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40"])
        capsys.readouterr()
        wide = tmp_path / "wide.svm"
        wide.write_text("+1 1:0.5 7:0.25\n-1 2:0.5\n")
        assert main(["eval", "--model", str(model_path), "--data", str(wide)]) == 3

    def test_labels_outside_the_model_pair_exit_3(self, tmp_path, capsys):
        # a {0,1} file against a {-1,+1} model: 0 is no label of the model
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40"])
        capsys.readouterr()
        zero_one = tmp_path / "zero_one.svm"
        zero_one.write_text("1 1:0.5 2:0.5\n0 1:0.25\n")
        assert main(["eval", "--model", str(model_path), "--data", str(zero_one)]) == 3
        assert "line 2: label '0' is outside the label pair -1 1" in capsys.readouterr().err

    def test_v3_model_file_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        model_path = tmp_path / "m.mkl"
        main(["train", "--data", str(data), "--out", str(model_path), "--max-iters", "40"])
        lines = model_path.read_text().splitlines()
        assert lines[0] == "mklmmwu v4" and lines[4] == "labels -1 1"
        lines[0], lines[4] = "mklmmwu v3", "rho 1.5"  # the v3 layout of the same fit
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 3
        assert "unsupported model header 'mklmmwu v3'" in capsys.readouterr().err


class TestCv:
    def test_degenerate_grid_returns_the_pair(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        code = main(["cv", "--data", str(data), "--eps-grid", "0.3", "--C-grid", "1",
                     "--folds", "2", "--max-iters", "150", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best_eps=0.3" in out
        assert "best_C=1" in out

    def test_repeats_emit_median_and_interval(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30, seed=5)
        code = main(["cv", "--data", str(data), "--eps-grid", "0.4", "--C-grid", "1", "10",
                     "--folds", "2", "--repeats", "3", "--max-iters", "150", "--seed", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "median_test_error=" in out
        assert "median_ci_low=" in out and "median_ci_high=" in out
        assert "repeats=3" in out

    def test_grid_table_printed(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30, seed=7)
        main(["cv", "--data", str(data), "--eps-grid", "0.3", "0.4", "--C-grid", "1",
              "--folds", "2", "--max-iters", "120", "--seed", "8"])
        out = capsys.readouterr().out
        table_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(table_lines) == 2  # one row per grid cell


    @pytest.mark.parametrize(
        "flags",
        [["--folds", "0"], ["--folds", "1"], ["--repeats", "0"], ["--jobs", "0"],
         ["--C", "1"], ["--eps", "0.3"], ["--csv", "x"], ["--verbose"]],  # train's options; cv does not read them
        ids=["folds0", "folds1", "repeats0", "jobs0", "C", "eps", "csv", "verbose"],
    )
    def test_bad_counts_exit_2(self, tmp_path, flags):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        with pytest.raises(SystemExit) as err:
            main(["cv", "--data", str(data), "--C-grid", "1", "--max-iters", "50", *flags])
        assert err.value.code == 2

    def test_empty_fold_is_skipped(self, tmp_path, capsys):
        # 6 records, 80/20 split at seed 1: 5 train points, so one of 4 folds has no val point
        data = tmp_path / "d.svm"
        data.write_text("".join(f"{y} 1:{i / 5:g} 2:{(i * 3 % 5) / 5:g}\n"
                                for i, y in enumerate(["+1", "+1", "+1", "+1", "-1", "-1"])), encoding="utf-8")
        code = main(["cv", "--data", str(data), "--C-grid", "1", "--folds", "4", "--max-iters", "20", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "eps      C        mean_cv_error" in captured.out
        assert "repeats=1" in captured.out
        assert captured.err.count("warning: skipping a fold") == 1

    def test_every_fold_skipped_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:0.1\n-1 1:0.9\n-1 1:0.7\n", encoding="utf-8")
        code = main(["cv", "--data", str(data), "--C-grid", "1", "--folds", "2", "--max-iters", "20", "--seed", "0"])
        assert code == 3
        assert "every fold was skipped" in capsys.readouterr().err

    def test_pool_and_serial_records_agree(self):
        data = make_random_dataset(40, 3, 12)  # no signal, so the CV errors differ per cell
        kwargs = dict(eps_grid=[0.3], c_grid=[1.0, 10.0], folds=2, repeats=2, seed=3, max_iters=100)
        serial = run_protocol(data, jobs=1, **kwargs)
        pooled = run_protocol(data, jobs=2, **kwargs)
        assert len(serial) == 2
        assert pooled == serial

    @pytest.mark.parametrize(
        "flags", [["--C-grid", "-1"], ["--eps-grid", "nan"]], ids=["C_grid_negative", "eps_grid_nan"]
    )
    def test_bad_grid_exits_2(self, tmp_path, flags):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        with pytest.raises(SystemExit) as err:
            main(["cv", "--data", str(data), "--folds", "2", "--max-iters", "50", *flags])
        assert err.value.code == 2


class TestStratifiedFolds:
    def test_partition_and_ratio(self):
        ds = make_random_dataset(53, 2, 9, pos_fraction=0.6)
        folds = stratified_folds(ds.labels, 5, seed=0)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(53))
        n_pos = int((ds.labels > 0).sum())
        for trn, val in folds:
            val_pos = int((ds.labels[val] > 0).sum())
            # within one sample of the proportional share
            assert abs(val_pos - n_pos * len(val) / 53) <= 1.0
            assert len(np.intersect1d(trn, val)) == 0

    def test_deterministic(self):
        ds = make_random_dataset(31, 2, 10)
        a = stratified_folds(ds.labels, 4, seed=3)
        b = stratified_folds(ds.labels, 4, seed=3)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)


class TestMedianCi:
    def test_small_samples_use_range(self):
        assert median_ci([3.0, 1.0, 2.0]) == (1.0, 3.0)

    def test_order_statistic_bounds(self):
        values = list(range(1, 31))
        lo, hi = median_ci(values)
        # sign-test bounds for n=30 at 95%: ranks 10 and 21
        assert (lo, hi) == (10, 21)

    def test_ranks_match_the_binomial_tail(self):
        # the first k with P(Binomial(n, 1/2) <= k) > 0.025, summed in floats,
        # which hold 2^-n up to n = 1032
        for n in range(6, 1033):
            cdf, k, comb = 0.0, 0, 1
            while cdf + comb * 0.5**n <= 0.025:
                cdf += comb * 0.5**n
                comb = comb * (n - k) // (k + 1)
                k += 1
            assert comb == math.comb(n, k)
            rank = max(k, 1)
            assert median_ci(range(1, n + 1)) == (rank, n + 1 - rank), n

    def test_many_values_have_finite_bounds(self):
        # 2^n is past the float range from n = 1025 on
        assert median_ci(range(1, 1034)) == (485, 549)
        assert median_ci(range(1, 5001)) == (2431, 2570)


#: Raw label tokens (low, high) of the encodings the parser accepts.
ENCODINGS = {"-1/+1": ("-1", "+1"), "0/1": ("0", "1"), "1/2": ("1", "2")}

#: Training settings of the metamorphic properties: few iterations, since
#: they relate runs and test no guarantee.
QUICK = ("--max-iters", "15")

#: Flags of the two kernel families.
FAMILIES = st.sampled_from([(), ("--per-feature-kernels",)])


@st.composite
def _problems(draw):
    """A tiny train and test set: (points, labels) each, labels +-1 with
    both classes in training, some zero (omitted) coordinates, though not
    the last one of every training point, and the raw label encoding of
    both files."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    sets = []
    for n in (draw(st.integers(4, 12)), draw(st.integers(2, 8))):
        points = rng.uniform(-1.0, 2.0, (n, d))
        points[rng.random((n, d)) < 0.2] = 0.0
        labels = rng.choice([-1.0, 1.0], n)
        sets.append((points, labels))
    sets[0][1][:2] = (-1.0, 1.0)
    if not sets[0][0][:, -1].any():  # the training file sets d, and a test index past it exits 3
        sets[0][0][0, -1] = 0.5
    return sets[0], sets[1], ENCODINGS[draw(st.sampled_from(tuple(ENCODINGS)))]


def _lines(points, labels, encoding):
    """LibSVM records of the points, zeros left out, 17 significant digits."""
    return [" ".join([encoding[int(y > 0)]] + [f"{j + 1}:{v:.17g}" for j, v in enumerate(x) if v != 0.0])
            for x, y in zip(points, labels)]


def _write(directory, name, lines, newline="\n", bom=False):
    path = os.path.join(directory, name)
    os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((b"\xef\xbb\xbf" if bom else b"") + "".join(line + newline for line in lines).encode("utf-8"))
    return path


def _run(*argv):
    """cli.main on argv: its exit code and stdout, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _without_wall(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("wall_seconds=")]


def _train(directory, train_lines, test_lines, *flags, **file_options):
    """`train --test` in `directory` on the given records: (stdout, model
    file text); the command must succeed."""
    data = _write(directory, "train.svm", train_lines, **file_options)
    test = _write(directory, "test.svm", test_lines, **file_options)
    model = os.path.join(directory, "model.mkl")
    code, out = _run("train", "--data", data, "--test", test, "--out", model, *QUICK, *flags)
    assert code == 0, out
    with open(model, encoding="utf-8") as fh:
        return out, fh.read()


def _subsets_keep_their_predictions(directory, test_lines, subsets):
    """`eval` of directory's model on each subset (record indices) of the
    test records reports the errors that the whole file's predictions and
    labels give on those records."""
    model_path = os.path.join(directory, "model.mkl")
    whole = _write(directory, "whole.svm", test_lines)
    with open(model_path, encoding="utf-8") as fh:
        model = load_model(fh)
    with open(whole, encoding="utf-8") as fh:
        ds = parse_libsvm(fh, n_features=model.d, labels=model.label_pair)
    wrong = predict(model, apply_scaling(ds, model.scaling).points) != ds.labels
    code, out = _run("eval", "--model", model_path, "--data", whole)
    assert code == 0 and _pairs(out)["test_error"] == f"{wrong.mean():.6f}"
    for rows in subsets:
        part = _write(directory, "part.svm", [test_lines[i] for i in rows])
        code, out = _run("eval", "--model", model_path, "--data", part)
        assert code == 0
        assert (_pairs(out)["n"], _pairs(out)["test_error"]) == (str(len(rows)), f"{wrong[rows].mean():.6f}")


def _distinct_support(model):
    """The model's distinct (label, point) support rows, sorted, and the sum
    of the coefficients of each."""
    rows, inverse = np.unique(np.c_[model.support_labels, model.support_points], axis=0, return_inverse=True)
    return rows, np.bincount(inverse.ravel(), model.support_coefs)


class TestMetamorphic:
    """Relations between two runs of the command line on tiny generated
    files, which hold whatever the fitted model is."""

    @settings(max_examples=60, deadline=None)
    @given(problem=_problems(), family=FAMILIES)
    def test_eval_on_the_training_file_prints_the_train_error(self, problem, family):
        train, test, encoding = problem
        with tempfile.TemporaryDirectory() as tmp:
            trained, _ = _train(tmp, _lines(*train, encoding), _lines(*test, encoding), *family)
            code, evaluated = _run("eval", "--model", os.path.join(tmp, "model.mkl"),
                                   "--data", os.path.join(tmp, "train.svm"))
        assert code == 0
        assert (_pairs(evaluated)["n"], _pairs(evaluated)["test_error"]) == \
            (_pairs(trained)["n"], _pairs(trained)["train_error"])

    @settings(max_examples=60, deadline=None)
    @given(problem=_problems(), family=FAMILIES, crlf=st.booleans(), bom=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_inert_text_changes_no_byte(self, problem, family, crlf, bom, seed):
        # comment lines, blank lines and comment tails, drawn per record
        train, test, encoding = problem
        rng = np.random.default_rng(seed)

        def decorate(lines):
            out = []
            for line in lines:
                out += [str(rng.choice(["# a comment line", "", "  \t ", "\t# indented  #comment"]))
                        for _ in range(rng.integers(0, 3))]
                out.append(line + str(rng.choice(["", " # a tail", "# tail without a space", "\t#"])))
            return out

        plain_lines = [_lines(*train, encoding), _lines(*test, encoding)]
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for name, (train_lines, test_lines), options in (
                    ("plain", plain_lines, {}),
                    ("decorated", map(decorate, plain_lines), {"newline": "\r\n" if crlf else "\n", "bom": bom})):
                directory = os.path.join(tmp, name)
                trained, model_text = _train(directory, train_lines, test_lines, *family, **options)
                code, evaluated = _run("eval", "--model", os.path.join(directory, "model.mkl"),
                                       "--data", os.path.join(directory, "test.svm"))
                assert code == 0
                runs.append((_without_wall(trained), model_text, evaluated))
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(problem=_problems(), family=FAMILIES, feature=st.integers(0, 2),
           power=st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_power_of_two_feature_scale_changes_only_the_scaling(self, problem, family, feature, power):
        # (2^e x - 2^e lo) / (2^e (hi - lo)) rounds as (x - lo) / (hi - lo)
        train, test, encoding = problem
        feature %= train[0].shape[1]
        factor = np.ones(train[0].shape[1])
        factor[feature] = 2.0**power
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for name, scale in (("plain", 1.0), ("scaled", factor)):
                trained, model_text = _train(os.path.join(tmp, name), _lines(train[0] * scale, train[1], encoding),
                                             _lines(test[0] * scale, test[1], encoding), *family)
                lines = model_text.splitlines()
                runs.append((_without_wall(trained), [line for line in lines if not line.startswith("scale_m")],
                             [np.array(line.split()[1:], float) for line in lines if line.startswith("scale_m")]))
        (plain_out, plain_rest, plain_ranges), (scaled_out, scaled_rest, scaled_ranges) = runs
        assert plain_out == scaled_out and plain_rest == scaled_rest
        assert len(plain_ranges) == 2
        assert all(np.array_equal(p * factor, q) for p, q in zip(plain_ranges, scaled_ranges))

    @settings(max_examples=30, deadline=None)
    @given(problem=_problems(), family=FAMILIES, feature=st.integers(0, 2),
           a=st.sampled_from([3.0, 0.1, 10.0, 1.0 / 3.0]), b=st.sampled_from([-2.0, 0.5, 7.0]))
    def test_positive_affine_feature_map_keeps_the_fit(self, problem, family, feature, a, b):
        # (a x + b - (a lo + b)) / (a hi + b - (a lo + b)) rounds near
        # (x - lo) / (hi - lo), not always to it, so the fit may move by
        # rounding only: the same report, kernels and support set, and mu.
        # Duplicate points (zeroed coordinates) tie in every column, and a
        # rounding may split their picks differently, so the support set is
        # compared as distinct points with their summed coefficients.
        train, test, encoding = problem
        feature %= train[0].shape[1]

        def mapped(points):
            out = points.copy()
            out[:, feature] = a * out[:, feature] + b
            return out

        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for name, f in (("plain", np.copy), ("mapped", mapped)):
                trained, model_text = _train(os.path.join(tmp, name), _lines(f(train[0]), train[1], encoding),
                                             _lines(f(test[0]), test[1], encoding), *family)
                runs.append((_without_wall(trained), load_model(model_text)))
        (plain_out, plain), (mapped_out, moved) = runs
        assert plain_out == mapped_out
        assert [(s.kind, s.param, s.feature) for s in plain.specs] == \
            [(s.kind, s.param, s.feature) for s in moved.specs]
        (plain_points, plain_coefs), (moved_points, moved_coefs) = map(_distinct_support, (plain, moved))
        assert plain_points.shape == moved_points.shape
        assert np.abs(plain_points - moved_points).max() <= 1e-12
        assert np.allclose(plain_coefs, moved_coefs, rtol=1e-12, atol=0.0)
        assert (np.abs(plain.mu - moved.mu) <= 1e-12 * plain.mu).all()

    @settings(max_examples=60, deadline=None)
    @given(problem=_problems(), family=FAMILIES, data=st.data())
    def test_subsets_keep_their_predictions(self, problem, family, data):
        # a drawn subset, and the records of each label on their own
        train, test, encoding = problem
        test_lines = _lines(*test, encoding)
        drawn = data.draw(st.sets(st.integers(0, len(test_lines) - 1), min_size=1))
        subsets = [sorted(drawn)] + [list(rows) for rows in (np.flatnonzero(test[1] > 0),
                                                             np.flatnonzero(test[1] < 0)) if len(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            _train(tmp, _lines(*train, encoding), test_lines, *family)
            _subsets_keep_their_predictions(tmp, test_lines, subsets)

    ONE_TWO_TRAIN = ["1 1:0.1", "1 1:0.2", "1 1:0.3", "2 1:0.7", "2 1:0.8", "2 1:0.9"]
    ONE_TWO_TEST = ["1 1:0.15", "2 1:0.85", "1 1:0.25", "2 1:0.75"]

    def test_one_two_file_scores_its_test_records(self, tmp_path):
        # the case below, on the whole file: both labels decode as in training
        out, _ = _train(str(tmp_path), self.ONE_TWO_TRAIN, self.ONE_TWO_TEST)
        assert (_pairs(out)["train_error"], _pairs(out)["test_error"]) == ("0.000000", "0.000000")
        _subsets_keep_their_predictions(str(tmp_path), self.ONE_TWO_TEST, [[0, 1, 2, 3], [1, 3]])

    def test_one_two_file_subset_of_ones_keeps_its_labels(self, tmp_path):
        _train(str(tmp_path), self.ONE_TWO_TRAIN, self.ONE_TWO_TEST)
        _subsets_keep_their_predictions(str(tmp_path), self.ONE_TWO_TEST, [[0, 2]])
