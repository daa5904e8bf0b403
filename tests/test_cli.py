import numpy as np
import pytest

from mklmmwu import NumericalFailure, serialize_libsvm
from mklmmwu.cli import main, median_ci, stratified_folds
from mklmmwu.solver import SolverConfig, iteration_budget

from helpers import make_blobs, make_random_dataset


def _write_blobs(path, n=40, seed=0):
    ds = make_blobs(n, seed)
    path.write_text(serialize_libsvm(ds), encoding="utf-8")
    return ds


def _report(capsys):
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)


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

    def test_missing_file_exits_3(self, capsys):
        assert main(["train", "--data", "/nonexistent/data.svm"]) == 3

    def test_numerical_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        import mklmmwu.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalFailure(17)

        monkeypatch.setattr(cli_mod, "train", boom)
        assert main(["train", "--data", str(data)]) == 4

    def test_max_iters_reflected_in_report(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data)
        assert main(["train", "--data", str(data), "--max-iters", "44"]) == 0
        assert int(_report(capsys)["T"]) == 44

    def test_low_eps_budget_formula(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=25, seed=3)
        assert main(["train", "--data", str(data), "--kernels", "12",
                     "--eps", "0.07", "--seed", "1"]) == 0
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
        [["--folds", "0"], ["--folds", "1"], ["--repeats", "0"], ["--jobs", "0"]],
        ids=["folds0", "folds1", "repeats0", "jobs0"],
    )
    def test_bad_counts_exit_2(self, tmp_path, flags):
        data = tmp_path / "d.svm"
        _write_blobs(data, n=30)
        with pytest.raises(SystemExit) as err:
            main(["cv", "--data", str(data), "--C-grid", "1", "--max-iters", "50", *flags])
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
