"""scripts/run_echo_experiment.py runs its grid at toy size and reports each
net's reach against the lag."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_grid_rows_report_reach_against_the_lag(capsys):
    spec = importlib.util.spec_from_file_location(
        "run_echo_experiment", os.path.join(ROOT, "scripts", "run_echo_experiment.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--lag", "2", "--sequences", "4", "--len", "8", "--epochs", "1"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith("echo task: lag 2, 4 x 8 frames, 1 epochs")
    assert header.split() == ["order", "stride", "depth", "rf", "covers_lag", "valid_mse"]
    assert len(rows) == 6
    for row in rows:
        order, stride, depth, rf, covers, valid_mse = row.split()
        assert int(rf) == int(order) * int(stride) * int(depth)
        assert covers == ("yes" if int(rf) >= 2 else "no")
        float(valid_mse)
