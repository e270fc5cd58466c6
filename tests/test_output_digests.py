"""scripts/output_digests.py, the byte-identity check between two checkouts,
runs to the end and prints one digest line per artifact."""

import importlib.util
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# in the order main prints them: the datasets, each net's files, then the rest
ARTIFACTS = ["echo", "toy", "toy_other",
             "walk.dfsmn", "walk.dfsmn.history", "walk.eval.txt",
             "gemm.dfsmn", "gemm.dfsmn.history", "gemm.eval.txt",
             "gradcheck.txt", "eval_hyp.txt", "eval_hyp_echo.txt", "full_width_e.txt"]


# the "# <field> <value>" header lines, in order: what the digests depend on
HEADER = ["blas", "blas_version", "blas_threads", "numpy", "cpu"]


def test_prints_blas_threads_then_one_digest_per_artifact(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "output_digests", os.path.join(ROOT, "scripts", "output_digests.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, rest = lines[:len(HEADER)], lines[len(HEADER):]
    assert all(re.fullmatch(rf"# {f} \S.*", line) for f, line in zip(HEADER, header)), header
    digests = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in rest]
    assert all(digests), rest
    assert [m.group(1) for m in digests] == ARTIFACTS
