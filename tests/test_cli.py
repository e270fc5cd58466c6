import inspect
import json
import os
import shlex
import shutil
import struct

import numpy as np
import pytest

from dfsmn import cli, trainer
from dfsmn import network as net
from dfsmn.cli import build_parser, main
from dfsmn.features import (SequenceData, load_dataset, read_feature, read_manifest,
                            write_dataset, write_feature)
from dfsmn.model_io import MAGIC, VERSION, save_model
from dfsmn.network import build_network, config_to_json, expand_shorthand, parse_config
from dfsmn.tensor import Counter64
from test_network import LONG, LONG_VALUE_DOCS, LONG_VALUE_FIELDS, MIXED_WIDTH_DOC

FP64_TANH_CONFIG = {
    "input_dim": 4,
    "layers": [
        {"type": "dfsmn", "hidden": 6, "proj": 3, "n_back": 2, "n_ahead": 1,
         "stride_back": 2, "stride_ahead": 1, "skip": False, "activation": "tanh"},
        {"type": "dfsmn", "hidden": 6, "proj": 3, "n_back": 2, "n_ahead": 1,
         "stride_back": 2, "stride_ahead": 1, "skip": True, "activation": "tanh"},
    ],
    "output_streams": [{"name": "y", "dim": 2}],
    "precision": "fp64",
}

ECHO_TRAIN_CONFIG = {
    "input_dim": 1,
    "layers": [{"type": "dfsmn", "hidden": 16, "proj": 8, "n_back": 4,
                "n_ahead": 0, "stride_back": 1, "stride_ahead": 1,
                "skip": False, "activation": "relu"}],
    "output_streams": [{"name": "echo", "dim": 1}],
    "precision": "fp32",
}


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestAnalyze:
    def test_preset_e_reports_600ms(self, capsys):
        assert main(["analyze", "--preset", "E"]) == 0
        out = capsys.readouterr().out
        assert "look_back_ms" in out and "600" in out

    def test_preset_a_reports_param_count(self, capsys):
        assert main(["analyze", "--preset", "A"]) == 0
        assert "14,187,595" in capsys.readouterr().out

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["analyze", "--preset", "Z"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_table_mode(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        assert main(["analyze", "--table", "--out", str(out_path)]) == 0
        assert "BLSTM" in capsys.readouterr().out
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 9

    def test_config_file_mode(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert "look_back_frames" in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "gradcheck"])
    def test_invalid_config_exits_2_naming_the_file(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(ECHO_TRAIN_CONFIG, layers=[
            dict(ECHO_TRAIN_CONFIG["layers"][0], hidden=0)])))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {cfg}: layers[0].hidden: must be an integer >= 1, "
                                "got 0\n")
        assert captured.out == ""

    @pytest.mark.parametrize("fault", ["deep", "not-utf8"])
    def test_unreadable_config_exits_2_naming_the_file(self, tmp_path, capsys, fault):
        cfg = tmp_path / "bad.json"
        if fault == "deep":
            cfg.write_text("[" * 100000)
            message = "config is nested too deeply to parse\n"
        else:
            cfg.write_bytes(b'{"preset": "\xff"}')
            message = "'utf-8' codec can't decode byte 0xff in position 12"
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("case", sorted(LONG_VALUE_DOCS))
    def test_long_bad_value_exits_2_printed_short(self, tmp_path, capsys, case):
        cfg = tmp_path / "bad.json"
        cfg.write_text(LONG_VALUE_DOCS[case])
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        where = f"error: {cfg}: "
        assert captured.err.startswith(f"{where}{LONG_VALUE_FIELDS[case]}: must be ")
        assert len(captured.err) < len(where) + 200, captured.err[:300]
        assert captured.out == ""

    def test_long_preset_exits_2_printed_short(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"preset": LONG}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        where = f"error: {cfg}: "
        assert captured.err.startswith(f"{where}unknown preset 'xxx"), captured.err[:300]
        assert len(captured.err) < len(where) + 300, captured.err[:300]
        assert captured.out == ""

    # numpy refuses the 29.1 TiB array before it touches a page
    @pytest.mark.parametrize("command,hidden,fault", [
        ("gradcheck", 10 ** 12, "Unable to allocate 29.1 TiB"),
        ("analyze", 10 ** 400, "too large for a float")], ids=["allocation", "float"])
    def test_oversized_setting_exits_2(self, tmp_path, capsys, command, hidden, fault):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"layers": [{"type": "dfsmn", "hidden": hidden, "proj": 4}],
                                   "input_dim": 3, "precision": "fp64",
                                   "output_streams": [{"name": "y", "dim": 1}]}))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fault in captured.err and captured.out == ""

    @pytest.mark.parametrize("doc,name,ref_size_mb", [
        ({"preset": "E"}, "E", "87.0000"),
        ({"preset": "E", "precision": "fp64"}, "E", "87.0000"),
        ({"layers": "6+2", "order": "10,10,2,2"}, "E", "87.0000"),
        (FP64_TANH_CONFIG, "custom", "-"),
    ], ids=["preset", "preset-fp64", "shorthand", "custom"])
    def test_config_named_after_the_preset_it_equals(self, tmp_path, capsys, doc, name,
                                                     ref_size_mb):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"{'name':<18} {name}" in lines
        assert f"{'ref_size_mb':<18} {ref_size_mb}" in lines


class TestGradcheck:
    def test_pass_and_fail_exit_codes(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["gradcheck", "--config", str(cfg), "--frames", "10",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "back_taps" in out
        # fd truncation error cannot meet 1e-12 on a nonlinear net
        monkeypatch.setattr(trainer, "GRADCHECK_TOL", 1e-12)
        assert main(["gradcheck", "--config", str(cfg), "--frames", "10",
                     "--seed", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_skip_net_of_mixed_widths_passes(self, tmp_path, capsys):
        # a skip needs its predecessor's projection width, not every block's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MIXED_WIDTH_DOC))
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("PASS") and "skip" in out

    def test_missing_config_exits_2(self):
        assert main(["gradcheck", "--config", "/nope.json"]) == 2

    def test_fp32_config_rejected(self, tmp_path, capsys):
        doc = dict(FP64_TANH_CONFIG, precision="fp32")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gradcheck", "--config", str(cfg)]) == 2
        assert "fp64" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,knob", [("--step", "0", "step"),
                                                 ("--step", "nan", "step"),
                                                 ("--step", "-1e-5", "step"),
                                                 ("--tol", "nan", "tolerance"),
                                                 ("--tol", "0", "tolerance"),
                                                 ("--tol", "inf", "tolerance")])
    def test_bad_knob_exits_2(self, tmp_path, capsys, flag, value, knob):
        """The step and tolerance are constants: neither flag nor grad_check
        parameter exists, so no value of either can loosen the check."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["gradcheck", "--config", str(cfg), "--frames", "4",
                     f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}={value}" in captured.err
        assert captured.out == ""
        assert knob not in inspect.signature(trainer.grad_check).parameters

    @pytest.mark.parametrize("frames", ["0", "-2"])
    def test_bad_frames_exits_2(self, tmp_path, capsys, frames):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["gradcheck", "--config", str(cfg), f"--frames={frames}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: frames must be >= 1, got {frames}")
        assert captured.out == ""


class TestSynthdata:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["synthdata", "--task", "echo", "--lag", "3",
                         "--sequences", "4", "--len", "12", "--seed", "9",
                         "--out", str(out)]) == 0
        assert _tree_bytes(a) == _tree_bytes(b)

    def test_lag_zero_target_payload_equals_input(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synthdata", "--task", "echo", "--lag", "0",
                     "--sequences", "2", "--len", "8", "--out", str(out)]) == 0
        train = out / "train"
        for seq_id, frames in read_manifest(train):
            _, x = read_feature(train / f"{seq_id}.input.feat")
            name, y = read_feature(train / f"{seq_id}.echo.feat")
            assert name == "echo"
            assert x.shape == y.shape == (frames, 1)
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("flag,value,knob", [("--noise-std", "nan", "noise_std"),
                                                 ("--noise-std", "-1", "noise_std"),
                                                 ("--noise-std", "inf", "noise_std"),
                                                 ("--len", "0", "seq_len"),
                                                 ("--sequences", "0", "num_sequences"),
                                                 ("--dim", "0", "input_dim")])
    def test_bad_knob_exits_2_before_writing(self, tmp_path, capsys, flag, value, knob):
        out = tmp_path / "d"
        assert main(["synthdata", "--sequences", "4", "--len", "8", "--out", str(out),
                     f"{flag}={value}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob}: must be")
        assert not out.exists()

    def test_no_optional_flag_gives_the_spec_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(spec, seed):
            seen.append((spec, seed))
            raise RuntimeError("captured")
        monkeypatch.setattr(trainer, "gen_task", capture)
        assert main(["synthdata", "--out", str(tmp_path / "d")]) == 1
        assert seen == [(trainer.SyntheticTaskSpec(), 0)]

    def test_toy_lag_and_noise_reach_the_files(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "2", "--len", "12", "--lag", "6",
                     "--noise-std", "0.1", "--seed", "1", "--out", str(out)]) == 0
        spec = trainer.SyntheticTaskSpec(kind="acoustic_toy", input_dim=4, lag=6,
                                         noise_std=0.1, num_sequences=2, seq_len=12)
        plain, _ = trainer.gen_acoustic_toy_task(
            trainer.SyntheticTaskSpec(kind="acoustic_toy", input_dim=4,
                                      num_sequences=2, seq_len=12), 1)
        want, _ = trainer.gen_acoustic_toy_task(spec, 1)
        for got, seq, base in zip(load_dataset(out / "train"), want, plain):
            assert np.array_equal(got.inputs, seq.inputs)
            for name, y in seq.targets.items():
                assert np.array_equal(got.targets[name], y)
                assert not np.array_equal(y, base.targets[name])

    def test_valid_sequences_flag_is_gone(self, tmp_path, capsys):
        assert main(["synthdata", "--out", str(tmp_path / "d"),
                     "--valid-sequences", "2"]) == 2
        assert "unrecognized arguments: --valid-sequences" in capsys.readouterr().err

    def test_out_holding_another_dataset_exits_2_and_keeps_every_file(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "1", "--sequences", "4",
                     "--len", "12", "--out", str(out)]) == 0
        before = _tree_bytes(out)
        assert main(["synthdata", "--task", "echo", "--sequences", "4", "--len", "12",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {out / 'train'} holds "
                                           f"'train0000.bap.feat', which this dataset "
                                           f"does not write\n")
        assert _tree_bytes(out) == before

    def test_manifest_matches_headers(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "3", "--len", "7", "--out", str(out)]) == 0
        for split in ("train", "valid"):
            for seq_id, frames in read_manifest(out / split):
                for stream in ("input", "mcep", "lf0", "bap", "uv"):
                    _, data = read_feature(out / split / f"{seq_id}.{stream}.feat")
                    assert data.shape[0] == frames


def _append_empty_sequence(split_dir):
    """A 0-frame sequence "empty" added to an echo dataset directory."""
    for stream in ("input", "echo"):
        write_feature(split_dir / f"empty.{stream}.feat", stream,
                      np.zeros((0, 1), np.float32))
    with open(split_dir / "manifest.txt", "a") as f:
        f.write("empty\t0\n")


@pytest.fixture
def echo_data(tmp_path):
    data = tmp_path / "echo"
    assert main(["synthdata", "--task", "echo", "--lag", "2", "--sequences", "6",
                 "--len", "16", "--seed", "4", "--out", str(data)]) == 0
    return data


class TestTrainEval:
    def _write_cfg(self, tmp_path):
        cfg = tmp_path / "echo_cfg.json"
        cfg.write_text(json.dumps(ECHO_TRAIN_CONFIG))
        return cfg

    def test_train_writes_model_and_history(self, tmp_path, echo_data, capsys):
        cfg = self._write_cfg(tmp_path)
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                     "--out", str(model), "--epochs", "5", "--lr", "0.05",
                     "--batch-frames", "32", "--seed", "1"]) == 0
        assert model.exists()
        lines = (tmp_path / "m.dfsmn.history").read_text().splitlines()
        assert len(lines) == 5  # one row per epoch
        epoch, lr, train_mse, valid_mse = lines[0].split("\t")
        assert epoch == "0" and float(lr) == 0.05
        float(train_mse), float(valid_mse)

    def test_eval_model_with_invalid_embedded_config_exits_2_naming_the_file(
            self, tmp_path, echo_data, capsys):
        cfg = parse_config(json.dumps(ECHO_TRAIN_CONFIG))
        model = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, str(model))
        blob = model.read_bytes()
        assert blob.count(b'"hidden":16') == 1
        model.write_bytes(blob.replace(b'"hidden":16', b'"hidden": 0'))
        assert main(["eval", "--model", str(model), "--data",
                     str(echo_data / "valid")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {model}: layers[0].hidden: must be an integer >= 1, "
                                "got 0\n")
        assert captured.out == ""

    def test_eval_model_with_too_deep_embedded_config_exits_2_naming_the_file(
            self, tmp_path, echo_data, capsys):
        cfg_bytes = b"[" * 100000
        model = tmp_path / "deep.dfsmn"
        model.write_bytes(MAGIC + struct.pack("<II", VERSION, len(cfg_bytes)) + cfg_bytes)
        assert main(["eval", "--model", str(model), "--data",
                     str(echo_data / "valid")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {model}: config is nested too deeply to parse\n"
        assert captured.out == ""

    def test_no_optional_flag_gives_the_train_config_defaults(self, tmp_path, echo_data,
                                                               monkeypatch):
        seen = []

        def capture(cfg, params, dataset, train_cfg, valid=None):
            seen.append(train_cfg)
            raise RuntimeError("captured")
        monkeypatch.setattr(trainer, "train", capture)
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(tmp_path / "m.dfsmn")]) == 1
        assert seen == [trainer.TrainConfig()]

    def test_train_deterministic_model_bytes(self, tmp_path, echo_data):
        cfg = self._write_cfg(tmp_path)
        blobs = []
        for name in ("m1", "m2"):
            model = tmp_path / f"{name}.dfsmn"
            assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                         "--out", str(model), "--epochs", "3", "--lr", "0.05",
                         "--batch-frames", "32", "--seed", "2"]) == 0
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1]

    def test_train_dim_mismatch_exits_2(self, tmp_path, echo_data, capsys):
        doc = dict(ECHO_TRAIN_CONFIG, input_dim=3)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                     "--out", str(tmp_path / "m.dfsmn")]) == 2
        assert "input dim" in capsys.readouterr().err

    def test_train_mistyped_config_exits_2(self, tmp_path, echo_data, capsys):
        layer = dict(ECHO_TRAIN_CONFIG["layers"][0], hidden=2.5)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(ECHO_TRAIN_CONFIG, layers=[layer])))
        assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                     "--out", str(tmp_path / "m.dfsmn")]) == 2
        assert "layers[0].hidden" in capsys.readouterr().err

    @pytest.mark.parametrize("out,named,reason", [
        ("nowhere/m", "nowhere", "No such file or directory"),
        ("a_dir", "a_dir", "Is a directory")])
    def test_train_unwritable_out_exits_2_before_reading_data(
            self, tmp_path, echo_data, capsys, monkeypatch, out, named, reason):
        def unreachable(*args, **kwargs):
            raise AssertionError("read data or trained before checking --out")
        monkeypatch.setattr(cli, "load_dataset", unreachable)
        monkeypatch.setattr(trainer, "train", unreachable)
        (tmp_path / "a_dir").mkdir()
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.endswith(f"] {reason}: '{tmp_path / named}'\n")
        assert not (tmp_path / "nowhere").exists()

    @pytest.mark.parametrize("flag,value,knob", [("--epochs", "0", "max_epochs"),
                                                 ("--lr", "nan", "lr"),
                                                 ("--patience", "0", "patience"),
                                                 ("--min-improvement", "nan",
                                                  "min_improvement")])
    def test_train_bad_knob_exits_2_before_writing(self, tmp_path, echo_data, capsys,
                                                   monkeypatch, flag, value, knob):
        def unreachable(*args, **kwargs):
            raise AssertionError("read data or built a network before checking knobs")
        monkeypatch.setattr(cli, "load_dataset", unreachable)
        monkeypatch.setattr(net, "build_network", unreachable)
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(model), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob}: must be")
        assert not model.exists()
        assert not (tmp_path / "m.dfsmn.history").exists()

    def test_eval_header_only_huge_model_exits_2(self, tmp_path, echo_data, capsys):
        cfg = expand_shorthand("1+0", "0,0,1,1", input_dim=100_000, hidden=100_000,
                               proj=10_000)
        cfg_bytes = config_to_json(cfg).encode("utf-8")
        model = tmp_path / "huge.dfsmn"
        model.write_bytes(MAGIC + struct.pack("<II", VERSION, len(cfg_bytes)) + cfg_bytes)
        assert main(["eval", "--model", str(model),
                     "--data", str(echo_data / "valid")]) == 2
        assert "payload" in capsys.readouterr().err

    def test_eval_model_on_data(self, tmp_path, echo_data, capsys):
        cfg = self._write_cfg(tmp_path)
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                     "--out", str(model), "--epochs", "3", "--lr", "0.05",
                     "--batch-frames", "32"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model),
                     "--data", str(echo_data / "valid")]) == 0
        out = capsys.readouterr().out
        assert "total_mse" in out
        assert "mcd_db skipped" in out
        assert "f0_rmse_hz skipped" in out

    def test_eval_data_lacking_a_model_stream_exits_2(self, tmp_path, echo_data, capsys):
        two_streams = dict(ECHO_TRAIN_CONFIG, output_streams=[
            {"name": "echo", "dim": 1}, {"name": "uv", "dim": 1, "activation": "sigmoid"}])
        cfg = parse_config(json.dumps(two_streams))
        model = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, str(model))
        assert main(["eval", "--model", str(model),
                     "--data", str(echo_data / "valid")]) == 2
        assert capsys.readouterr().err == "error: sequence valid0000: missing stream 'uv'\n"

    def test_eval_identical_datasets_all_zero(self, tmp_path, capsys):
        data = tmp_path / "toy"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "3", "--len", "10", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(data / "train"),
                     "--hyp", str(data / "train")]) == 0
        out = capsys.readouterr().out
        assert "total_mse 0" in out
        assert "mcd_db 0" in out
        assert "f0_rmse_hz 0" in out
        assert "bapd 0" in out
        assert "uv_error 0" in out

    def _mcep_set(self, path, lengths, dim=3):
        """A dataset with one dim-wide mcep stream; each sequence's values
        follow from its id and length alone."""
        write_dataset(path, [
            SequenceData(seq_id, np.zeros((n, 1), np.float32),
                         {"mcep": Counter64(sum(map(ord, seq_id)) + n).normal(dim * n)
                          .reshape(n, dim).astype(np.float32)})
            for seq_id, n in lengths])
        return str(path)

    def test_eval_one_wide_mcep_skips_mcd_naming_the_width(self, tmp_path, capsys):
        ref = self._mcep_set(tmp_path / "ref", [("u0", 5)], dim=1)
        assert main(["eval", "--data", ref, "--hyp", ref]) == 0
        assert ("mcd_db skipped (mcd needs at least 2 cepstral dims (dim 0 is "
                "excluded), got 1)\n" in capsys.readouterr().out)

    def _toy_and_hyp_copy(self, tmp_path):
        """An acoustic_toy train set and a byte copy of it to pass as --hyp."""
        data = tmp_path / "toy"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "4", "--len", "10", "--out", str(data)]) == 0
        shutil.copytree(data / "train", tmp_path / "hyp")
        return data / "train", tmp_path / "hyp"

    def test_eval_hyp_stream_width_differs_exits_2(self, tmp_path, capsys):
        ref, hyp = self._toy_and_hyp_copy(tmp_path)
        path = hyp / "train0001.mcep.feat"
        name, mcep = read_feature(path)
        write_feature(path, name, mcep[:, :5])
        capsys.readouterr()
        assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: hypothesis {hyp}: sequence train0001: "
                                f"stream 'mcep' shape (10, 5) != (10, 6)\n")
        assert captured.out == ""

    def test_eval_hyp_reference_widths_differ_exits_2(self, tmp_path, capsys):
        ref, hyp = self._toy_and_hyp_copy(tmp_path)
        for side in (ref, hyp):
            path = side / "train0001.mcep.feat"
            name, mcep = read_feature(path)
            write_feature(path, name, mcep[:, :5])
        capsys.readouterr()
        assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: reference {ref}: sequence train0001: "
                                f"stream 'mcep' shape (10, 5) != (10, 6)\n")
        assert captured.out == ""

    def test_eval_stream_missing_names_its_side(self, tmp_path, capsys):
        errors = {}
        for side in ("data", "hyp"):
            ref, hyp = self._toy_and_hyp_copy(tmp_path / side)
            ({"data": ref, "hyp": hyp}[side] / "train0001.uv.feat").unlink()
            capsys.readouterr()
            assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors[side] = captured.err
        assert errors["data"] == (f"error: reference {tmp_path / 'data' / 'toy' / 'train'}: "
                                  f"sequence train0001: missing stream 'uv'\n")
        assert errors["hyp"] == (f"error: hypothesis {tmp_path / 'hyp' / 'hyp'}: "
                                 f"sequence train0001: missing stream 'uv'\n")

    def test_eval_hyp_pairs_by_id(self, tmp_path, capsys):
        ref = self._mcep_set(tmp_path / "ref", [("u0", 5), ("u1", 3)])
        hyp = self._mcep_set(tmp_path / "hyp", [("u1", 3), ("u0", 5)])
        assert main(["eval", "--data", ref, "--hyp", hyp]) == 0
        out = capsys.readouterr().out
        assert "total_mse 0\n" in out
        assert "mcd_db 0\n" in out

    @pytest.mark.parametrize("hyp_lengths,message", [
        ([("u0", 5), ("x1", 3)], "only in reference ['u1'], only in hypothesis ['x1']"),
        ([("u0", 3), ("u1", 5)], "frame counts differ from reference for ['u0', 'u1']"),
    ], ids=["foreign-id", "swapped-lengths"])
    def test_eval_hyp_unpaired_exits_2(self, tmp_path, capsys, hyp_lengths, message):
        ref = self._mcep_set(tmp_path / "ref", [("u0", 5), ("u1", 3)])
        hyp = self._mcep_set(tmp_path / "hyp", hyp_lengths)
        assert main(["eval", "--data", ref, "--hyp", hyp]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fault", ["foreign-ids", "differing-lengths"])
    def test_eval_hyp_many_unpaired_exits_2_printed_short(self, tmp_path, capsys, fault):
        # printed whole, the 120 ids of each list run to over 900 characters
        ids = [f"u{i:03d}" for i in range(120)]
        ref = self._mcep_set(tmp_path / "ref", [(seq_id, 2) for seq_id in ids])
        hyp = self._mcep_set(tmp_path / "hyp", [("x" + seq_id, 2) for seq_id in ids]
                             if fault == "foreign-ids" else [(seq_id, 3) for seq_id in ids])
        assert main(["eval", "--data", ref, "--hyp", hyp]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: hypothesis {hyp}: "), captured.err[:300]
        assert len(captured.err) < len("error: ") + 300, captured.err[:300]
        assert captured.out == ""

    @pytest.mark.parametrize("layer", [
        ECHO_TRAIN_CONFIG["layers"][0],
        {"type": "fc", "hidden": 8, "activation": "relu"}], ids=["memory-block", "fc-only"])
    def test_train_zero_frame_sequence_exits_2(self, tmp_path, echo_data, capsys, layer):
        _append_empty_sequence(echo_data / "train")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(ECHO_TRAIN_CONFIG, layers=[layer])))
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(cfg), "--data", str(echo_data),
                     "--out", str(model), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == "error: sequence empty: no frames\n"
        assert not model.exists()

    @pytest.mark.parametrize("layer", [
        ECHO_TRAIN_CONFIG["layers"][0],
        {"type": "fc", "hidden": 8, "activation": "relu"}], ids=["memory-block", "fc-only"])
    def test_eval_zero_frame_sequence_exits_2(self, tmp_path, echo_data, capsys, layer):
        _append_empty_sequence(echo_data / "valid")
        cfg = parse_config(json.dumps(dict(ECHO_TRAIN_CONFIG, layers=[layer])))
        model = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, str(model))
        assert main(["eval", "--model", str(model),
                     "--data", str(echo_data / "valid")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: sequence empty: no frames\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seq_id,stream", [("train0000", "uv"), ("train0002", "bap")])
    def test_eval_hyp_sequence_lacking_a_stream_exits_2(self, tmp_path, capsys,
                                                         seq_id, stream):
        # the stream set is every stream any sequence carries, not the first one's
        data = tmp_path / "toy"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "4", "--len", "10", "--out", str(data)]) == 0
        (data / "train" / f"{seq_id}.{stream}.feat").unlink()
        capsys.readouterr()
        assert main(["eval", "--data", str(data / "train"),
                     "--hyp", str(data / "train")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: reference {data / 'train'}: sequence {seq_id}: "
                                f"missing stream {stream!r}\n")
        assert captured.out == ""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_train_diverging_at_validation_exits_1(self, tmp_path, echo_data, capsys):
        # one batch per epoch: its loss is computed before the update, so the
        # first non-finite value is the validation MSE
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(model),
                     "--lr", "1e12", "--batch-frames", "100000"]) == 1
        assert capsys.readouterr().err == ("failure: non-finite validation MSE "
                                           "at epoch 0\n")
        assert not model.exists()

    def test_eval_without_model_or_hyp_exits_2(self, capsys):
        assert main(["eval", "--data", "/tmp"]) == 2

    def test_eval_model_without_data_exits_2(self, tmp_path, echo_data, capsys):
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(model),
                     "--epochs", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model)]) == 2
        assert "--data" in capsys.readouterr().err

    def test_eval_model_and_hyp_together_exits_2(self, tmp_path, echo_data, capsys):
        cfg = parse_config(json.dumps(ECHO_TRAIN_CONFIG))
        model = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, str(model))
        valid = str(echo_data / "valid")
        assert main(["eval", "--model", str(model), "--data", valid,
                     "--hyp", valid]) == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_eval_ref_flag_is_gone(self, echo_data, capsys):
        valid = str(echo_data / "valid")
        assert main(["eval", "--ref", valid, "--hyp", valid]) == 2
        assert main(["eval", "--ref", valid, "--data", valid, "--hyp", valid]) == 2
        assert "unrecognized arguments: --ref" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["model", "hyp"])
    def test_eval_empty_manifest_exits_2(self, tmp_path, echo_data, capsys, mode):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        if mode == "model":
            cfg = parse_config(json.dumps(ECHO_TRAIN_CONFIG))
            model = tmp_path / "m.dfsmn"
            save_model(build_network(cfg, 0), cfg, str(model))
            argv = ["eval", "--model", str(model), "--data", str(empty)]
        else:
            argv = ["eval", "--data", str(echo_data / "valid"), "--hyp", str(empty)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: manifest lists no sequences\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_repeated_manifest_id_exits_2(self, tmp_path, echo_data, capsys, command):
        manifest = echo_data / "train" / "manifest.txt"
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(manifest.read_text() + first + "\n")
        model = tmp_path / "m.dfsmn"
        argv = {"train": ["train", "--config", str(self._write_cfg(tmp_path)),
                          "--data", str(echo_data), "--out", str(model), "--epochs", "1"],
                "eval": ["eval", "--data", str(echo_data / "train"),
                         "--hyp", str(echo_data / "train")]}[command]
        seq_id = first.split("\t")[0]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"id {seq_id!r} repeats line 1" in captured.err
        assert captured.out == ""
        assert not model.exists()

    @pytest.mark.parametrize("frames", ["16x", "-3"])
    def test_bad_manifest_frame_count_exits_2(self, tmp_path, echo_data, capsys, frames):
        manifest = echo_data / "valid" / "manifest.txt"
        seq_id = manifest.read_text().splitlines()[0].split("\t")[0]
        manifest.write_text(f"{seq_id}\t{frames}\n")
        assert main(["eval", "--data", str(echo_data / "valid"),
                     "--hyp", str(echo_data / "valid")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {manifest}:1: frame count {frames!r} is not "
                                f"a non-negative integer\n")
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["train", "eval-model"])
    @pytest.mark.parametrize("fault", ["no-manifest", "bad-line", "no-input"])
    def test_dataset_directory_fault_exits_2(self, tmp_path, echo_data, capsys, mode,
                                             fault):
        argv, faulty, _ = _echo_run(tmp_path, echo_data, mode)
        manifest = faulty / "manifest.txt"
        seq_id = manifest.read_text().splitlines()[0].split("\t")[0]
        if fault == "no-manifest":
            manifest.unlink()
            message = f"no manifest.txt in {faulty}"
        elif fault == "bad-line":
            manifest.write_text(f"{seq_id} 16\n")
            message = f"{manifest}:1: expected 'id<TAB>frames'"
        else:
            (faulty / f"{seq_id}.input.feat").unlink()
            message = f"{faulty}: sequence '{seq_id}' has no input file"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out.dfsmn").exists()

    def test_long_manifest_frame_count_exits_2_printed_short(self, tmp_path, echo_data,
                                                              capsys):
        manifest = echo_data / "train" / "manifest.txt"
        seq_id = manifest.read_text().split("\t")[0]
        manifest.write_text(f"{seq_id}\t{LONG}\n")
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(model)]) == 2
        captured = capsys.readouterr()
        where = f"error: {manifest}:1: "
        assert captured.err.startswith(f"{where}frame count 'xxx"), captured.err[:300]
        assert len(captured.err) < len(where) + 300, captured.err[:300]
        assert captured.out == ""
        assert not model.exists()

    def test_blank_manifest_lines_are_skipped(self, echo_data):
        manifest = echo_data / "train" / "manifest.txt"
        want = load_dataset(echo_data / "train")
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:1] + ["", ""] + lines[1:]) + "\n\n")
        got = load_dataset(echo_data / "train")
        assert [seq.seq_id for seq in got] == [seq.seq_id for seq in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.inputs, b.inputs)
            assert a.targets.keys() == b.targets.keys()
            assert all(np.array_equal(a.targets[k], b.targets[k]) for k in a.targets)

    def test_train_empty_valid_exits_2(self, tmp_path, echo_data, capsys):
        (echo_data / "valid" / "manifest.txt").write_text("")
        model = tmp_path / "m.dfsmn"
        assert main(["train", "--config", str(self._write_cfg(tmp_path)),
                     "--data", str(echo_data), "--out", str(model)]) == 2
        assert "manifest lists no sequences" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["analyze", "train", "eval"])
    def test_directory_in_place_of_a_file_exits_2(self, tmp_path, echo_data, capsys,
                                                  command):
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        argv = {"analyze": ["analyze", "--preset", "A", "--out", str(a_dir)],
                "train": ["train", "--config", str(self._write_cfg(tmp_path)),
                          "--data", str(echo_data), "--out", str(a_dir),
                          "--epochs", "1"],
                "eval": ["eval", "--model", str(a_dir),
                         "--data", str(echo_data / "valid")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")

    @pytest.mark.slow
    def test_echo_lag8_learned_end_to_end(self, tmp_path, capsys):
        # covering receptive field (8) beats the lag -> near-zero eval MSE
        data = tmp_path / "echo8"
        assert main(["synthdata", "--task", "echo", "--lag", "8",
                     "--sequences", "64", "--len", "64", "--seed", "0",
                     "--out", str(data)]) == 0
        cfg_doc = dict(ECHO_TRAIN_CONFIG)
        cfg_doc["layers"] = [dict(ECHO_TRAIN_CONFIG["layers"][0], n_back=8)]
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(cfg_doc))
        model = tmp_path / "wide.dfsmn"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(model), "--epochs", "200", "--lr", "0.05",
                     "--seed", "1", "--min-improvement", "0.001",
                     "--patience", "10"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model),
                     "--data", str(data / "valid")]) == 0
        out = capsys.readouterr().out
        mse = float(next(line.split()[1] for line in out.splitlines()
                         if line.startswith("total_mse")))
        assert mse < 0.05


def _echo_model(tmp_path):
    """An untrained echo model file (ECHO_TRAIN_CONFIG)."""
    cfg = parse_config(json.dumps(ECHO_TRAIN_CONFIG))
    model = tmp_path / "m.dfsmn"
    save_model(build_network(cfg, 0), cfg, str(model))
    return str(model)


def _echo_run(tmp_path, data, mode):
    """(argv, the directory it reads that a fault is planted in, the prefix
    naming that directory in an error) for one way of reading the echo set
    data: train, eval --model, or either side of eval --hyp against a copy."""
    if mode == "train":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ECHO_TRAIN_CONFIG))
        return (["train", "--config", str(cfg), "--data", str(data), "--out",
                 str(tmp_path / "out.dfsmn"), "--epochs", "1"], data / "train", "")
    if mode == "eval-model":
        return (["eval", "--model", _echo_model(tmp_path), "--data", str(data / "train")],
                data / "train", "")
    ref, hyp = data / "train", tmp_path / "hyp"
    shutil.copytree(ref, hyp)
    faulty = {"eval-hyp-reference": ref, "eval-hyp-hypothesis": hyp}[mode]
    side = mode.rsplit("-", 1)[1]
    return ["eval", "--data", str(ref), "--hyp", str(hyp)], faulty, f"{side} {faulty}: "


RUN_MODES = ["train", "eval-model", "eval-hyp-reference", "eval-hyp-hypothesis"]


class TestStreamRule:
    """train, eval --model and both sides of eval --hyp hold their data to one
    stream rule, and name a fault the same way."""

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("fault,message", [
        ("missing", "sequence train0001: missing stream 'echo'"),
        ("wide", "sequence train0001: stream 'echo' shape (16, 2) != (16, 1)"),
        ("0-wide", "sequence train0001: stream 'echo' is 0 wide"),
    ], ids=["missing", "wide", "0-wide"])
    def test_stream_fault_gives_one_message(self, tmp_path, echo_data, capsys, mode,
                                            fault, message):
        argv, faulty, prefix = _echo_run(tmp_path, echo_data, mode)
        path = faulty / "train0001.echo.feat"
        if fault == "missing":
            path.unlink()
        else:
            width = {"wide": 2, "0-wide": 0}[fault]
            write_feature(path, "echo", np.zeros((16, width), np.float32))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {prefix}{message}\n"
        assert captured.out == ""

    # "in", not "input", and "hyp-hypothesis", not "eval-hyp-hypothesis": each
    # id stays distinct in its first 100 characters (test_ids.py)
    @pytest.mark.parametrize("mode", RUN_MODES, ids=["train", "eval-model",
                                                     "eval-hyp-reference", "hyp-hypothesis"])
    @pytest.mark.parametrize("stream", ["input", "echo"], ids=["in", "echo"])
    def test_non_finite_feature_value_exits_2_naming_the_file(self, tmp_path, echo_data,
                                                              capsys, mode, stream):
        argv, faulty, _ = _echo_run(tmp_path, echo_data, mode)
        path = faulty / f"train0002.{stream}.feat"
        _, data = read_feature(path)
        data[3, 0] = np.nan
        write_feature(path, stream, data)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: non-finite value at frame 3, dim 0\n"
        assert captured.out == ""
        assert not (tmp_path / "out.dfsmn").exists()

    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_header_fault_exits_2_naming_the_file(self, tmp_path, echo_data, capsys,
                                                  mode):
        argv, faulty, _ = _echo_run(tmp_path, echo_data, mode)
        path = faulty / "train0002.echo.feat"
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: bad magic b'XXXX', expected b'FEAT'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("fault", ["header", "frames", "manifest"])
    def test_dataset_fault_exits_2_naming_the_file(self, tmp_path, echo_data, capsys,
                                                   mode, fault):
        argv, faulty, _ = _echo_run(tmp_path, echo_data, mode)
        path = faulty / "train0001.echo.feat"
        _, data = read_feature(path)
        if fault == "header":
            write_feature(path, "other", data)
            message = f"{path}: header stream 'other' != filename stream 'echo'\n"
        elif fault == "frames":
            write_feature(path, "echo", data[1:])
            message = f"{path}: {len(data) - 1} frames, manifest says {len(data)}\n"
        else:
            path = faulty / "manifest.txt"
            path.write_bytes(path.read_bytes().replace(b"train0001", b"train\xff001"))
            message = f"{path}: 'utf-8' codec can't decode byte 0xff"
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not (tmp_path / "out.dfsmn").exists()

    @pytest.mark.parametrize("side", ["reference", "hypothesis"])
    def test_eval_hyp_0_wide_lf0_exits_2(self, tmp_path, capsys, side):
        # a 0-wide lf0 would leave f0_rmse_hz no column 0 to read
        data = tmp_path / "toy"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "4",
                     "--sequences", "4", "--len", "10", "--out", str(data)]) == 0
        ref, hyp = data / "train", tmp_path / "hyp"
        shutil.copytree(ref, hyp)
        faulty = {"reference": ref, "hypothesis": hyp}[side]
        for seq_id, frames in read_manifest(faulty):
            write_feature(faulty / f"{seq_id}.lf0.feat", "lf0",
                          np.zeros((frames, 0), np.float32))
        capsys.readouterr()
        assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {side} {faulty}: sequence train0000: "
                                f"stream 'lf0' is 0 wide\n")
        assert captured.out == ""

    def test_eval_hyp_only_common_stream_0_wide_exits_2(self, tmp_path, capsys):
        def dataset(path, streams):
            write_dataset(path, [SequenceData("u0", np.zeros((5, 1), np.float32),
                                              {name: np.zeros((5, width), np.float32)
                                               for name, width in streams.items()})])
        ref, hyp = tmp_path / "ref", tmp_path / "hyp"
        dataset(ref, {"lf0": 0, "bap": 2})
        dataset(hyp, {"lf0": 0, "mcep": 3})
        assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: reference {ref}: sequence u0: stream 'lf0' is 0 wide\n"
        assert captured.out == ""

    def test_eval_hyp_with_no_common_stream_exits_2(self, tmp_path, echo_data, capsys):
        toy = tmp_path / "toy"
        assert main(["synthdata", "--task", "acoustic_toy", "--dim", "1",
                     "--sequences", "6", "--len", "16", "--out", str(toy)]) == 0
        ref, hyp = echo_data / "train", toy / "train"
        capsys.readouterr()
        assert main(["eval", "--data", str(ref), "--hyp", str(hyp)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: no stream in common: reference {ref} carries "
                                f"['echo'], hypothesis {hyp} carries "
                                f"['bap', 'lf0', 'mcep', 'uv']\n")
        assert captured.out == ""

    def test_eval_hyp_skips_every_measure_the_echo_set_lacks(self, echo_data, capsys):
        ref = str(echo_data / "train")
        capsys.readouterr()
        assert main(["eval", "--data", ref, "--hyp", ref]) == 0
        assert capsys.readouterr().out == (
            "streams: echo\n"
            "total_mse 0\n"
            "mcd_db skipped (no mcep stream)\n"
            "f0_rmse_hz skipped (needs lf0 and uv streams)\n"
            "bapd skipped (no bap stream)\n"
            "uv_error skipped (no uv stream)\n")


class TestUsage:
    def test_readme_cli_examples_parse(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path) as f:
            section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        lines = [ln for ln in section.splitlines() if ln.startswith("dfsmn ")]
        assert len(lines) >= 6
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert args.command == line.split()[1]

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["analyze", "--preset", "A", "--frobnicate"]) == 2
