import json
import os
import shlex
import struct

import numpy as np
import pytest

from dfsmn import cli
from dfsmn import network as net
from dfsmn.cli import build_parser, main
from dfsmn.features import (SequenceData, read_feature, read_manifest, write_dataset,
                            write_feature)
from dfsmn.model_io import MAGIC, VERSION, save_model
from dfsmn.network import build_network, config_to_json, expand_shorthand, parse_config
from dfsmn.tensor import Counter64

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


class TestGradcheck:
    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["gradcheck", "--config", str(cfg), "--frames", "10",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "back_taps" in out
        # fd truncation error cannot meet 1e-12 on a nonlinear net
        assert main(["gradcheck", "--config", str(cfg), "--frames", "10",
                     "--seed", "1", "--tol", "1e-12"]) == 1
        assert "FAIL" in capsys.readouterr().out

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FP64_TANH_CONFIG))
        assert main(["gradcheck", "--config", str(cfg), "--frames", "4",
                     f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {knob} must be finite and > 0")
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag,value,knob", [("--valid-sequences", "-1",
                                                  "valid_sequences"),
                                                 ("--noise-std", "nan", "noise_std"),
                                                 ("--noise-std", "-1", "noise_std"),
                                                 ("--noise-std", "inf", "noise_std"),
                                                 ("--len", "0", "seq_len"),
                                                 ("--sequences", "0", "num_sequences"),
                                                 ("--dim", "0", "input_dim")])
    def test_bad_knob_exits_2_before_writing(self, tmp_path, capsys, flag, value, knob):
        out = tmp_path / "d"
        assert main(["synthdata", "--sequences", "4", "--len", "8", "--out", str(out),
                     f"{flag}={value}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob} must be")
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith(f"error: {knob} must be")
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

    def _mcep_set(self, path, lengths):
        """A dataset with one 3-dim mcep stream; each sequence's values
        follow from its id and length alone."""
        write_dataset(path, [
            SequenceData(seq_id, np.zeros((n, 1), np.float32),
                         {"mcep": Counter64(sum(map(ord, seq_id)) + n).normal(3 * n)
                          .reshape(n, 3).astype(np.float32)})
            for seq_id, n in lengths])
        return str(path)

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
        assert captured.err == f"error: sequence {seq_id}: missing stream {stream!r}\n"
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
