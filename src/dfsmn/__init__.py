"""Deep feed-forward sequential memory networks for speech-synthesis
back-ends: layers with hand-written backprop, whole-network training, cost
analysis (receptive field, size, FLOPS), and objective speech metrics."""

from .analysis import CostReport, analyze, flops_per_frame, receptive_field, table_report
from .layers import DfsmnLayerParams
from .metrics import (NormStats, apply_norm, bapd, f0_rmse, fit_norm, interpolate_f0,
                      invert_norm, mcd, total_mse, uv_error)
from .model_io import load_model, save_model
from .network import (DfsmnLayerSpec, FcLayerSpec, NetworkConfig, NetworkParams,
                      StreamSpec, build_network, count_params, expand_shorthand,
                      forward, backward, parse_config, preset_config, PRESETS)
from .tensor import Counter64, ShapeError, derive_seed, seeded_normal
from .trainer import (GradCheckReport, LrScheduler, SyntheticTaskSpec, TrainConfig,
                      gen_acoustic_toy_task, gen_echo_task, grad_check,
                      multitask_mse, sgd_step, train)

__version__ = "0.1.0"
