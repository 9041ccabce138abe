"""Annotation-consistent weakly supervised instance segmentation.

A desk-scale implementation of joint pseudo-label generation and
prediction learning: a noise-conditioned conditional distribution over
proposal labelings (unary scoring, boundary-aware pairwise refinement,
annotation-consistency enforcement, greedy inference) and a fully
factorized prediction distribution, trained together by minimizing a
dissimilarity coefficient with block coordinate descent and direct loss
minimization.
"""

__version__ = "0.1.0"

from .ablation import AblationResult, ablation_run
from .condnet import (
    InferenceConfig,
    InferenceError,
    exact_infer,
    greedy_infer,
    pairwise_refine,
    sample_k,
    total_score,
)
from .config import ConfigError, EvalConfig, RunConfig, load_config, save_config
from .disco import DiscParts, disc, div_cc, div_pc, div_pp
from .evaluate import EvalResult, ap_from_flags, evaluate_predictions, map_at
from .loss import LossConfig, delta
from .masks import Box, box_iou, mask_iou, overlap_fraction, rle_decode, rle_encode
from .prednet import PredParams, argmax_labeling, decode, pred_init, predict
from .scenes import (
    Annotation,
    DatasetFormatError,
    GroundTruthInstance,
    SceneRecord,
    Seed,
    load_dataset,
    save_dataset,
)
from .scorer import CondParams, cond_init, draw_noise, features
from .synthgen import (
    EmptyPoolError,
    PlacementError,
    ProposalConfig,
    SceneConfig,
    apply_box_regime,
    filter_by_boxes,
    gen_proposals,
    gen_scene,
    make_dataset,
    make_scene,
)
from .train import (
    FitResult,
    TrainConfig,
    TrainingError,
    cond_grad,
    evaluate_params,
    fit,
    load_checkpoint,
    pred_grad,
    save_checkpoint,
    seed_labeling,
)

__all__ = [
    "AblationResult",
    "Annotation",
    "Box",
    "CondParams",
    "ConfigError",
    "DatasetFormatError",
    "DiscParts",
    "EmptyPoolError",
    "EvalConfig",
    "EvalResult",
    "FitResult",
    "GroundTruthInstance",
    "InferenceConfig",
    "InferenceError",
    "LossConfig",
    "PlacementError",
    "PredParams",
    "ProposalConfig",
    "RunConfig",
    "SceneConfig",
    "SceneRecord",
    "Seed",
    "TrainConfig",
    "TrainingError",
    "ablation_run",
    "ap_from_flags",
    "apply_box_regime",
    "argmax_labeling",
    "box_iou",
    "cond_grad",
    "cond_init",
    "decode",
    "delta",
    "disc",
    "div_cc",
    "div_pc",
    "div_pp",
    "draw_noise",
    "evaluate_params",
    "evaluate_predictions",
    "exact_infer",
    "features",
    "filter_by_boxes",
    "fit",
    "gen_proposals",
    "gen_scene",
    "greedy_infer",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "make_dataset",
    "make_scene",
    "map_at",
    "mask_iou",
    "overlap_fraction",
    "pairwise_refine",
    "pred_grad",
    "pred_init",
    "predict",
    "rle_decode",
    "rle_encode",
    "sample_k",
    "save_checkpoint",
    "save_config",
    "save_dataset",
    "seed_labeling",
    "total_score",
]
