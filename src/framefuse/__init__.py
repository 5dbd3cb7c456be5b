"""Video token compression testbed: a small transformer stack with swappable
temporal-fusion paths, a scripted motion-QA benchmark, and an ablation harness.
"""

from .autodiff import MASK_BLOCKED, Tape, Tensor, backward
from .compressor import TokenBudget, compress, token_budget
from .encoder import encode
from .errors import FrameFuseError, NumericalError, ValidationError
from .frontend import COMPRESSION_METHODS, FusionMethod, VideoClip
from .grid import ExperimentSpec, GridAxis, RunResult, run_grid
from .pipeline import ModelBundle, ModelConfig, build_model, forward_logits
from .synthclips import GenConfig, TaskCategory, gen_dataset, gen_sample
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "MASK_BLOCKED", "Tape", "Tensor", "backward",
    "TokenBudget", "compress", "token_budget",
    "encode",
    "FrameFuseError", "NumericalError", "ValidationError",
    "COMPRESSION_METHODS", "FusionMethod", "VideoClip",
    "ExperimentSpec", "GridAxis", "RunResult", "run_grid",
    "ModelBundle", "ModelConfig", "build_model", "forward_logits",
    "GenConfig", "TaskCategory", "gen_dataset", "gen_sample",
    "TrainConfig", "evaluate", "train",
    "__version__",
]
