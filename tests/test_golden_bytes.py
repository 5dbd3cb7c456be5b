"""Golden digests of built parameters, generated clips and short training runs.

The parameter and clip digests were taken before model building drew each
parameter group in one stream call and before sprite masks were cached, so any
change to how construction draws from the stream that moves a parameter or
pixel byte fails here. The clip digests were taken while clips were float64,
so they hash the pixels widened to float64: painting into float32 canvases
must leave every value where it was. The training digests were taken before
`backward` freed the tape as it swept, so any change to the forward, the
backward or Adam that moves a loss, a trained parameter or an eval score by
one bit fails here.
The grid digests pin the CSV bytes of both `_quick` experiment configs.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framefuse.frontend import FusionMethod
from framefuse.pipeline import ModelConfig, build_model
from framefuse.synthclips import GenConfig, gen_dataset
from framefuse.training import TrainConfig, evaluate, train

HERE = Path(__file__).resolve().parent

# desk: B=32 training shape; fine: the eval-fine shape (16 frames, patch 7,
# k=2); odd: odd-size encoder and Q-Former tensors (33x33 projections), so
# some blocks of a grouped draw end on a dropped sin
CONFIGS = {
    "desk": (4, dict(n_input=8)),
    "fine": (2, dict(n_input=16, patch=7)),
    "odd": (4, dict(n_input=8, enc_hidden=33, enc_heads=3, out_hidden=33, qformer_heads=3)),
}

PARAM_DIGESTS = {
    "desk": {
        "baseline": "5cb58b4c23a0e1fc5442dbea5cc87d7f8d51ac4298e4584e5ad10dc309f30854",
        "channel-merge": "0aa77cd38d0c8edea038155f693c0f9f6c56483719fec7be92e5fcf09d3799f4",
        "pllava-pool": "5cb58b4c23a0e1fc5442dbea5cc87d7f8d51ac4298e4584e5ad10dc309f30854",
        "kangaroo-mlp": "0e4866db10e060d382c77d89b8d4780fcb3d3c891f4736b2b08d0213c8758483",
        "qformer": "6dcc04f50e940da6eb6ed74495b6401c2e3984068cd4841011a49680640d2a94",
        "through-encoder": "6f3561d67af0a38d501d5b86d8603a593756629954580e02c9f1bcf9ba3f9842",
    },
    "fine": {
        "baseline": "2252e6486301786668b7cb4d6da72ee4cb800a664dccb9e122c4d2f49abe1bc3",
        "channel-merge": "6a04d83d266cf5c84d87128bfdea8c89eea1990d3394f693f8bbaaa0f0234f18",
        "pllava-pool": "2252e6486301786668b7cb4d6da72ee4cb800a664dccb9e122c4d2f49abe1bc3",
        "kangaroo-mlp": "230982c9c7dc087d32b3c14d9a0a856a78bdd59aeb00c2bbc6acea7e96d69453",
        "qformer": "f1df60a3d90abec38780d8a7a558e849982739820ed1fa45e04e81a8a6326580",
        "through-encoder": "ba4e66c890a826a07c47ef5bdcde31cd8a52bca773d8630a068583a33c49e45f",
    },
    "odd": {
        "baseline": "ab5db134f93f3ff630dc65e8a47a75bdb6a8beecadeb43196d3db9dc98407ca1",
        "channel-merge": "6dab2e14f9f3e86726a905c79ab431c36c66ad65bd62e27c1677b253e6d21e7f",
        "pllava-pool": "ab5db134f93f3ff630dc65e8a47a75bdb6a8beecadeb43196d3db9dc98407ca1",
        "kangaroo-mlp": "e0b0ed7a34e9c8b652a2b490dfb6a5f15911c4f293b8f03ab044017b58069e58",
        "qformer": "e062210e042d61bfc61c438e459eea163fd676c791d88f7463ef0b1d6ead9039",
        "through-encoder": "5b007aefd4da07b4718d06c5288ca68e072fa4d7b0e167621da41d55b5cbbe96",
    },
}

TRAIN_DIGESTS = {
    "desk": {
        "baseline": "feba98d29764765c12029a9dc9dcdc090da6f5823588359f9f7e23b274b8ad81",
        "channel-merge": "08a012d3069aaaa74b9804ba924f2a15f9cd8b2d7cfdcc57d2812a24c68708cd",
        "pllava-pool": "95a4b27bed9b82994c397bcdf92c3174dd32e5eab2a921c8f43daa90c1822e7c",
        "kangaroo-mlp": "882f93c55faa855bda7058d5911fd430075624de8269fb3cc796153e600799a8",
        "qformer": "0bcd9c555669c17f15f17b5f6e03b1d92ebc239a9a24ffc7b2be2433ecb03688",
        "through-encoder": "8a88752c49db0d8f6f181643f6ce58c881fd619cdbc9e53fa0b0d2a80b6280c5",
    },
    "fine": {
        "baseline": "fc6d91197001d60bd2a76ba724aea3586c5a215b4c9eb6ad23ad33d8f37e4a7d",
        "channel-merge": "b5ca303079c47fc444f5f61039ce22f9e2c8592853feb60dad54dd6a17a1650c",
        "pllava-pool": "7f3c2bb24357ba1f4fb4be031925d86c83181a0adbe514875fb327e6d46d1288",
        "kangaroo-mlp": "2c491c2e6352cd0023279504efd599f6797e867fc46b00a4ee4b3b1f3dbb4f89",
        "qformer": "844e715cd6399539930fd64e23a4249e9eb76d9a7f2cd739c1e34b48b883569b",
        "through-encoder": "a445075a5f57605164c2fae988b5b68ffebd270d345d125a92893c0c44a473ca",
    },
}

# sha256 of the CSV `framefuse grid --config experiments/<name>.json` writes
GRID_DIGESTS = {
    "fixed_frames_quick": "9f0ae47aad3023fd9a5bda310bb4fef763ad4652e75bc76c015354eeb89d565c",
    "fixed_budget_quick": "758507818f8b3cd72e237259489f4b46f793916924981e12d159b80db6983f10",
}

CLIP_DIGESTS = {
    8: "0af3bb9338cb317627cc0d2b31363fe62eff14ffc67d19269075b2fadf64f773",
    16: "63d2aaa9cdaf40f2ec65b87a6a634cc7437e697b12496f3ef4fdb5ae9a0a5000",
}


def params_digest(params) -> str:
    """sha256 over every parameter's name, shape and bytes, in dict order."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(f"{name}{t.shape}".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("method", list(FusionMethod), ids=lambda m: m.value)
def test_build_model_parameter_bytes(config, method):
    k, fields = CONFIGS[config]
    cfg = ModelConfig(method=method, k=1 if method is FusionMethod.BASELINE else k, **fields)
    assert params_digest(build_model(cfg, 11).params) == PARAM_DIGESTS[config][method.value]


@pytest.mark.parametrize("frames", sorted(CLIP_DIGESTS))
def test_gen_dataset_pixel_bytes(frames):
    samples, _ = gen_dataset(2, 23, GenConfig(frames=frames))
    h = hashlib.sha256()
    for s in samples:
        h.update(s.clip.pixels.data.astype(np.float64).tobytes())
    assert h.hexdigest() == CLIP_DIGESTS[frames]


def train_digest(config: str, method: FusionMethod) -> str:
    """6 Adam steps at B=16, then one evaluate: sha256 over every loss, every
    trained parameter and the eval mean loss and accuracy."""
    k, fields = CONFIGS[config]
    cfg = ModelConfig(method=method, k=1 if method is FusionMethod.BASELINE else k, **fields)
    bundle = build_model(cfg, 11)
    gcfg = GenConfig(frames=cfg.n_input)
    train_set, _ = gen_dataset(3, 29, gcfg)
    eval_set, _ = gen_dataset(2, 31, gcfg)
    result = train(bundle, train_set, TrainConfig(total_steps=6, warmup_steps=1, batch=16,
                                                  lr=1e-3, seed=5))
    scores = evaluate(bundle, eval_set)
    h = hashlib.sha256(np.array(result.losses).tobytes())
    h.update(params_digest(bundle.params).encode())
    h.update(np.array([scores.mean_loss, scores.accuracy]).tobytes())
    return h.hexdigest()


def one_blas_thread(*argv: str) -> str:
    """stdout of `python argv...` in a child process with BLAS on one thread:
    a multithreaded GEMM splits its sums by thread count, so trained bytes
    differ between 1 and 2 threads (they also depend on the CPU's BLAS kernel)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.fixture(scope="module")
def train_digests():
    """Every `train_digest`, taken at one BLAS thread."""
    code = ("import json, test_golden_bytes as t; print(json.dumps({c: {m.value: "
            "t.train_digest(c, m) for m in t.FusionMethod} for c in t.TRAIN_DIGESTS}))")
    return json.loads(one_blas_thread("-c", code))


@pytest.mark.slow
@pytest.mark.parametrize("config", sorted(TRAIN_DIGESTS))
@pytest.mark.parametrize("method", list(FusionMethod), ids=lambda m: m.value)
def test_train_and_evaluate_bytes(config, method, train_digests):
    assert train_digests[config][method.value] == TRAIN_DIGESTS[config][method.value]


@pytest.mark.parametrize("config", sorted(GRID_DIGESTS))
def test_quick_grid_csv_bytes(config, tmp_path):
    out = tmp_path / "grid.csv"
    one_blas_thread("-m", "framefuse", "grid", "--config",
                    str(HERE.parent / "experiments" / f"{config}.json"), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_DIGESTS[config]
