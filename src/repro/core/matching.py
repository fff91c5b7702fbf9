"""Matching modules (Section 2.2): the scorer that turns a (query node,
KB node) embedding pair into a matching logit.

The paper lists three options — "a multi-layer perceptron with one hidden
layer, a log-bilinear model, or simply a dot product" — and trains with
the dot product inside Eq. 5.  All three are provided; the trainer
defaults to the dot product and the ablation bench sweeps the others.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..autograd import MLP, Bilinear, Module, Tensor, concat, rows_dot


class Matcher(Module):
    """Common interface of the three matching modules.

    ``forward`` is the row-aligned pair scorer, used for training and
    inference alike: every ranking path (the pipeline, the batched and
    sharded services) scores pairs through
    :func:`repro.core.model.pair_logits`, which calls it.
    """


class DotProductMatcher(Matcher):
    """``score(u, v) = s * (h_u . h_v) + b`` — the paper's dot-product
    scorer with a learnable affine calibration.

    With L2-normalised embeddings a raw dot product is confined to
    [-1, 1], which caps the sigmoid at ~0.73 and starves Eq. 5 of
    gradient; the scalar scale/bias (2 parameters) restores calibration
    without changing the geometry the paper describes.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.scale = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return rows_dot(h_query, h_candidate) * self.scale + self.bias


class MLPMatcher(Matcher):
    """One-hidden-layer MLP over concatenated pair embeddings."""

    def __init__(self, dim: int, rng: np.random.Generator, hidden: int = 0):
        super().__init__()
        self.dim = dim
        self.mlp = MLP(2 * dim, [hidden or dim], 1, rng)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return self.mlp(concat([h_query, h_candidate], axis=1)).reshape(-1)


class BilinearMatcher(Matcher):
    """Log-bilinear pair scorer ``h_u^T W h_v + b``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.bilinear = Bilinear(dim, dim, rng)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return self.bilinear(h_query, h_candidate)


_MATCHERS: Dict[str, Callable[..., Module]] = {
    "dot": lambda dim, rng: DotProductMatcher(dim),
    "mlp": lambda dim, rng: MLPMatcher(dim, rng),
    "bilinear": lambda dim, rng: BilinearMatcher(dim, rng),
}


def make_matcher(name: str, dim: int, rng: np.random.Generator) -> Module:
    """Factory over the three matching modules of Section 2.2."""
    try:
        factory = _MATCHERS[name]
    except KeyError:
        raise ValueError(f"unknown matcher {name!r}; options: {sorted(_MATCHERS)}") from None
    return factory(dim, rng)
