"""Shared test fixtures."""

import pytest

from sswm import dists
from sswm.tensor import Tensor


@pytest.fixture
def smooth_latents(monkeypatch):
    """Feed each categorical's probabilities where its straight-through sample would go.

    The sample is a step function of the logits, so finite differences
    cannot probe it; with the probabilities in its place every loss is
    smooth, and the gradient checks see the whole graph.
    """
    monkeypatch.setattr(dists, "sample_straight_through", lambda probs, rng: probs)


@pytest.fixture
def built_tensors(monkeypatch):
    """A list that gains one entry for each Tensor constructed from here on."""
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return built
