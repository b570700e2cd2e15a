"""Shared test fixtures."""

import pytest

from sswm import dists


@pytest.fixture
def smooth_latents(monkeypatch):
    """Feed each categorical's probabilities where its straight-through sample would go.

    The sample is a step function of the logits, so finite differences
    cannot probe it; with the probabilities in its place every loss is
    smooth, and the gradient checks see the whole graph.
    """
    monkeypatch.setattr(dists, "sample_straight_through", lambda probs, rng: probs)
