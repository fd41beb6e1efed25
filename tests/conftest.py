import numpy as np
import pytest
from hypothesis import settings

from noisestab import nn, selection

# property tests draw the same examples on every run, so the suite's verdict
# does not change from run to run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def exact_pairs(monkeypatch):
    """A one-entry list counting the exact row-center distances that
    ``selection._Distances.squared`` and ``selection._Distances.to`` compute
    during the test."""
    count = [0]
    squared, to = selection._Distances.squared, selection._Distances.to

    def counting_squared(dist, row_of, centers, center_of):
        count[0] += row_of.size
        return squared(dist, row_of, centers, center_of)

    def counting_to(dist, center):
        count[0] += dist.points.shape[0]
        return to(dist, center)

    monkeypatch.setattr(selection._Distances, "squared", counting_squared)
    monkeypatch.setattr(selection._Distances, "to", counting_to)
    return count


@pytest.fixture
def hand_232_model():
    """2-3-2 net with hand-set weights (feature tap after the ReLU)."""
    w1 = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]])
    b1 = np.array([0.01, -0.02, 0.03])
    w2 = np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -0.4]])
    b2 = np.array([0.05, -0.06])
    return nn.MlpModel([nn.Linear(w1, b1), nn.ReLU(), nn.Linear(w2, b2)],
                       feature_tap=2)


@pytest.fixture
def scalar_linear_model():
    """1-output bias-free linear map f(x; theta) = theta @ x."""
    theta = np.array([[0.6, -0.8, 0.3, 0.5]])
    return nn.MlpModel([nn.Linear(theta)], feature_tap=1)


def random_relu_net(gen, input_dim=None, depth=None):
    """Small random Linear/ReLU stack for gradient-check sweeps."""
    input_dim = input_dim or int(gen.integers(2, 5))
    depth = depth or int(gen.integers(1, 3))
    layers = []
    prev = input_dim
    for _ in range(depth):
        width = int(gen.integers(2, 6))
        layers.append(nn.Linear(gen.normal(size=(width, prev)),
                                gen.normal(size=width)))
        layers.append(nn.ReLU())
        prev = width
    out = int(gen.integers(1, 4))
    layers.append(nn.Linear(gen.normal(size=(out, prev)), gen.normal(size=out)))
    return nn.MlpModel(layers, feature_tap=len(layers) - 1), input_dim
