"""How a seed becomes a random stream: only ``seeding`` builds one, with the
bits of the inline forms it replaced, and no seed is wrapped to 64 bits."""

import pathlib
import re

import numpy as np
import pytest

from noisestab import baselines, data, nn, seeding, stability, theory
from oracles import failure_fraction

SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
SRC = pathlib.Path(seeding.__file__).parent


def state(seq):
    return seq.generate_state(8).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
class TestStreamBits:
    def test_plain_seed(self, seed):
        assert state(seeding.seed_sequence(seed)) == state(np.random.SeedSequence(seed))
        draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert np.array_equal(seeding.rng(seed).random(16), draws.random(16))

    @pytest.mark.parametrize("t", [0, 1, 49])
    def test_seed_and_pass_index(self, seed, t):
        assert (state(seeding.seed_sequence(seed, t))
                == state(np.random.SeedSequence([seed, t])))

    @pytest.mark.parametrize("pool_size, k", [(32, 1), (1024, 77)])
    def test_seed_pool_size_and_samplings(self, seed, pool_size, k):
        assert (state(seeding.seed_sequence(seed, pool_size, k))
                == state(np.random.SeedSequence([seed, pool_size, k])))

    def test_spawned_child(self, seed):
        children = seeding.seed_sequence(seed).spawn(len(theory.CONCENTRATION_KINDS))
        for i, child in enumerate(children):
            assert state(child) == state(np.random.SeedSequence(seed, spawn_key=(i,)))


@pytest.mark.parametrize("call", [
    lambda: theory.concentration_trial("magnitude", 10, 4, 0.5, 5, seed=-1),
    lambda: failure_fraction("magnitude", 10, 4, 0.5, 5, seed=-1),
    lambda: theory.required_samplings(10, 4, 0.5, -1, 0.1, 5),
    lambda: nn.build_mlp(3, [4], 2, seed=-1),
    lambda: data.gen_two_moons(10, 0.1, seed=-1),
    lambda: baselines.select_random(10, 2, seed=-1),
    lambda: stability.sample_directions(3, 2, seed=-1),
], ids=["concentration_trial", "failure_fraction", "required_samplings",
        "build_mlp", "gen_two_moons", "select_random", "sample_directions"])
def test_negative_seed_raises(call):
    # a negative seed used to run seed 2**64 - 1 in the theory checks
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("label", [2 ** 32, -1, np.int64(-1), 2 ** 64])
def test_integer_label_outside_32_bits_raises(label):
    # a label used to be masked to 32 bits: 2**32 gave label 0's stream and
    # -1 gave label 2**32 - 1's
    with pytest.raises(ValueError, match=r"integer label must be in \[0, 2\*\*32\)"):
        seeding.seed_sequence(0, label)
    with pytest.raises(ValueError, match="integer label"):
        seeding.rng(7, 3, label)


def test_only_seeding_builds_a_seed_sequence_or_wraps_a_seed():
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "seeding.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"SeedSequence\(|0x[fF]{16}\b", line)
    ]
    assert offenders == []
