"""Group-relative reward normalization.

Advantages are computed within a group of responses to one prompt: center
by the group mean, divide by the population standard deviation plus a
small stabilizer. Degenerate groups (all rewards equal) are kept and get
exactly zero advantages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractViolation
from .policy import SampledResponse
from .tasks import Prompt

DEFAULT_XI = 1e-6


@dataclass(frozen=True)
class RolloutGroup:
    """G responses to one prompt with their outcome rewards."""

    prompt: Prompt
    responses: tuple[SampledResponse, ...]
    rewards: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(self.responses))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=np.float64))
        if len(self.responses) < 2:
            raise ContractViolation("a rollout group needs at least two responses")
        if self.rewards.shape != (len(self.responses),):
            raise ContractViolation("one reward per response is required")
        if not np.all(np.abs(self.rewards) == 1.0):
            raise ContractViolation("rewards must be +1 or -1")

    @property
    def size(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class GroupStats:
    mean_reward: float
    std_reward: float
    pass_rate: float
    advantages: np.ndarray


def pass_rate(rewards: np.ndarray) -> float:
    """Fraction of strictly positive rewards."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size == 0:
        raise ContractViolation("pass rate of an empty group")
    return int(np.count_nonzero(rewards > 0.0)) / rewards.size


def group_stats(rewards: np.ndarray, xi: float = DEFAULT_XI) -> GroupStats:
    """Mean, population std, pass rate and normalized advantages in one pass.

    Means are ``sum / n``, which is exactly what ``np.mean`` computes.
    """
    if not xi > 0.0:
        raise ContractViolation("xi must be positive")
    rewards = np.asarray(rewards, dtype=np.float64)
    n = rewards.size
    if n < 2:
        raise ContractViolation("advantage normalization needs at least two rewards")
    mean = float(rewards.sum()) / n
    centered = rewards - mean
    std = math.sqrt(float((centered * centered).sum()) / n)
    return GroupStats(
        mean_reward=mean,
        std_reward=std,
        pass_rate=pass_rate(rewards),
        advantages=centered / (std + xi),
    )
