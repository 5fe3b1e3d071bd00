"""Statevector references for Grover search, used only by the tests.

Each round runs the two reflections (a phase flip on the marked entries,
then inversion about the mean) on explicit amplitudes.  The closed form
sin^2((2k+1) asin(sqrt(t/m))) and ``qsim._entry_probabilities``, which
exact draws sample from, are checked against these.  The generalized
iterate of the fixed-point search runs the same way with complex phases,
and checks ``qsim._fixed_point_probabilities``.
"""

import itertools
import math

import numpy as np


def statevectors(marked_mask: np.ndarray):
    """Amplitudes after 0, 1, 2, ... rounds of the two reflections on the whole vector.

    The last axis is the register, so a stack of masks runs one register per row.
    """
    amps = np.full(marked_mask.shape, 1.0 / math.sqrt(marked_mask.shape[-1]))
    while True:
        yield amps
        amps = np.where(marked_mask, -amps, amps)
        amps = 2.0 * amps.mean(axis=-1, keepdims=True) - amps


def _marked_mass(marked_mask: np.ndarray, max_iterations: int) -> np.ndarray:
    """The probability on the marked entries after k = 0..max_iterations rounds, one row per k."""
    states = itertools.islice(statevectors(marked_mask), max_iterations + 1)
    return np.array([np.sum(np.where(marked_mask, amps, 0.0) ** 2, axis=-1) for amps in states])


def grover_success_curve(support_size: int, marked_count: int, max_iterations: int) -> np.ndarray:
    """Exact simulated success probability after k = 0..max_iterations rounds."""
    if not 1 <= marked_count <= support_size:
        raise ValueError("need 1 <= marked_count <= support_size")
    return _marked_mass(np.arange(support_size) < marked_count, max_iterations)


def grover_success_curves_batch(support_size: int, max_iterations: int) -> np.ndarray:
    """Success-probability curves for every marked count t = 1..support_size.

    Row ``t-1`` holds the exact simulated probabilities after k = 0..max
    rounds with the first t entries marked, all t in one batch.
    """
    if support_size < 1:
        raise ValueError("support must be nonempty")
    return _marked_mass(np.tril(np.ones((support_size, support_size), dtype=bool)), max_iterations).T


def fixed_point_amplitudes(marked_mask: np.ndarray, length: int, failure: float) -> np.ndarray:
    """Amplitudes after the (length - 1)/2 generalized iterates of Yoder, Low and Chuang (PRL 113, 2014).

    Iterate j is -S_s(alpha_j) S_t(beta_j): S_t(beta) multiplies the marked
    entries by e^(i beta), and S_s(alpha) = 1 - (1 - e^(-i alpha)) |s><s| acts
    about the uniform start state s.  The phases are alpha_j = -beta_(l-j+1) =
    2 arccot(tan(2 pi j / L) sqrt(1 - gamma^2)) with L = ``length`` and
    gamma = 1 / cosh(arccosh(1 / delta) / L), delta^2 = ``failure``.  The last
    axis is the register, so a stack of masks runs one register per row.
    """
    if length < 1 or length % 2 == 0:
        raise ValueError("length must be a positive odd integer")
    rounds = (length - 1) // 2
    gamma = 1 / math.cosh(math.acosh(1 / math.sqrt(failure)) / length)
    alpha = [2 * math.atan2(1, math.tan(2 * math.pi * j / length) * math.sqrt(1 - gamma * gamma))
             for j in range(1, rounds + 1)]
    beta = [-alpha[rounds - j] for j in range(1, rounds + 1)]
    amps = np.full(marked_mask.shape, 1 / math.sqrt(marked_mask.shape[-1]), dtype=complex)
    for a, b in zip(alpha, beta):
        amps = np.where(marked_mask, amps * np.exp(1j * b), amps)
        amps = -(amps - (1 - np.exp(-1j * a)) * amps.mean(axis=-1, keepdims=True))
    return amps
