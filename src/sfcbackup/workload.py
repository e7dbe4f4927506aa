"""Stationary request and failure processes, and the policy-side random stream.

Slot t draws from a counter-based RNG stream (Philox keyed by the run seed,
counter set to [t, 0, 0, 0]), so the observation at slot t depends only on
(seed, t). sample_arrays is the one way to draw observations: a range of
slots at once, as (slots, F) request counts and (slots, I) failure flags.
Policies never consume environment randomness; policy-side draws use a
separate key domain. A given seed therefore produces the identical
observation sequence no matter which or how many policies run.

The environment's slot streams are not independent: Philox advances the
counter once per four doubles, so slot t's stream is slot t-1's shifted by
SLOT_STRIDE draws and consecutive slots share most of their uniforms. The
ROADMAP.md item "Independent per-slot environment streams" removes the
overlap. sample_arrays relies on the same shift to draw a range of slots at
once.

The policy domain has no overlap: a slot that reads W uniforms owns the
counter blocks [t*B, (t+1)*B) with B = counter_blocks(W), so its draws are
disjoint from every other slot's (see policy_uniform_block).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

# Key domains keep environment draws and policy draws on disjoint streams.
ENV_DOMAIN = 0
POLICY_DOMAIN = 1

# Philox produces four 64-bit words per counter step and a double takes one word.
PHILOX_BLOCK_DOUBLES = 4

# Doubles between the starts of consecutive slots' environment streams. Slots
# that draw more than this many uniforms overlap their successors; the ROADMAP.md
# item "Independent per-slot environment streams" moves the stride to a
# non-overlapping 4 * ceil(D / 4).
SLOT_STRIDE = PHILOX_BLOCK_DOUBLES

# The simulators draw observations and random-policy uniforms in blocks of at
# least this many slots: one Philox call per block and seed, and memory that
# stays bounded however long the run is. harness.simulate_run draws a longer
# block where one chunk of its (slot, seed) rows spans more slots, as long as
# a seed's draw stays within OBS_BLOCK_SLOTS x harness.MAX_REQUEST_DRAWS
# request uniforms.
OBS_BLOCK_SLOTS = 256


@dataclass(eq=False)
class GroundTruth:
    """Hidden stationary parameters the learners estimate.

    request_prob[k, f] is user k's per-slot probability of requesting SFC f;
    failure_mean[i] is VNF i's per-slot failure probability. Instances are
    treated as immutable after construction, so reseeded copies share the
    arrays.
    """

    request_prob: np.ndarray
    failure_mean: np.ndarray
    rng_seed: int

    def __init__(self, request_prob, failure_mean, rng_seed: int) -> None:
        self.request_prob = np.atleast_2d(np.asarray(request_prob, dtype=np.float64))
        self.failure_mean = np.asarray(failure_mean, dtype=np.float64)
        self.rng_seed = int(rng_seed)
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        _check_probabilities(self.request_prob, self.failure_mean)

    def reseeded(self, rng_seed: int) -> "GroundTruth":
        """The same parameters under another seed; the arrays are shared."""
        if rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        other = copy.copy(self)
        other.rng_seed = int(rng_seed)
        return other

    @property
    def n_users(self) -> int:
        return self.request_prob.shape[0]

    @property
    def n_sfcs(self) -> int:
        return self.request_prob.shape[1]

    @property
    def n_vnfs(self) -> int:
        return self.failure_mean.shape[0]


def check_parameters(request_prob, failure_mean, users: int, n_sfcs: int) -> np.ndarray:
    """Check request_prob's shape and both parameters' [0, 1] range, without expanding.

    request_prob is a scalar, a length-n_sfcs vector or a (users, n_sfcs)
    matrix, checked as given, so a large user count costs nothing here.
    Returns request_prob as a float64 array of its own shape.
    """
    p = np.asarray(request_prob, dtype=np.float64)
    if p.ndim == 1 and p.shape[0] != n_sfcs:
        raise ValueError(f"per-SFC request_prob needs {n_sfcs} entries, got {p.shape[0]}")
    if p.ndim == 2 and p.shape != (users, n_sfcs):
        raise ValueError(f"request_prob matrix must be ({users}, {n_sfcs}), got {p.shape}")
    if p.ndim > 2:
        raise ValueError("request_prob must be scalar, vector, or matrix")
    _check_probabilities(p, np.asarray(failure_mean, dtype=np.float64))
    return p


def _check_probabilities(request_prob: np.ndarray, failure_mean: np.ndarray) -> None:
    for name, arr in (("request_prob", request_prob), ("failure_mean", failure_mean)):
        # written so that NaN, which fails every comparison, fails the check too
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError(f"{name} entries must lie in [0, 1]")


def make_ground_truth(request_prob, failure_mean, users: int, n_sfcs: int,
                      rng_seed: int) -> GroundTruth:
    """Build a GroundTruth from a scalar, per-SFC vector, or full (K, F) matrix.

    A scalar applies to every (user, SFC) pair; a length-F vector gives every
    user the same per-SFC probability; a matrix is taken as-is and must match
    (users, n_sfcs). check_parameters vets them before anything is expanded.
    """
    p = check_parameters(request_prob, failure_mean, users, n_sfcs)
    if p.ndim == 0:
        p = np.full((users, n_sfcs), float(p))
    elif p.ndim == 1:
        p = np.tile(p, (users, 1))
    return GroundTruth(p, failure_mean, rng_seed)


@functools.cache
def _philox_key_type() -> type:
    """A seed sequence class that hands Philox the key (seed, domain) as it is.

    Philox(key=...) also seeds a SeedSequence from OS entropy that it never
    uses, which is most of its construction cost; keying through this class
    gives the same generator state without that draw. Built on first use, so
    that importing the package does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, seed: int, domain: int) -> None:
            self.key = (seed, domain)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # Philox asks for its key: two 64-bit words
            return np.array(self.key, dtype=np.uint64)

    return PhiloxKey


def slot_stream(seed: int, t: int, domain: int = ENV_DOMAIN) -> np.random.Generator:
    """Generator for (seed, domain) whose Philox counter starts at block t.

    Construction order never matters. Not independent across t: the stream
    for t + 1 is the stream for t shifted by SLOT_STRIDE doubles (see the
    module docstring). The environment starts slot t at block t;
    policy_uniform_block starts it at block t*B.
    """
    bitgen = np.random.Philox(_philox_key_type()(seed, domain),
                              counter=[np.uint64(t), 0, 0, 0])
    return np.random.Generator(bitgen)


def counter_blocks(width: int) -> int:
    """Philox counter blocks that hold width doubles: four doubles per block."""
    return -(-width // PHILOX_BLOCK_DOUBLES)


def policy_uniform_block(seed: int, t0: int, t1: int, width: int) -> np.ndarray:
    """The width policy-domain uniforms of slots t0 .. t1-1, as a (t1 - t0, width) array.

    Slot t owns counter blocks [t*B, (t+1)*B) with B = counter_blocks(width),
    so no two slots share a draw, and one stream started at block t0*B yields
    the slots as consecutive rows of 4B doubles. Pure in (seed, t, width).
    """
    blocks = counter_blocks(width)
    rng = slot_stream(seed, t0 * blocks, POLICY_DOMAIN)
    return rng.random((t1 - t0, PHILOX_BLOCK_DOUBLES * blocks))[:, :width]


def sample_arrays(gt: GroundTruth, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots t0 .. t1-1 drawn with one Philox call, as arrays.

    Returns the (t1 - t0, F) int64 request counts and the (t1 - t0, I) uint8
    failure flags. Slot t's D uniforms (the request block, then the failure
    flags) are the D doubles starting SLOT_STRIDE * (t - t0) into slot t0's
    stream, which is exactly what slot_stream(seed, t) draws first. Pure in
    (gt parameters, seed, t), whatever the range.
    """
    n = t1 - t0
    if n < 1:
        raise ValueError("need t1 > t0")
    p = gt.request_prob
    n_req = p.size
    threshold = np.concatenate((p.ravel(), gt.failure_mean))
    width = threshold.shape[0]
    flat = slot_stream(gt.rng_seed, t0, ENV_DOMAIN).random(SLOT_STRIDE * (n - 1) + width)
    # row k views the width doubles that start at SLOT_STRIDE * k; nothing is copied
    u = np.ndarray((n, width), dtype=np.float64, buffer=flat,
                   strides=(SLOT_STRIDE * flat.itemsize, flat.itemsize))
    hit = u < threshold
    requests = hit[:, :n_req].reshape((n,) + p.shape).sum(axis=1, dtype=np.int64)
    return requests, hit[:, n_req:].view(np.uint8)


def true_popularity(gt: GroundTruth) -> np.ndarray:
    """Expected per-slot request count per SFC: column sums of request_prob."""
    return gt.request_prob.sum(axis=0)
