"""Stationary request and failure processes, and the policy-side random stream.

The hidden parameters, SFC popularity and VNF failure rates, are stationary
and the same for every seed of a run: one GroundTruth. Slot t of a seed
draws from a counter-based RNG stream (Philox keyed by the seed and a key
domain), so the observation at slot t depends only on (parameters, seed, t).
sample_arrays is the one way to draw observations, for a group of seeds at
once: a range of slots of every seed, as (slots, seeds, F) request counts
and (slots, seeds, I) failure flags. Each seed keeps its own stream; the
group's streams fill a buffer of at most MAX_DRAW_DOUBLES doubles at a time,
which is thresholded against the one set of parameters and summed in one
pass. Policies never consume environment randomness; policy-side draws use
a separate key domain. A given seed therefore produces the identical
observation sequence no matter which or how many policies run, and
whichever seeds it is drawn with.

Both key domains lay their slots out alike (_slot_rows): a slot that reads
W uniforms owns the counter blocks [t*B, (t+1)*B) with B = counter_blocks(W),
so its draws are disjoint from every other slot's, and one stream started
at block t0*B yields slots t0, t0 + 1, ... as consecutive rows of 4B doubles.
The environment reads D = K*F + I uniforms a slot (the request block, then
the failure flags), the random policy W.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Key domains keep environment draws and policy draws on disjoint streams.
ENV_DOMAIN = 0
POLICY_DOMAIN = 1

# Philox produces four 64-bit words per counter step and a double takes one word.
PHILOX_BLOCK_DOUBLES = 4

# harness.simulate_run draws observations and random-policy uniforms in blocks
# of at least this many slots: one Philox stream per block and seed, and memory
# that stays bounded however long the run is. It draws a longer block where one
# chunk of its (slot, seed) rows spans more slots, in one sample_arrays call
# over the seed group, whose buffer MAX_DRAW_DOUBLES bounds.
OBS_BLOCK_SLOTS = 256

# sample_arrays draws and thresholds a call's uniforms in pieces of at most
# this many doubles (8 MiB), so that a call holds one piece and its results
# however many slots and seeds it spans. The bundled config's 256-slot block of
# 30 seeds is 583,680 doubles, one piece.
MAX_DRAW_DOUBLES = 2 ** 20


@dataclass(eq=False)
class GroundTruth:
    """Hidden stationary parameters the learners estimate.

    request_prob[k, f] is user k's per-slot probability of requesting SFC f;
    failure_mean[i] is VNF i's per-slot failure probability. Instances are
    treated as immutable after construction. rng_seed keys the draws of a
    GroundTruth taken as one seed's instance; sample_arrays and
    harness.simulate_run take their seeds as ints and never read it.
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

    Construction order never matters. Slot t of a W-uniform draw starts at
    block t * counter_blocks(W) (see _slot_rows).
    """
    bitgen = np.random.Philox(_philox_key_type()(seed, domain),
                              counter=[np.uint64(t), 0, 0, 0])
    return np.random.Generator(bitgen)


def counter_blocks(width: int) -> int:
    """Philox counter blocks that hold width doubles: four doubles per block."""
    return -(-width // PHILOX_BLOCK_DOUBLES)


def _slot_rows(seeds: Sequence[int], t0: int, t1: int, width: int, domain: int) -> np.ndarray:
    """Slots t0 .. t1-1 of every seed's domain stream, as an (S, t1 - t0, 4B) buffer.

    B = counter_blocks(width), and slot t owns counter blocks [t*B, (t+1)*B):
    [s, j] holds slot t0 + j of seeds[s], its first width doubles the slot's
    uniforms. One stream per seed, started at block t0*B, fills its row.
    """
    blocks = counter_blocks(width)
    flat = np.empty((len(seeds), t1 - t0, PHILOX_BLOCK_DOUBLES * blocks))
    for out, seed in zip(flat, seeds):
        slot_stream(seed, t0 * blocks, domain).random(out=out)
    return flat


def policy_uniform_block(seeds: Sequence[int], t0: int, t1: int, width: int) -> np.ndarray:
    """The width policy-domain uniforms of slots t0 .. t1-1 of every seed, as an array.

    It is (t1 - t0, S, width), [:, s] seed seeds[s]'s: _slot_rows' buffer
    viewed slot-major, nothing copied. Pure in (seed, t, width), whatever the
    range or the group.
    """
    return _slot_rows(seeds, t0, t1, width, POLICY_DOMAIN).transpose(1, 0, 2)[:, :, :width]


def sample_arrays(gt: GroundTruth, seeds: Sequence[int], t0: int,
                  t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots t0 .. t1-1 of every seed in seeds under gt's parameters, as arrays.

    Returns the (t1 - t0, S, F) int64 request counts and the (t1 - t0, S, I)
    uint8 failure flags, [:, s] for seeds[s]. Slot t's D = K*F + I
    environment-domain uniforms (user k's F request uniforms, user by user,
    then the I failure uniforms) are the first D of its 4B doubles in the
    slot layout of _slot_rows, and are thresholded against gt's one row of
    parameters and summed a piece at a time: runs of whole seeds, or of one
    seed's slots, of at most MAX_DRAW_DOUBLES doubles, each seed's one stream
    going on from piece to piece. Pure in (gt's parameters, seed, t),
    whatever the range or the group; gt.rng_seed is not read.
    """
    n = t1 - t0
    if n < 1:
        raise ValueError("need t1 > t0")
    prob, rate = gt.request_prob, gt.failure_mean
    n_seeds, (n_users, n_sfcs) = len(seeds), prob.shape
    n_req = prob.size
    blocks = counter_blocks(n_req + rate.size)
    row = PHILOX_BLOCK_DOUBLES * blocks
    span = min(n, max(1, MAX_DRAW_DOUBLES // row))              # slots a piece
    group = max(1, MAX_DRAW_DOUBLES // (n * row)) if span == n else 1   # seeds a piece
    requests = np.empty((n, n_seeds, n_sfcs), dtype=np.int64)
    failed = np.empty((n, n_seeds, rate.size), dtype=np.uint8)
    pieces = np.empty((min(group, n_seeds), span, row))     # each piece in turn
    for s0 in range(0, n_seeds, group):
        streams = [slot_stream(seed, t0 * blocks, ENV_DOMAIN) for seed in seeds[s0:s0 + group]]
        s1 = s0 + len(streams)
        for j0 in range(0, n, span):
            j1 = min(n, j0 + span)
            flat = pieces[:len(streams), :j1 - j0]
            for out, stream in zip(flat, streams):
                stream.random(out=out)
            # views of the piece, nothing copied: users[k, j, s] holds user k's
            # F request uniforms at slot t0 + j0 + j of seeds[s0 + s]. Users
            # lead, so the sum over them adds whole (slots, seeds, F) slabs.
            users = flat[:, :, :n_req].reshape(len(streams), j1 - j0, n_users,
                                               n_sfcs).transpose(2, 1, 0, 3)
            np.less(users, prob[:, np.newaxis, np.newaxis], order="C").sum(
                axis=0, dtype=np.int64, out=requests[j0:j1, s0:s1])
            np.less(flat[:, :, n_req:n_req + rate.size].transpose(1, 0, 2), rate,
                    out=failed[j0:j1, s0:s1].view(bool))
    return requests, failed


def popularity_sums(request_prob: np.ndarray) -> np.ndarray:
    """Column sums over the users of a (K, F) request_prob, left to right from 0.0.

    Chain f's true popularity, its expected per-slot request count.
    np.add.accumulate adds user k's row to the sum of users 0 .. k-1, so each
    column is summed in user order, as a Python loop from 0.0 sums it; the
    final + 0.0 turns a sum of -0.0 terms into the loop's 0.0.
    """
    return np.add.accumulate(request_prob, axis=0)[-1] + 0.0
