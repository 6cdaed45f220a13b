"""Deliberately broken: F501 must fire on RNG draws in the apply path."""
import numpy as np


def perturb_hits_with_jitter(rng, hits):
    return hits * (1.0 + 0.1 * rng.random(hits.size))  # line 6: F501


def apply_outage(rows, block_seed):
    rng = np.random.default_rng(block_seed)  # line 10: F501 (no RNG at all)
    return rows[rng.integers(0, 2, rows.size) == 0]  # line 11: F501


def perturb_day_factors(rng, factors):
    rng.shuffle(factors)  # line 15: F501
    return factors


def perturb_with_waiver(rng, hits):
    noise = rng.random(hits.size)  # reprolint: disable=F501 -- fixture: proves the waiver works
    return hits + noise
