import numpy as np
import pytest

import sumrate as sr

DATA = __file__.rsplit("/", 1)[0] + "/data"


@pytest.fixture
def e1():
    """Two symmetric users, 0.1 cross gains, unit caps: optimum at (1,1)."""
    return sr.ChannelInstance(
        gains=[[1.0, 0.1], [0.1, 1.0]],
        noise=[0.1, 0.1],
        caps=[1.0, 1.0],
        weights=[0.5, 0.5],
    )


def random_irreducible(rng, n, zero_diagonal=False, lo=0.1, hi=2.0):
    A = rng.uniform(lo, hi, (n, n))
    if zero_diagonal:
        np.fill_diagonal(A, 0.0)
    return A


def random_instance(rng_or_seed, users=2, **kwargs):
    seed = (
        rng_or_seed
        if isinstance(rng_or_seed, (int, np.integer))
        else int(rng_or_seed.integers(0, 2**31))
    )
    return sr.generate_instance(users, seed=seed, **kwargs).to_instance()


def majorization_weights(rng, n, ceiling=0.48):
    """Positive probability weights with every entry below the ceiling."""
    while True:
        u = rng.uniform(0.2, 1.0, n)
        w = u / u.sum()
        if w.max() < ceiling:
            return w


def log_sir_grid_best(inst, resolution):
    """Best log-SIR objective ``w . log sir`` over a uniform power grid."""
    der = sr.derive_matrices(inst)
    axes = [np.linspace(0.0, float(c), resolution) for c in inst.caps]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, inst.users)
    gamma = mesh / (mesh @ der.F.T + der.v)
    with np.errstate(divide="ignore"):
        logs = np.where(gamma > 0.0, np.log(np.where(gamma > 0, gamma, 1.0)), -np.inf)
    return float(np.max(logs @ inst.weights))
