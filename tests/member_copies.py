"""A member of a network stack as a network of its own, for tests that
compare a stack with its members one at a time."""

import numpy as np

from curiosity_marl import neural_core as nc


def member(net: nc.Network, m: int) -> nc.Network:
    """Member m of net as a one-member network that holds a copy of its
    floats: a write to it does not reach net."""
    m = range(net.members)[m]
    return nc.Network(net.spec, np.concatenate([p[m].ravel() for p in net.parameters()]))
