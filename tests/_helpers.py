"""Shared helpers for the test suite."""

import numpy as np

from switchcap.channels import Channel


def random_density(rng, dim):
    """Random full-rank density matrix via a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pure(rng, dim):
    """Random pure-state density matrix."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def uncompressed_fixed(ch):
    """Reference for ``fix_control`` at ``|+...+>``: every ``M_a (|+...+> (x) I)``.

    Keeps one Kraus operator per composed one, where ``fix_control``
    returns at most ``d_in * d_out``.
    """
    d_target = ch.input_dims[-1]
    d_control = ch.d_in // d_target
    embed = np.kron(np.full((d_control, 1), d_control**-0.5), np.eye(d_target))
    return Channel(tuple(m @ embed for m in ch.kraus), (d_target,), ch.output_dims)
