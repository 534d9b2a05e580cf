"""Deterministic named random streams.

Every stochastic component draws from its own named stream derived from the
run's root seed.  This keeps A/B experiments paired: adding an attacker (which
draws from its own stream) does not perturb the draws of traffic or beaconing,
so the attacked run sees the *same* traffic as the attack-free run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``(root_seed, name)``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, reproducible random streams.

    ``streams.get("beacon")`` always returns the same :class:`random.Random`
    object for a given instance, seeded purely from ``(root_seed, "beacon")``.
    """

    def __init__(self, root_seed: int):
        self._root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}
        self._numpy_streams: Dict[str, np.random.Generator] = {}
        self._children: Dict[str, "RandomStreams"] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this factory was created with."""
        return self._root_seed

    def get(self, name: str) -> random.Random:
        """Return the (cached) stdlib stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self._root_seed, name))
            self._streams[name] = stream
        return stream

    def get_numpy(self, name: str) -> np.random.Generator:
        """Return the (cached) numpy generator for ``name``."""
        stream = self._numpy_streams.get(name)
        if stream is None:
            stream = np.random.default_rng(_derive_seed(self._root_seed, name))
            self._numpy_streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Return the (cached) child factory independent of our streams.

        Children are cached by name, so a child handed out twice is one
        object, and pickling the parent (a checkpoint pickles the whole
        world) carries every stream the run has touched, spawned ones
        included.
        """
        child = self._children.get(name)
        if child is None:
            child = RandomStreams(_derive_seed(self._root_seed, f"spawn:{name}"))
            self._children[name] = child
        return child
