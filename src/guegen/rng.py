"""Deterministic seeded variate generation.

Every sampler in this package draws its randomness through a
:class:`RandomStream`.  The stream wraps a PCG64 bit generator (period
2^128) and exposes uniforms plus the derived variates the samplers
need: standard normals (Marsaglia polar method), fair signs, exactly
uniform indices, and exact gamma variates (Marsaglia-Tsang rejection with
the shape-boost identity for shape < 1).  All variates are built from the
generator's 64-bit words (one per uniform), so a (seed, call sequence)
pair fully determines the output.

Child streams for parallel batches come from ``spawn``, which derives
independent states via numpy's SeedSequence spawn keys.
"""

import math

import numpy as np

from .errors import ParameterError, whole


class RandomStream:
    """Single-owner source of variates; not thread-safe by design.

    Parameters
    ----------
    seed : int
        Master seed, any integer in [0, 2^64).
    spawn_key : tuple of int, optional
        Derivation path for child streams; leave empty for a root stream.

    Attributes
    ----------
    draw_count : int
        Number of 64-bit words taken from the generator so far: one per
        uniform, and one per index plus any redrawn words.
    """

    def __init__(self, seed, spawn_key=()):
        seed = whole("seed", seed, 0)
        if seed >= 2**64:
            raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
        self.seed = seed
        self.spawn_key = tuple(whole("spawn key entry", k, 0) for k in spawn_key)
        ss = np.random.SeedSequence(seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self.draw_count = 0

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, spawn_key={self.spawn_key})"

    def spawn(self, count):
        """Derive ``count`` independent child streams from this stream's seed."""
        count = whole("count", count, 0)
        return [RandomStream(self.seed, self.spawn_key + (i,)) for i in range(count)]

    # ------------------------------------------------------------------
    # uniforms
    # ------------------------------------------------------------------

    def uniforms(self, size):
        """Array of ``size`` uniforms in [0, 1)."""
        size = whole("size", size, 0)
        self.draw_count += size
        return self._gen.random(size)

    # ------------------------------------------------------------------
    # signs and indices
    # ------------------------------------------------------------------

    def rademachers(self, size):
        """Array of ``size`` fair signs, +1.0 or -1.0 (one uniform each)."""
        return np.where(self.uniforms(size) < 0.5, 1.0, -1.0)

    def indices(self, n, size):
        """Array of ``size`` exactly uniform integers in {0, ..., n-1}.

        Each index is a raw 64-bit word w taken as w mod n. Words at or
        above the largest multiple of n that fits in 64 bits are drawn
        again, which happens with probability below n 2^-64 per index, so
        ``draw_count`` grows by ``size`` plus the rare redrawn words.
        """
        n, size = whole("index range", n, 1), whole("size", size, 0)
        if n > 2**63:
            raise ParameterError(f"index range must be in [1, 2^63], got {n}")
        limit = 2**64 - 2**64 % n  # a multiple of n; words below it are kept
        out = np.empty(size, dtype=np.uint64)
        have = 0
        while have < size:
            words = self._gen.bit_generator.random_raw(size - have)
            self.draw_count += words.size
            if limit < 2**64:
                words = words[words < np.uint64(limit)]
            out[have : have + words.size] = words % np.uint64(n)
            have += words.size
        return out.astype(np.int64)

    # ------------------------------------------------------------------
    # normals (Marsaglia polar method)
    # ------------------------------------------------------------------

    def standard_normals(self, size):
        """Array of ``size`` N(0,1) variates."""
        size = whole("size", size, 0)
        out = np.empty(size)
        have = 0
        while have < size:
            # polar acceptance is pi/4; each accepted pair gives 2 normals
            pairs = int((size - have) * 0.7) + 8
            u = 2.0 * self.uniforms(pairs) - 1.0
            v = 2.0 * self.uniforms(pairs) - 1.0
            s = u * u + v * v
            ok = (s > 0.0) & (s < 1.0)
            s = s[ok]
            scale = np.sqrt(-2.0 * np.log(s) / s)
            z = np.concatenate([u[ok] * scale, v[ok] * scale])
            take = min(z.size, size - have)
            out[have : have + take] = z[:take]
            have += take
        return out

    # ------------------------------------------------------------------
    # gamma (Marsaglia-Tsang, exact rejection)
    # ------------------------------------------------------------------

    def gammas(self, shape, size):
        """Array of ``size`` Gamma(shape, 1) variates; shape finite and > 0.

        Shapes below 1 use the boost identity
        Gamma(a) = Gamma(a+1) * U^(1/a).
        """
        shape = float(shape)
        if not 0.0 < shape < math.inf:
            raise ParameterError(f"gamma shape must be finite and > 0, got {shape}")
        size = whole("size", size, 0)
        if shape < 1.0:
            g = self._gammas_mt(shape + 1.0, size)
            u = self.uniforms(size)
            return g * u ** (1.0 / shape)
        return self._gammas_mt(shape, size)

    def _gammas_mt(self, shape, size):
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(size)
        have = 0
        while have < size:
            m = int((size - have) * 1.1) + 16
            x = self.standard_normals(m)
            u = self.uniforms(m)
            v = 1.0 + c * x
            pos = v > 0.0
            v = v * v * v
            x2 = x * x
            with np.errstate(divide="ignore", invalid="ignore"):
                squeeze = u < 1.0 - 0.0331 * x2 * x2
                main = np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(v))
            ok = pos & (squeeze | main)
            z = d * v[ok]
            take = min(z.size, size - have)
            out[have : have + take] = z[:take]
            have += take
        return out
