"""Reproducible randomness for simulations.

Every stochastic subsystem draws from its own *named stream* derived from
the master seed via :class:`numpy.random.SeedSequence` spawning.  Adding a
new subsystem therefore never perturbs the draws (and thus the results)
of existing ones — a property the determinism tests pin down.

:class:`Distribution` wraps common parametric families with the
truncations and mean/std parameterisations the calibration layer needs
(e.g. "truncated normal with the paper's AVG/STD, never negative").
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: The master seed every registry run and CLI verb defaults to, and the
#: one every golden digest and recorded verdict uses.
GOLDEN_SEED = 3


def _stable_stream_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (run-to-run constant)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A family of independent, named random generators.

    Parameters
    ----------
    seed:
        Master seed.  The same ``(seed, name)`` pair always yields an
        identical stream, regardless of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._batched: Dict[str, "StreamRNG"] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stable_stream_key(name),)
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family (for sub-simulations) deterministically."""
        mixed = hash((self.seed, _stable_stream_key(name))) & 0x7FFFFFFFFFFFFFFF
        return RandomStreams(mixed)

    def batched(self, name: str) -> "StreamRNG":
        """Return (creating if needed) a batch-first view of ``name``.

        The view wraps the *same* underlying generator as
        :meth:`stream`, so batched and scalar consumers of one name
        share a single draw sequence.
        """
        rng = self._batched.get(name)
        if rng is None:
            rng = StreamRNG(self.stream(name), name)
            self._batched[name] = rng
        return rng

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"


def _scaled_exponential(
    gen: np.random.Generator, mean: float, n: int
) -> np.ndarray:
    """``n`` exponential variates of ``mean``, bit for bit as numpy's
    ``gen.exponential(mean, size=n)`` draws them (``mean *
    standard_exponential`` per value) and from the same stream position.
    ``mean`` is rejected where numpy rejects it: below zero, or -0.0."""
    if mean < 0 or (mean == 0 and math.copysign(1.0, mean) < 0):
        raise ValueError(f"exponential mean must be >= 0, got {mean}")
    out = gen.standard_exponential(n)
    out *= mean
    return out


class StreamRNG:
    """Batch-first draws from one named stream.

    The batched client paths replace N clients' scalar draws with one
    vectorized draw per wake-up: :meth:`draw_batch` pulls ``n`` variates
    in a single NumPy call.
    """

    __slots__ = ("gen", "name")

    def __init__(self, gen: np.random.Generator, name: str = "") -> None:
        self.gen = gen
        self.name = name

    def draw_batch(self, dist: "Distribution", n: int) -> np.ndarray:
        """Draw ``n`` variates of ``dist`` in one vectorized call."""
        return dist.sample_n(self.gen, n)

    def exponential_batch(self, mean: float, n: int) -> np.ndarray:
        """Vectorized exponential draws (think times, jitter), bit for
        bit ``gen.exponential(mean, size=n)``."""
        return _scaled_exponential(self.gen, mean, n)

    def uniform_batch(self, low: float, high: float, n: int) -> np.ndarray:
        """Vectorized uniform draws (ramp offsets, shuffles)."""
        return self.gen.uniform(low, high, size=n)

    def __repr__(self) -> str:
        return f"<StreamRNG {self.name!r}>"


class Distribution:
    """A one-dimensional sampling recipe bound to a generator at call time.

    Instances are lightweight, picklable descriptions; ``sample(rng)``
    draws one value, ``sample_n(rng, n)`` a vector.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, **params: float) -> None:
        self.kind = kind
        self.params = params
        sampler = getattr(self, f"_sample_{kind}", None)
        if sampler is None:
            raise ValueError(f"unknown distribution kind {kind!r}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "Distribution":
        return cls("constant", value=value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        if high < low:
            raise ValueError(f"high {high} < low {low}")
        return cls("uniform", low=low, high=high)

    @classmethod
    def exponential(cls, mean: float) -> "Distribution":
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        return cls("exponential", mean=mean)

    @classmethod
    def normal(
        cls,
        mean: float,
        std: float,
        minimum: float = -math.inf,
        maximum: float = math.inf,
    ) -> "Distribution":
        """Normal(mean, std) clipped by rejection to [minimum, maximum]."""
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        if maximum <= minimum:
            raise ValueError("empty truncation interval")
        return cls("normal", mean=mean, std=std, minimum=minimum, maximum=maximum)

    @classmethod
    def lognormal_from_mean_std(cls, mean: float, std: float) -> "Distribution":
        """Lognormal with the given arithmetic mean and std.

        Useful for strictly positive, right-skewed durations (VM boot,
        task service times) where the paper reports AVG/STD.
        """
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        variance = std * std
        sigma2 = math.log(1.0 + variance / (mean * mean))
        mu = math.log(mean) - sigma2 / 2.0
        return cls("lognormal", mu=mu, sigma=math.sqrt(sigma2))

    @classmethod
    def pareto(cls, minimum: float, alpha: float) -> "Distribution":
        """Pareto tail: heavy-tailed durations (degradation episodes)."""
        if minimum <= 0 or alpha <= 0:
            raise ValueError("minimum and alpha must be > 0")
        return cls("pareto", minimum=minimum, alpha=alpha)

    @classmethod
    def empirical(
        cls, values: Sequence[float], weights: Optional[Sequence[float]] = None
    ) -> "Distribution":
        """Draw from a finite support with optional weights."""
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("empty support")
        if weights is None:
            wts: Tuple[float, ...] = tuple(1.0 / len(vals) for _ in vals)
        else:
            if len(weights) != len(vals):
                raise ValueError("weights/values length mismatch")
            if not all(math.isfinite(w) and w >= 0 for w in weights):
                raise ValueError("weights must be finite and >= 0")
            total = float(sum(weights))
            if total <= 0:
                raise ValueError("weights must sum to > 0")
            if abs(total - 1.0) <= 1e-9:
                # Already normalized (within numpy's own tolerance for
                # probability vectors): keep the weights bit-for-bit so
                # spec round-trips are stable.
                wts = tuple(float(w) for w in weights)
            else:
                wts = tuple(float(w) / total for w in weights)
        dist = cls.__new__(cls)
        dist.kind = "empirical"
        dist.params = {"values": vals, "weights": wts}  # type: ignore[assignment]
        return dist

    # -- sampling ------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> float:
        return float(getattr(self, f"_sample_{self.kind}")(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return getattr(self, f"_sample_{self.kind}")(rng, int(n))

    @property
    def mean(self) -> float:
        """Analytic mean where defined (used by tests and planners)."""
        p = self.params
        if self.kind == "constant":
            return p["value"]
        if self.kind == "uniform":
            return (p["low"] + p["high"]) / 2.0
        if self.kind == "exponential":
            return p["mean"]
        if self.kind == "normal":
            return p["mean"]  # approximation when truncated
        if self.kind == "lognormal":
            return math.exp(p["mu"] + p["sigma"] ** 2 / 2.0)
        if self.kind == "pareto":
            alpha = p["alpha"]
            if alpha <= 1:
                return math.inf
            return alpha * p["minimum"] / (alpha - 1.0)
        if self.kind == "empirical":
            return float(
                sum(v * w for v, w in zip(p["values"], p["weights"]))
            )
        raise NotImplementedError(self.kind)

    # -- per-family samplers ---------------------------------------------
    def _sample_constant(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.params["value"], dtype=float)

    def _sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.params["low"], self.params["high"], size=n)

    def _sample_exponential(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _scaled_exponential(rng, self.params["mean"], n)

    def _sample_normal(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        out = rng.normal(p["mean"], p["std"], size=n)
        lo, hi = p["minimum"], p["maximum"]
        if lo == -math.inf and hi == math.inf:
            return out
        # Rejection resampling keeps the distribution's shape inside the
        # window (clipping would pile mass on the bounds).
        bad = (out < lo) | (out > hi)
        tries = 0
        while bad.any():
            out[bad] = rng.normal(p["mean"], p["std"], size=int(bad.sum()))
            bad = (out < lo) | (out > hi)
            tries += 1
            if tries > 1000:  # pathological truncation: fall back to clip
                np.clip(out, lo, hi, out=out)
                break
        return out

    def _sample_lognormal(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        return rng.lognormal(p["mu"], p["sigma"], size=n)

    def _sample_pareto(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        return p["minimum"] * (1.0 + rng.pareto(p["alpha"], size=n))

    def _sample_empirical(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Bit-identical to ``rng.choice(K, size=n, p=weights)``.

        ``choice`` draws one ``rng.random(n)`` and maps it through the
        normalized CDF with ``searchsorted(side="right")``: the index is
        the count of CDF entries ``<= u``.  Counting with one vector
        compare per category does the same arithmetic without the
        binary search, at one pass per category (the packs and the TCP
        latency model have at most nine); the last entry is exactly 1.0
        and never counts.
        """
        p = self.params
        cdf = np.cumsum(p["weights"])
        cdf /= cdf[-1]
        u = rng.random(n)
        idx = np.zeros(n, dtype=np.intp)
        for edge in cdf[:-1].tolist():
            idx += u >= edge
        return np.asarray(p["values"], dtype=float)[idx]

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v}" for k, v in self.params.items() if k not in ("values",)
        )
        return f"Distribution.{self.kind}({inner})"
