"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event engine in the style of
SimPy, providing the substrate on which every simulated Azure subsystem
(network, fabric, storage, ModisAzure) runs.

The kernel guarantees:

* deterministic execution for a fixed seed (events at equal times fire in
  schedule order);
* O(log n) event scheduling via a binary heap;
* process semantics: a process is a Python generator that yields events
  and is resumed when they fire; processes may be interrupted.

Public surface::

    env = Environment()
    env.process(my_generator(env))
    env.run(until=100.0)
"""

from repro.simcore.engine import Environment, StopSimulation
from repro.simcore.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Race,
    Timeout,
)
from repro.simcore.process import Process
from repro.simcore.resources import Resource, Store
from repro.simcore.rng import Distribution, RandomStreams, StreamRNG
from repro.simcore.tracing import Tally, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Distribution",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Race",
    "RandomStreams",
    "Resource",
    "StopSimulation",
    "Store",
    "StreamRNG",
    "Tally",
    "TimeSeries",
    "Timeout",
]
