"""PS-architecture training-cluster simulation.

Event-driven model of the paper's testbed: N workers, one parameter
server, BSP synchronization.  Each worker runs the forward → backward →
push → (PS aggregation) → pull dataflow; the communication scheduler under
test decides the composition and order of the messages on the worker's
channel.

A :class:`~repro.cluster.worker.Worker` is the compute pipeline plus a
list of ports, one communication agent per server: the star has one
:class:`~repro.cluster.worker.PSPort`, a key-sharded tier
(:mod:`repro.cluster.sharded`) one per shard, and the allreduce backend
one :class:`~repro.cluster.collective.CollectivePort`.  The
:class:`~repro.cluster.trainer.Trainer` wires everything up from a
:class:`~repro.config.TrainingConfig` and returns a
:class:`~repro.cluster.result.TrainingResult` with the recorded timelines.
"""

from repro.cluster.messages import PullUnit
from repro.cluster.ps import ParameterServer
from repro.cluster.worker import PSPort, Worker
from repro.cluster.trainer import Trainer, run_training
from repro.cluster.result import TrainingResult

__all__ = [
    "PullUnit",
    "ParameterServer",
    "Worker",
    "PSPort",
    "Trainer",
    "run_training",
    "TrainingResult",
]
