"""Machine model: nodes, cores, memory accounting and partitions.

The model captures exactly the quantities the paper's adaptation policies
observe: per-core/per-node memory availability, core counts on the
simulation and staging partitions, and compute rates used by the cost
estimators.  It deliberately does *not* model caches, NUMA or OS noise --
the policies never see those.

A :class:`Machine` is a collection of identical :class:`Node` objects plus
a :class:`~repro.hpc.network.Network`.  Cores are grouped into named
:class:`Partition` objects ("simulation", "staging"); the resource-layer
adaptation resizes the staging partition at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ResourceError
from repro.hpc.event import Simulator
from repro.hpc.resources import Resource

__all__ = ["CoreAllocation", "Machine", "MemoryPool", "Node", "Partition"]


class MemoryPool:
    """Byte-granularity memory accounting for one node.

    ``allocate``/``free`` raise on over-commit rather than swapping -- the
    application-layer policy exists precisely to keep usage under the
    physical limit, so exceeding it is a programming error in experiments.
    """

    def __init__(self, total_bytes: float, name: str = "mem"):
        if total_bytes <= 0:
            raise ResourceError(f"memory pool must be positive, got {total_bytes}")
        self.name = name
        self.total = float(total_bytes)
        self._used = 0.0
        self.peak = 0.0

    @property
    def used(self) -> float:
        """Bytes currently allocated."""
        return self._used

    @property
    def available(self) -> float:
        """Bytes free."""
        return self.total - self._used

    def allocate(self, nbytes: float) -> None:
        """Reserve ``nbytes``; raises :class:`ResourceError` on over-commit."""
        if nbytes < 0:
            raise ResourceError(f"cannot allocate negative bytes: {nbytes}")
        if self._used + nbytes > self.total * (1 + 1e-9):
            raise ResourceError(
                f"out of memory on {self.name!r}: requested {nbytes:.0f}, "
                f"available {self.available:.0f} of {self.total:.0f}"
            )
        self._used += nbytes
        self.peak = max(self.peak, self._used)

    def free(self, nbytes: float) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes < 0:
            raise ResourceError(f"cannot free negative bytes: {nbytes}")
        if nbytes > self._used + 1e-6:
            raise ResourceError(
                f"freeing {nbytes:.0f} bytes exceeds {self._used:.0f} in use on {self.name!r}"
            )
        self._used = max(0.0, self._used - nbytes)

    def can_fit(self, nbytes: float) -> bool:
        """True if an allocation of ``nbytes`` would succeed."""
        return nbytes <= self.available * (1 + 1e-9)


@dataclass
class Node:
    """One compute node: a fixed number of cores and a memory pool."""

    node_id: int
    cores: int
    memory: MemoryPool

    @property
    def memory_per_core(self) -> float:
        """Even split of node memory across its cores (the paper's metric)."""
        return self.memory.total / self.cores


class Partition:
    """A named group of nodes with a core :class:`Resource` for scheduling.

    The partition's resource capacity equals the number of *active* cores,
    which the resource layer may resize (never above the physical total).
    """

    def __init__(self, sim: Simulator, name: str, nodes: list[Node]):
        if not nodes:
            raise ResourceError(f"partition {name!r} needs at least one node")
        self.sim = sim
        self.name = name
        self.nodes = nodes
        self.physical_cores = sum(node.cores for node in nodes)
        self.cores = Resource(sim, self.physical_cores, name=f"{name}.cores")

    @property
    def total_memory(self) -> float:
        """Aggregate bytes across the partition's nodes."""
        return sum(node.memory.total for node in self.nodes)

    @property
    def available_memory(self) -> float:
        """Aggregate free bytes across the partition's nodes."""
        return sum(node.memory.available for node in self.nodes)

    @property
    def memory_per_core(self) -> float:
        """Memory per physical core (uniform nodes assumed)."""
        return self.total_memory / self.physical_cores

    @property
    def active_cores(self) -> int:
        """Cores currently schedulable (resource-layer adaptation target)."""
        return self.cores.capacity

    def set_active_cores(self, count: int) -> None:
        """Resize the schedulable core count, clamped to the physical total."""
        if count < 1:
            raise ResourceError(f"partition {self.name!r} needs >= 1 active core")
        if count > self.physical_cores:
            raise ResourceError(
                f"partition {self.name!r} has only {self.physical_cores} physical cores, "
                f"cannot activate {count}"
            )
        self.cores.resize(count)

    def allocate_memory(self, nbytes: float) -> None:
        """Spread an allocation evenly across nodes (block-distributed data)."""
        share = nbytes / len(self.nodes)
        done = []
        try:
            for node in self.nodes:
                node.memory.allocate(share)
                done.append(node)
        except ResourceError:
            for node in done:
                node.memory.free(share)
            raise

    def free_memory(self, nbytes: float) -> None:
        """Release an allocation made with :meth:`allocate_memory`."""
        share = nbytes / len(self.nodes)
        for node in self.nodes:
            node.memory.free(share)


@dataclass
class CoreAllocation:
    """Record of cores held from a partition; returned by ``Machine.acquire``."""

    partition: Partition
    count: int
    released: bool = field(default=False)

    def release(self) -> None:
        """Give the cores back (idempotent)."""
        if not self.released:
            self.partition.cores.release(self.count)
            self.released = True


class Machine:
    """A simulated system: uniform nodes split into named partitions.

    Parameters
    ----------
    sim:
        The owning event simulator.
    node_count:
        Total nodes in the job allocation (not the whole system).
    cores_per_node, memory_per_node:
        Per-node shape.
    core_rate:
        Sustained useful rate per core, in cell-updates/second.  This is a
        calibration constant, not a flops figure; see ``repro.hpc.systems``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_count: int,
        cores_per_node: int,
        memory_per_node: float,
        core_rate: float,
        name: str = "machine",
    ):
        if node_count < 2:
            raise ResourceError("machine needs at least 2 nodes (simulation + staging)")
        if core_rate <= 0:
            raise ResourceError(f"core_rate must be positive, got {core_rate}")
        self.sim = sim
        self.name = name
        self.cores_per_node = cores_per_node
        self.memory_per_node = float(memory_per_node)
        self.core_rate = float(core_rate)
        self.nodes = [
            Node(i, cores_per_node, MemoryPool(memory_per_node, name=f"{name}.node{i}.mem"))
            for i in range(node_count)
        ]
        self.partitions: dict[str, Partition] = {}

    def create_partition(self, name: str, node_count: int) -> Partition:
        """Carve the next ``node_count`` unassigned nodes into a partition."""
        assigned = {id(n) for p in self.partitions.values() for n in p.nodes}
        free_nodes = [n for n in self.nodes if id(n) not in assigned]
        if node_count > len(free_nodes):
            raise ResourceError(
                f"cannot create partition {name!r}: {node_count} nodes requested, "
                f"{len(free_nodes)} unassigned"
            )
        if name in self.partitions:
            raise ResourceError(f"partition {name!r} already exists")
        partition = Partition(self.sim, name, free_nodes[:node_count])
        self.partitions[name] = partition
        return partition

    def partition(self, name: str) -> Partition:
        """Look up a partition by name."""
        try:
            return self.partitions[name]
        except KeyError:
            raise ResourceError(f"no partition named {name!r}") from None

    def compute_time(self, work_units: float, cores: int) -> float:
        """Seconds to process ``work_units`` cell-updates on ``cores`` cores."""
        if cores <= 0:
            raise ResourceError(f"cores must be positive, got {cores}")
        return work_units / (self.core_rate * cores)
