"""Named-model registry for multi-workload serving.

One :class:`~repro.serve.server.InferenceServer` can host several networks
behind a single front-end; the registry is the pre-start description of that
fleet.  Each :class:`ModelDefinition` bundles a workload (network + weights +
chip config + noise model) with its *serving* knobs — executor, flush policy
and queue bound — and knows how to turn itself
into the :class:`~repro.serve.workers.EngineReplicaSpec` every replica is
built from.

Requests are routed by model name; the first registered model is the
*default*, so single-model callers (and clients that never send a ``model``
field) keep working unchanged.  Unknown names raise
:class:`~repro.errors.UnknownModelError` (HTTP 404 over the wire) naming the
hosted models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.concurrency import make_lock, thread_shared
from repro.config.chip import ChipConfig
from repro.crossbar.noise import CrossbarNoiseModel
from repro.errors import SimulationError, UnknownModelError
from repro.nn.network import Network
from repro.serve.batcher import (
    AnalyticalCostModel,
    FlushPolicy,
    make_flush_policy,
)
from repro.serve.faults import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    FaultInjector,
    FaultRule,
    parse_fault_spec,
)
from repro.serve.workers import (
    EngineReplicaSpec,
    ExecutorSpec,
    parse_executor_spec,
)


@dataclass
class ModelDefinition:
    """Everything one hosted model needs: the workload plus its serving knobs.

    The model runs exactly the replicas its ``executor`` names.
    """

    name: str
    network: Network
    weights: Dict[str, np.ndarray]
    config: Optional[ChipConfig] = None
    noise_model: Optional[CrossbarNoiseModel] = None
    seed: int = 0
    executor: Union[str, int, ExecutorSpec] = "serial"
    max_batch: int = 8
    max_wait_s: float = 0.002
    queue_capacity: int = 128
    policy: Union[str, FlushPolicy] = "fixed"
    slo_s: float = 0.05
    warmup: bool = True
    #: Per-dispatch answer budget (see ``EngineWorkerPool``); ``None`` waits
    #: forever — hung process replicas are then only caught by injection tests.
    dispatch_timeout_s: Optional[float] = None
    #: Dispatch attempts per micro-batch before ``ReplicaFailureError``.
    max_attempts: int = 3
    #: Exponential replica-restart backoff bounds.
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: Circuit-breaker thresholds; ``None`` disables the breaker.
    breaker: Optional[CircuitBreakerPolicy] = None
    #: Fault-injection rules (spec strings or ``FaultRule``\ s) or a prebuilt
    #: injector; ``None`` (the default) serves without any injection.
    faults: Optional[Union[FaultInjector, Sequence[Union[str, FaultRule]]]] = field(
        default=None
    )

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise SimulationError(
                f"model name must be a non-empty string, got {self.name!r}"
            )
        self.name = self.name.strip()
        self.executor = parse_executor_spec(self.executor)
        if self.breaker is not None and not isinstance(
            self.breaker, CircuitBreakerPolicy
        ):
            raise SimulationError(
                "breaker must be a CircuitBreakerPolicy (or None), got "
                f"{type(self.breaker).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultInjector):
            # Validate the rule spellings eagerly so a typo fails at
            # registration, not on the Nth dispatch.
            self.faults = list(self.faults)
            for rule in self.faults:
                parse_fault_spec(rule)

    @property
    def input_shape(self) -> tuple:
        return self.network.input_shape.as_tuple()

    def replica_spec(self) -> EngineReplicaSpec:
        """The serialized engine description replicas are built from."""
        warmup_image = np.zeros(self.input_shape) if self.warmup else None
        return EngineReplicaSpec(
            network=self.network,
            weights=dict(self.weights),
            config=self.config,
            noise_model=self.noise_model,
            seed=self.seed,
            warmup_image=warmup_image,
        )

    def build_policy(self) -> FlushPolicy:
        """Build this model's flush policy (adaptive policies get a cost model)."""
        cost_model = None
        if self.policy == "adaptive":
            cost_model = AnalyticalCostModel.from_workload(self.network, self.config)
        return make_flush_policy(
            self.policy,
            max_batch=self.max_batch,
            max_wait_s=self.max_wait_s,
            slo_s=self.slo_s,
            cost_model=cost_model,
        )

    def build_breaker(self) -> Optional[CircuitBreaker]:
        """This model's circuit breaker (``None`` when not configured)."""
        if self.breaker is None:
            return None
        return CircuitBreaker(self.breaker)

    def build_fault_injector(self) -> Optional[FaultInjector]:
        """This model's fault injector (``None`` when no rules configured)."""
        if self.faults is None:
            return None
        if isinstance(self.faults, FaultInjector):
            return self.faults
        return FaultInjector(self.faults)


@thread_shared
class ModelRegistry:
    """Ordered collection of :class:`ModelDefinition`\\ s, keyed by name.

    The first registered model is the *default*: requests that do not name a
    model route there, which is what keeps the single-model API unchanged.
    Registration and lookup are lock-protected: a registry may be mutated
    (e.g. from an admin path) while server threads resolve routes.
    """

    def __init__(self, models: Optional[Iterable[ModelDefinition]] = None) -> None:
        self._lock = make_lock("ModelRegistry._lock")
        self._models: Dict[str, ModelDefinition] = {}
        for definition in models or ():
            self.register(definition)

    # ------------------------------------------------------------------ build-up
    def register(self, definition: ModelDefinition) -> ModelDefinition:
        """Add one model; duplicate names are rejected."""
        if not isinstance(definition, ModelDefinition):
            raise SimulationError(
                f"expected a ModelDefinition, got {type(definition).__name__}"
            )
        with self._lock:
            if definition.name in self._models:
                raise SimulationError(
                    f"model {definition.name!r} is already registered"
                )
            self._models[definition.name] = definition
        return definition

    def add(
        self,
        name: str,
        network: Network,
        weights: Dict[str, np.ndarray],
        **knobs,
    ) -> ModelDefinition:
        """Convenience: build and register a definition in one call."""
        return self.register(
            ModelDefinition(name=name, network=network, weights=weights, **knobs)
        )

    # ------------------------------------------------------------------ lookup
    @property
    def default_name(self) -> str:
        """The first registered model's name (the routing default)."""
        with self._lock:
            if not self._models:
                raise SimulationError("model registry is empty")
            return next(iter(self._models))

    def names(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def get(self, name: str) -> ModelDefinition:
        """Look a model up by name; unknown names raise UnknownModelError."""
        with self._lock:
            try:
                return self._models[name]
            except KeyError:
                raise UnknownModelError(
                    f"unknown model {name!r}: hosted models are "
                    f"{', '.join(sorted(self._models)) or '(none)'}"
                ) from None

    def resolve(self, name: Optional[str]) -> ModelDefinition:
        """``get(name)``, with ``None`` meaning the default model."""
        return self.get(self.default_name if name is None else name)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._models

    def __iter__(self) -> Iterator[ModelDefinition]:
        with self._lock:
            return iter(list(self._models.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)


__all__ = [
    "ModelDefinition",
    "ModelRegistry",
]
