"""Deterministic federated training loop with attack and defense wiring.

One iteration: broadcast the global model, let every sampled device run
local SGD (compromised devices included, so the attacker has the honest
before-attack models), replace the compromised devices' uploads with
crafted ones, filter with the configured defense,
and aggregate.  Every random draw comes from a labelled stream derived
from (seed, trial, iteration, purpose), which makes runs bit-reproducible
and keeps attack randomness isolated from training randomness.

The harness checks each model matrix once, where it enters (the local models
after the updates, the crafted rows after the attack), by the rows' squared
norms, which the iteration's one Krum distance matrix then reuses (see
:mod:`flrlab.aggregation`).

The metrics (train loss, test error, validation error) are output only: no
model, Krum pick, removal set or attack shift reads them, so the product
form their evaluation takes (see :mod:`flrlab.models`) can move reported
digits and nothing else.

**The overlapped evaluation.**  Since nothing waits on the metrics, iteration
t evaluates its global model on a helper thread while the main thread samples
and trains iteration t+1's local models into ``TrialState.next_round``;
iteration t+1 checks those models where it starts, so a non-finite one stops
the iteration that owns it, after hook t.  The two overlap because the
evaluation is mostly BLAS products, which release the GIL, while local SGD is
mostly interpreter work on small arrays.  Every byte stays the same: the
helper reads only the new global model and the datasets, which nothing writes
meanwhile.  :func:`run_trial` owns the helper, a one-thread executor, and
joins it when the trial ends by return or by any exception, so no thread
outlives a trial.

- **The gate.**  Only an evaluation that reads at least
  ``OVERLAP_MIN_VALUES`` (2^20) feature values, (train + test + validation
  rows) x features, goes to the helper; a smaller one runs inline through
  :func:`loss` and :func:`error_rate`, as does each trial's last iteration,
  which has no next round to overlap.  That is the measured crossover (784
  features, 1 BLAS thread, 2 vCPUs): the two paths run even from 0.6M to 1.2M
  values, the overlap wins from 2.3M (the benchmark workloads read 5.6M), and
  below 0.4M its hand-off costs more than it hides, up to 53% of a tiny
  iteration (the golden grid reads at most 8000).
- **The CPU.**  The helper keeps off the CPU the main thread ran on when the
  trial started.  Linux wakes a thread on its waker's CPU when it can: left
  to the scheduler, the helper shared the main thread's CPU in 40 of 40
  sampled evaluations on 2 vCPUs, and the two took turns, which gave no gain.
- **The tracer.**  The helper runs :func:`flrlab.models._evaluate`, which
  calls nothing that perfbench/tracer.py patches.  The tracer keeps one span
  stack per process, and a traced call on a second thread would interleave
  with the main thread's and corrupt it; so on an overlapped run traced
  ``models.eval`` counts only each trial's last iteration, which has no next
  round to overlap and evaluates inline.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import Callable, get_args, get_type_hints

import numpy as np

# mean, median and trimmed_mean go unused here: perfbench/tracer.py patches them as attacks.direction call sites
from flrlab.aggregation import (
    DISTANCE_RULES,
    RULES,
    AggregatorSpec,
    aggregate,
    blockwise_sq_dists,
    mean,
    median,
    row_sq_norms,
    trimmed_mean,
)
from flrlab.attacks import (
    KNOWLEDGE_MODES,
    AttackSpec,
    KnowledgeScope,
    attack_gaussian,
    attack_krum,
    attack_trimmed_mean,
    estimate_direction,
    flip_labels,
)
from flrlab.core import RngStream
from flrlab.data import Dataset, load_csv, load_idx, partition_noniid, synth_blobs
from flrlab.defenses import DEFENSE_KINDS, DefenseOutcome, apply_defense
from flrlab.models import (
    MODEL_KINDS,
    ModelSpec,
    _evaluate,
    error_rate,
    init_params,
    local_update,
    loss,
    shard_objective,
)

# the allowed values of each ExperimentConfig field that names a choice
CHOICES = {
    "rule": RULES,
    "attack": ("none", "gaussian", "label_flip", "craft"),
    "knowledge": KNOWLEDGE_MODES,
    "defense": DEFENSE_KINDS,
    "dataset": ("synth", "idx", "csv"),
    "model": MODEL_KINDS,
}


# the overlapped evaluation's gate (module docstring)
OVERLAP_MIN_VALUES = 1 << 20


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; field names double as config-file keys.

    Only what a caller varies is a field.  The rest follows the paper:

    - the assumed compromised count c is the only count the rule and the
      defense carry: trimmed mean trims beta = c per side, Bulyan selects
      theta = m - 2c and averages gamma = theta - 2c of the m models each
      call aggregates, and a defense removes c models (Union up to 2c);
    - the crafted attacks use the constants ``SUPPORT_RADIUS``,
      ``INTERVAL_FACTOR`` and ``SHIFT_FLOOR`` of ``flrlab.attacks``;
    - every iteration of a run with an attack is attacked;
    - the last iterate is the final model;
    - a file dataset's class count is read from its labels: IDX and CSV
      both take the largest label + 1, at least 2 (CSV maps string labels
      to 0..L-1 first).  It must divide ``num_devices``; that is checked
      once the data is loaded, before iteration 0.
    """

    # federation
    num_devices: int = 100
    compromised: int = 20
    label_bias: float = 0.5
    iterations: int = 100
    local_rounds: int = 1
    batch_size: int = 32
    learning_rate: float = 0.5
    devices_per_round: int | None = None  # None samples every device
    # model
    model: str = "lr"
    hidden: int = 32
    # aggregation
    rule: str = "mean"
    assumed_compromised: int | None = None  # defaults to `compromised`
    # attack
    attack: str = "none"
    attack_rule: str | None = None  # crafted attack's assumed rule, defaults to `rule`
    knowledge: str = "full"
    objective: str = "directed_deviation"
    # defense
    defense: str = "none"
    validation_size: int = 100
    # data source
    dataset: str = "synth"
    synth_classes: int = 2
    synth_per_class: int = 500
    synth_test_per_class: int = 200
    synth_features: int = 8
    synth_spread: float = 0.3
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    csv_path: str = ""
    csv_label_column: str = "label"
    csv_test_fraction: float = 0.2
    # bookkeeping
    seed: int = 0
    trials: int = 1

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(value := getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.num_devices < 1:
            raise ConfigError("need at least one device")
        if not 0 <= self.compromised < self.num_devices / 2:
            raise ConfigError("compromised devices must number fewer than half")
        if self.iterations < 1 or self.local_rounds < 1 or self.batch_size < 1:
            raise ConfigError("iterations, local rounds, and batch size must be positive")
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be non-negative")
        k = self.resolved_devices_per_round()
        if not 1 <= k <= self.num_devices:
            raise ConfigError("devices per round out of range")
        for name, allowed in CHOICES.items():
            if (value := getattr(self, name)) not in allowed:
                raise ConfigError(f"unknown {name} {value!r}; choose one of {', '.join(allowed)}")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.validation_size < 1:
            raise ConfigError("validation size must be positive")
        if not 0 < self.label_bias <= 1:
            raise ConfigError("label bias must lie in (0, 1]")
        if self.model == "mlp" and self.hidden < 1:
            raise ConfigError("the mlp needs a positive hidden width")
        if self.dataset == "synth" and (self.synth_classes < 2 or self.num_devices % self.synth_classes):
            raise ConfigError(f"synth data needs at least 2 classes that divide the {self.num_devices} devices")
        if self.dataset == "synth" and min(self.synth_per_class, self.synth_test_per_class, self.synth_features) < 1:
            raise ConfigError("synthetic data needs at least one train and test instance per class and one feature")
        if self.dataset == "csv" and not 0 < self.csv_test_fraction < 1:
            raise ConfigError("csv test fraction must lie in (0, 1)")
        try:
            attack = self.attack_spec()
        except ValueError as exc:
            raise ConfigError(f"bad attack parameters: {exc}") from exc
        if self.attack == "craft":
            coordinate_wise = attack.target_rule not in DISTANCE_RULES
            if self.knowledge == "partial" and attack.objective == "deviation" and coordinate_wise:
                raise ConfigError("the deviation objective is defined for full knowledge only")
            # full knowledge needs a benign model in every sample; a trimmed-mean target trims p per side
            p = min(self.compromised, k)
            if self.knowledge == "full" and (p >= k or attack.target_rule == "trimmed_mean" and 2 * p >= k):
                raise ConfigError(f"full knowledge vs {attack.target_rule}: {p} of {k} sampled can be compromised")
        c = self.resolved_assumed()
        if self.defense != "none" and c < 1:
            raise ConfigError(f"the {self.defense} defense removes c models; c must be positive")
        # Model counts the rule must aggregate: k always; with a defense on, also k-1
        # (leave-one-out) and k-c (survivors), plus k-2c for Union, which can remove up
        # to 2c.  set_up checks what depends on the data (class count, every trial's shards).
        counts = [k]
        if self.defense != "none":
            counts += [k - 1, k - c] + ([k - 2 * c] if self.defense == "union" else [])
        spec = self.aggregator_spec()
        for n in counts:
            try:
                spec.validate(n)
            except ValueError as exc:
                raise ConfigError(f"{self.rule} cannot aggregate {n} models: {exc}") from exc

    def resolved_devices_per_round(self) -> int:
        return self.num_devices if self.devices_per_round is None else self.devices_per_round

    def resolved_assumed(self) -> int:
        return self.compromised if self.assumed_compromised is None else self.assumed_compromised

    def aggregator_spec(self) -> AggregatorSpec:
        c = self.resolved_assumed()
        return AggregatorSpec(self.rule, assumed_compromised=c, trim_count=c)

    def attack_spec(self) -> AttackSpec:
        return AttackSpec(target_rule=self.attack_rule or self.rule, objective=self.objective)

    def model_spec(self, train: Dataset) -> ModelSpec:
        return ModelSpec(self.model, train.num_features, train.num_classes, hidden=self.hidden)


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    train_loss: float
    test_error: float
    validation_error: float
    attack_active: bool
    attack_shift: float | None
    removed_devices: tuple[int, ...]


@dataclass(frozen=True)
class IterationReport:
    """Observability hook payload: everything the master saw this iteration.

    The harness drops its reference to a report once the ``on_iteration`` hook
    has returned, so the report's arrays are freed before the next iteration
    aggregates, unless the hook keeps the report.
    """

    iteration: int
    sampled: np.ndarray
    models: np.ndarray
    defense: DefenseOutcome | None
    new_global: np.ndarray


@dataclass
class TrialState:
    """What a trial's iterations share.

    ``helper`` and ``next_round`` serve the overlapped evaluation (module
    docstring): the trial's one-thread executor, None below the gate, and the
    next iteration's (sampled devices, local models), not yet checked, None
    until the current iteration trains them.
    """

    model_spec: ModelSpec
    agg_spec: AggregatorSpec
    train: Dataset
    test: Dataset
    validation: Dataset
    stream: RngStream
    weights: np.ndarray
    objectives: list  # one per device: its shard as a row index into the one copy of the training set
    helper: Executor | None = None
    next_round: tuple[np.ndarray, np.ndarray] | None = None


def _checked_norms(models: np.ndarray, devices: np.ndarray, iteration: int, what: str) -> np.ndarray:
    """The squared norms of ``models``, one row per device of ``devices``; ConfigError names the
    devices whose row holds NaN or Inf or is too large to square."""
    norms = row_sq_norms(models)
    if not np.all(finite := np.isfinite(norms)):
        raise ConfigError(f"iteration {iteration}: the {what} of devices {devices[~finite].tolist()} "
                          "hold NaN or Inf or are too large to square")
    return norms


def _craft_models(
    config: ExperimentConfig,
    models: np.ndarray,
    present: int,
    w_received: np.ndarray,
    rng: np.random.Generator,
    sq_dists: np.ndarray | None,
) -> tuple[bool, float | None]:
    """Write crafted replacements into the ``present`` compromised rows of ``models``; returns whether
    it wrote them and the Krum attack's shift (None otherwise).  Rows the attack finds no solution for
    stay as they were.  ``sq_dists`` is the distance matrix of the models in scope, or None."""
    spec = config.attack_spec()
    scope = KnowledgeScope(config.knowledge, models if config.knowledge == "full" else models[:present], w_received)
    if spec.target_rule in DISTANCE_RULES:
        result = attack_krum(scope, spec, present, rng, sq_dists)
        if result.models is not None:
            models[:present] = result.models
        return result.models is not None, result.shift
    direction = estimate_direction(scope, spec, present) if spec.objective == "directed_deviation" else None
    models[:present] = attack_trimmed_mean(scope, spec, present, direction, rng)
    return True, None


def _local_models(
    state: TrialState, config: ExperimentConfig, iteration: int, w_received: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The devices ``iteration`` samples, ascending, and their local models trained from
    ``w_received``, one row each; the rows are not checked."""
    it_stream = state.stream.child(f"iter{iteration}")
    m = config.num_devices
    k = config.resolved_devices_per_round()
    if k < m:
        sampled = np.sort(it_stream.child("sample").generator().choice(m, size=k, replace=False))
    else:
        sampled = np.arange(m)
    models = np.empty((k, state.model_spec.dim))
    for row, dev in enumerate(sampled.tolist()):
        local_update(state.objectives[dev], w_received, config.learning_rate, config.local_rounds,
                     config.batch_size, it_stream.child(f"device{dev}").generator(), models[row])
    return sampled, models


def _helper_metrics(state: TrialState, new_global: np.ndarray) -> tuple[float, float, float]:
    """:func:`_metrics` through :func:`flrlab.models._evaluate`, which the helper thread may run (module docstring)."""
    spec = state.model_spec
    return (
        float(_evaluate(shard_objective(spec, state.train), new_global)[1]),
        float(_evaluate(shard_objective(spec, state.test), new_global)[0]),
        float(_evaluate(shard_objective(spec, state.validation), new_global)[0]),
    )


def _metrics(state: TrialState, new_global: np.ndarray) -> tuple[float, float, float]:
    """Train loss, test error and validation error of ``new_global``."""
    spec = state.model_spec
    return (
        loss(shard_objective(spec, state.train), new_global),
        error_rate(spec, new_global, state.test),
        error_rate(spec, new_global, state.validation),
    )


def run_iteration(
    state: TrialState, config: ExperimentConfig, iteration: int
) -> tuple[np.ndarray, MetricsRecord, IterationReport]:
    """One synchronized round: broadcast, local updates, attack, defense, aggregate, evaluate.

    The local models come from ``state.next_round`` when the previous
    iteration trained them (iteration 0 trains its own); after aggregating,
    the iteration trains the next one's while its metrics are evaluated (the
    overlapped evaluation, module docstring).  The iteration's one distance
    matrix is built as :mod:`flrlab.aggregation` describes, and only when the
    rule or a full-knowledge attack's target reads it.
    """
    w_received = state.weights
    sampled, models = state.next_round or _local_models(state, config, iteration, w_received)
    state.next_round = None
    present = int(np.sum(sampled < config.compromised))
    norms = _checked_norms(models, sampled, iteration, "local models")

    krum_rule = config.rule in DISTANCE_RULES
    shift, sq_dists = None, None
    if present > 0 and config.attack in ("gaussian", "craft"):
        attack_rng = state.stream.child(f"iter{iteration}/attack").generator()
        written = True
        if config.attack == "gaussian":
            models[:present] = attack_gaussian(models, present, attack_rng)
        else:
            if config.knowledge == "full" and config.attack_spec().target_rule in DISTANCE_RULES:
                sq_dists = blockwise_sq_dists(models, present, norms)
            written, shift = _craft_models(config, models, present, w_received, attack_rng, sq_dists)
        if written:
            norms[:present] = _checked_norms(models[:present], sampled[:present], iteration, "crafted models")
            if sq_dists is not None and krum_rule:
                blockwise_sq_dists(models, present, norms, sq_dists)
    if not krum_rule:
        sq_dists = None  # only the attack read it
    elif sq_dists is None:
        sq_dists = blockwise_sq_dists(models, 0, norms)

    outcome = None
    rows = None
    removed: tuple[int, ...] = ()
    if config.defense != "none":
        outcome = apply_defense(models, state.agg_spec, state.model_spec, config.defense, state.validation, sq_dists)
        rows = outcome.kept
        removed = tuple(sorted(int(sampled[i]) for i in outcome.removed))

    new_global = aggregate(state.agg_spec, models, rows, sq_dists)
    pending = None
    if iteration + 1 < config.iterations:
        if state.helper is not None:
            pending = state.helper.submit(_helper_metrics, state, new_global)
        state.next_round = _local_models(state, config, iteration + 1, new_global)
    train_loss, test_error, validation_error = _metrics(state, new_global) if pending is None else pending.result()
    record = MetricsRecord(
        iteration=iteration,
        train_loss=train_loss,
        test_error=test_error,
        validation_error=validation_error,
        attack_active=config.attack != "none",
        attack_shift=shift,
        removed_devices=removed,
    )
    report = IterationReport(iteration, sampled, models, outcome, new_global)
    return new_global, record, report


@dataclass(frozen=True)
class TrialResult:
    """One trial's per-iteration records."""

    records: tuple[MetricsRecord, ...]

    @property
    def final_test_error(self) -> float:
        return self.records[-1].test_error


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    trial_results: tuple[TrialResult, ...]

    @property
    def mean_final_test_error(self) -> float:
        return float(np.mean([t.final_test_error for t in self.trial_results]))


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from the config's data source."""
    if config.dataset == "synth":
        train = synth_blobs(
            config.synth_classes,
            config.synth_per_class,
            config.synth_features,
            config.synth_spread,
            RngStream(config.seed, "data/train").generator(),
        )
        test = synth_blobs(
            config.synth_classes,
            config.synth_test_per_class,
            config.synth_features,
            config.synth_spread,
            RngStream(config.seed, "data/test").generator(),
        )
        return train, test
    if config.dataset == "idx":
        train = load_idx(config.idx_train_images, config.idx_train_labels)
        test = load_idx(config.idx_test_images, config.idx_test_labels)
        return train, test
    full = load_csv(config.csv_path, config.csv_label_column)
    n = len(full)
    n_test = max(1, int(round(config.csv_test_fraction * n)))
    order = RngStream(config.seed, "data/split").generator().permutation(n)
    return full.subset(np.sort(order[n_test:])), full.subset(np.sort(order[:n_test]))


def _carve_validation(test: Dataset, size: int, rng: np.random.Generator) -> Dataset:
    take = min(size, len(test))
    picked = np.sort(rng.choice(len(test), size=take, replace=False))
    return test.subset(picked)


def device_objectives(config: ExperimentConfig, model_spec: ModelSpec, train: Dataset, shards) -> list:
    """Each device's objective: its shard is a row index into ``train``, whose features every device
    shares; the compromised devices of a label-flip attack share one flipped label array."""
    flipped = flip_labels(train) if config.attack == "label_flip" else train
    return [shard_objective(model_spec, flipped if dev < config.compromised else train, shard)
            for dev, shard in enumerate(shards)]


def _off_this_cpu() -> Callable[[], None] | None:
    """An initializer that keeps the helper thread off the CPU the calling (main) thread runs on now
    (module docstring); None where the platform cannot say which CPU that is or only one CPU is allowed.
    The main thread itself is left unpinned."""
    try:
        others = os.sched_getaffinity(0) - {ctypes.CDLL(None).sched_getcpu()}
    except (AttributeError, OSError, TypeError):  # not Linux, or no glibc
        return None
    if not others:
        return None

    def pin() -> None:
        try:
            os.sched_setaffinity(0, others)  # 0: the calling thread
        except OSError:  # the allowed CPUs changed since; stay unpinned
            pass

    return pin


def run_trial(
    config: ExperimentConfig,
    train: Dataset,
    test: Dataset,
    shards: list[np.ndarray],
    trial_index: int,
    on_iteration: Callable[[IterationReport], None] | None = None,
) -> TrialResult:
    """Run one seeded trial of the full federated loop; ``shards`` holds each device's training indices.

    ``on_iteration`` receives each iteration's report; the harness keeps no
    reference to a report after that hook returns.  Above the gate the trial
    owns the overlapped evaluation's helper thread (module docstring).
    """
    stream = RngStream(config.seed, f"trial{trial_index}")
    model_spec = config.model_spec(train)
    validation = _carve_validation(test, config.validation_size, stream.child("validation").generator())
    overlap = (len(train) + len(test) + len(validation)) * train.num_features >= OVERLAP_MIN_VALUES
    records: list[MetricsRecord] = []
    pool = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="flrlab-eval", initializer=_off_this_cpu())
            if overlap else nullcontext())
    with pool as helper:
        state = TrialState(
            model_spec=model_spec,
            agg_spec=config.aggregator_spec(),
            train=train,
            test=test,
            validation=validation,
            stream=stream,
            weights=init_params(model_spec, stream.child("init").generator()),
            objectives=device_objectives(config, model_spec, train, shards),
            helper=helper,
        )
        for t in range(config.iterations):
            state.weights, record, report = run_iteration(state, config, t)
            records.append(record)
            if on_iteration is not None:
                on_iteration(report)
            # the report's matrices die here, before the next aggregate; the next
            # iteration's local models were built beside them
            del report

    return TrialResult(records=tuple(records))


def set_up(config: ExperimentConfig) -> tuple[Dataset, Dataset, list[list[np.ndarray]]]:
    """Validate the config, build its (train, test) datasets and partition the training set for every trial.

    ``shards[trial][device]`` holds the device's training instance indices.  A data
    class count that does not divide the devices, or a device of any trial left
    without instances, raises ConfigError before the first trial starts.
    """
    config.validate()
    train, test = build_datasets(config)
    if config.num_devices % train.num_classes:
        raise ConfigError(f"the {train.num_classes} classes of the data do not divide the {config.num_devices} devices")
    shards = []
    for trial in range(config.trials):
        rng = RngStream(config.seed, f"trial{trial}").child("partition").generator()
        assignment = partition_noniid(train, config.num_devices, config.label_bias, rng)
        shards.append([np.flatnonzero(assignment == dev) for dev in range(config.num_devices)])
        if empty := [dev for dev, shard in enumerate(shards[-1]) if shard.size == 0]:
            raise ConfigError(f"trial {trial}: devices {empty} get no training data; use more data or fewer devices")
    return train, test, shards


def run_experiment(
    config: ExperimentConfig, on_iteration: Callable[[IterationReport], None] | None = None
) -> ExperimentResult:
    """Set up every trial of the config's experiment, then run them in order;
    ``on_iteration`` receives each iteration's report."""
    train, test, shards = set_up(config)
    results = tuple(
        run_trial(config, train, test, trial_shards, trial, on_iteration=on_iteration)
        for trial, trial_shards in enumerate(shards)
    )
    return ExperimentResult(config, results)


def config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    """Canonical flat key=value view of a config (used for files and hashing)."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = "none" if value is None else str(value)
    return out


def config_hash(config: ExperimentConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in sorted(config_to_mapping(config).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _coerce(name: str, raw: str):
    """``raw`` as the field's type: int, float or str, or None for an optional field."""
    types = get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)
    text = raw.strip()
    if type(None) in types and text.lower() in ("none", ""):
        return None
    try:
        return types[0](text)
    except ValueError:
        raise ConfigError(f"{name} must be {types[0].__name__}, got {raw!r}") from None


def config_from_mapping(mapping: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from string key=value pairs, over an optional base."""
    config = base or ExperimentConfig()
    unknown = set(mapping) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    updates = {name: _coerce(name, value) for name, value in mapping.items()}
    return replace(config, **updates)


def format_float(value: float) -> str:
    if value != value or math.isinf(value):  # NaN or infinity should never be logged
        raise ValueError("non-finite metric value")
    return repr(float(value))


def metrics_csv_lines(records) -> list[str]:
    """Stable CSV encoding of MetricsRecords: a header line, then one line per iteration.

    Columns, in order:

    - ``iteration``: 0-based iteration index;
    - ``train_loss``: cross-entropy of the new global model on the training set;
    - ``test_error``: its error rate on the test set;
    - ``validation_error``: its error rate on the master's validation set;
    - ``attack_active``: 1 if the run has an attack (every iteration is attacked), else 0;
    - ``attack_shift``: the Krum attack's crafted shift, empty when no Krum
      attack produced a model (no attack, no solution, or another attack);
    - ``removed_devices``: ';'-separated device ids the defense removed, ascending.

    Floats are written with ``repr`` so they round-trip exactly.
    """
    lines = ["iteration,train_loss,test_error,validation_error,attack_active,attack_shift,removed_devices"]
    for r in records:
        shift = "" if r.attack_shift is None else format_float(r.attack_shift)
        removed = ";".join(str(d) for d in r.removed_devices)
        lines.append(
            f"{r.iteration},{format_float(r.train_loss)},{format_float(r.test_error)},"
            f"{format_float(r.validation_error)},{int(r.attack_active)},{shift},{removed}"
        )
    return lines


def write_trial_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(metrics_csv_lines(records)) + "\n")


def write_summary_csv(result: ExperimentResult, path) -> None:
    """A header and one row: config hash, trial count, mean and std of the trials' final test errors,
    mean final validation error, and the ';'-separated final test error of each trial."""
    last = [t.records[-1] for t in result.trial_results]
    test_errors = [r.test_error for r in last]
    with open(path, "w", newline="") as fh:
        fh.write(
            "config_hash,trials,mean_final_test_error,std_final_test_error,"
            "mean_final_validation_error,per_trial_final_test_error\n"
        )
        fh.write(
            f"{config_hash(result.config)},{len(last)},"
            f"{format_float(np.mean(test_errors))},"
            f"{format_float(np.std(test_errors))},"
            f"{format_float(np.mean([r.validation_error for r in last]))},"
            f"{';'.join(format_float(e) for e in test_errors)}\n"
        )
