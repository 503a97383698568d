"""Mixed predict/delete workload generation for serving experiments.

:func:`uniform_workload` spreads single-record deletion requests uniformly
over a run: the paper's Table 2 mix (:class:`RequestMix`), which replaces
randomly chosen prediction requests with deletions. Real GDPR traffic does
not look like that: deletions arrive in **storms** (a breach notice, a
press cycle, a right-to-be-forgotten campaign) and the number of records a
single user deletes is **heavy-tailed** (most users own a handful of
records, a few own thousands). :func:`generate_workload` generates such
schedules:

* the run is mostly predictions at a base deletion rate;
* ``n_storms`` windows are marked in which the deletion probability jumps
  to ``storm_unlearn_fraction``;
* every deletion event models *one user* erasing *all* their records: the
  per-user record count is a discretised Pareto draw (shape
  ``user_size_shape``; smaller = heavier tail), capped by
  ``max_user_size`` and by the records still deletable.

Both schedules are plain event lists that
:class:`~repro.serving.simulator.ServingSimulator` replays; each is
deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RequestMix:
    """The uniform workload of the paper's Table 2.

    Attributes:
        n_requests: total number of requests issued.
        unlearn_fraction: fraction of requests replaced by unlearning
            requests (the paper mixes in deletion requests for 0.1% of the
            training records by replacing randomly selected prediction
            requests, Section 6.2.2).
    """

    n_requests: int
    unlearn_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if not 0.0 <= self.unlearn_fraction < 1.0:
            raise ValueError("unlearn_fraction must be in [0, 1)")


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape of one generated workload.

    Attributes:
        n_requests: number of schedule slots (each becomes one prediction
            or one user-deletion event).
        base_unlearn_fraction: deletion probability outside storms.
        n_storms: number of deletion-storm windows.
        storm_length: slots per storm window.
        storm_unlearn_fraction: deletion probability inside a storm.
        user_size_shape: Pareto tail index of the per-user deletion size
            (1.1 is very heavy, 3.0 is mild).
        max_user_size: hard cap on a single user's deletion size.
    """

    n_requests: int
    base_unlearn_fraction: float = 0.01
    n_storms: int = 0
    storm_length: int = 50
    storm_unlearn_fraction: float = 0.5
    user_size_shape: float = 1.5
    max_user_size: int = 64

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        for name in ("base_unlearn_fraction", "storm_unlearn_fraction"):
            fraction = getattr(self, name)
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {fraction}")
        if self.n_storms < 0:
            raise ValueError("n_storms must be >= 0")
        if self.n_storms and self.storm_length < 1:
            raise ValueError("storm_length must be positive")
        if self.user_size_shape <= 0:
            raise ValueError("user_size_shape must be positive")
        if self.max_user_size < 1:
            raise ValueError("max_user_size must be >= 1")


@dataclass(frozen=True)
class WorkloadEvent:
    """One schedule slot: a prediction or one user's deletion burst.

    Attributes:
        kind: ``"predict"`` or ``"unlearn"``.
        row: prediction-pool row (predictions only).
        size: number of records the user erases (deletions only); the
            simulator consumes the next ``size`` records of its deletion
            pool.
    """

    kind: str
    row: int = 0
    size: int = 0


@dataclass
class Workload:
    """A concrete, replayable schedule plus its composition summary."""

    events: list[WorkloadEvent]
    storm_windows: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_predictions(self) -> int:
        return sum(1 for event in self.events if event.kind == "predict")

    @property
    def n_deletion_events(self) -> int:
        return sum(1 for event in self.events if event.kind == "unlearn")

    @property
    def n_deletions(self) -> int:
        """Total records erased (deletion events weighted by user size)."""
        return sum(event.size for event in self.events if event.kind == "unlearn")

    @property
    def deletion_sizes(self) -> list[int]:
        """Per-user deletion sizes in schedule order (the heavy tail)."""
        return [event.size for event in self.events if event.kind == "unlearn"]


def generate_workload(
    profile: WorkloadProfile,
    n_prediction_rows: int,
    n_deletable: int,
    seed: int | None = None,
) -> Workload:
    """Sample one schedule from a profile, deterministically per seed.

    Args:
        profile: workload shape (storms, tail, rates).
        n_prediction_rows: size of the prediction pool events index into.
        n_deletable: records available for deletion; once the generated
            deletion events have consumed them all, remaining slots fall
            back to predictions (a run can never request more deletions
            than the pool holds).
    """
    if n_prediction_rows < 1:
        raise ValueError("n_prediction_rows must be positive")
    rng = np.random.default_rng(seed)

    in_storm = np.zeros(profile.n_requests, dtype=bool)
    storm_windows: list[tuple[int, int]] = []
    if profile.n_storms:
        latest_start = max(1, profile.n_requests - profile.storm_length)
        starts = np.sort(rng.integers(0, latest_start, size=profile.n_storms))
        for start in starts:
            stop = min(int(start) + profile.storm_length, profile.n_requests)
            in_storm[start:stop] = True
            storm_windows.append((int(start), stop))

    unlearn_probability = np.where(
        in_storm, profile.storm_unlearn_fraction, profile.base_unlearn_fraction
    )
    wants_unlearn = rng.random(profile.n_requests) < unlearn_probability
    prediction_rows = rng.integers(0, n_prediction_rows, size=profile.n_requests)
    # Pre-draw the heavy tail: floor(1 + Lomax) >= 1 record per user.
    user_sizes = 1 + rng.pareto(
        profile.user_size_shape, size=profile.n_requests
    ).astype(np.int64)

    events: list[WorkloadEvent] = []
    remaining = n_deletable
    for slot in range(profile.n_requests):
        if wants_unlearn[slot] and remaining > 0:
            size = int(min(user_sizes[slot], profile.max_user_size, remaining))
            events.append(WorkloadEvent(kind="unlearn", size=size))
            remaining -= size
        else:
            events.append(WorkloadEvent(kind="predict", row=int(prediction_rows[slot])))
    return Workload(events=events, storm_windows=storm_windows)


def uniform_workload(
    mix: RequestMix,
    n_prediction_rows: int,
    n_deletable: int,
    seed: int | None = None,
) -> Workload:
    """Replace randomly chosen prediction slots by single-record deletions.

    The deletion count is ``round(n_requests * unlearn_fraction)`` (banker's
    rounding), but whenever ``unlearn_fraction > 0`` at least one deletion
    is scheduled -- small workloads must not silently degenerate into
    prediction-only runs (``n_requests=2, unlearn_fraction=0.2`` would
    otherwise round to zero). The count is then capped by ``n_deletable``,
    the records available for deletion.
    """
    if n_prediction_rows < 1:
        raise ValueError("n_prediction_rows must be positive")
    rng = np.random.default_rng(seed)
    n_scheduled = int(round(mix.n_requests * mix.unlearn_fraction))
    if mix.unlearn_fraction > 0.0:
        n_scheduled = max(1, n_scheduled)
    n_unlearn = min(n_scheduled, n_deletable)
    unlearn_slots = set(
        rng.choice(mix.n_requests, size=n_unlearn, replace=False).tolist()
    )
    prediction_rows = rng.integers(0, n_prediction_rows, size=mix.n_requests)
    return Workload(
        events=[
            WorkloadEvent(kind="unlearn", size=1)
            if slot in unlearn_slots
            else WorkloadEvent(kind="predict", row=int(prediction_rows[slot]))
            for slot in range(mix.n_requests)
        ]
    )
