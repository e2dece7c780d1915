"""Web-portal request stream over the Feb-Sep 2010 campaign.

A user request names a region (tiles) and a time span; the service
manager fans it out into hundreds or thousands of independent tasks
(Section 5.1).  Daily volume is heavy-tailed -- processing campaigns
come in bursts -- and epidemic-degradation days carry below-average
volume (see calibration notes: that is how 16% timeout days coexist
with a 0.17% campaign aggregate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import calibration as cal
from repro.cluster.degradation import DegradationModel
from repro.modis.catalog import ModisCatalog
from repro.modis.failures import FailureModel, distinct_task_mix
from repro.modis.tasks import DURATION_DISTS, Task, TaskKind

_request_ids = itertools.count(1)


@dataclass
class UserRequest:
    """One portal submission."""

    id: int
    day: int
    tasks: List[Task] = field(default_factory=list)


class RequestGenerator:
    """Generates the campaign's requests and their task decompositions."""

    def __init__(
        self,
        rng: np.random.Generator,
        catalog: ModisCatalog,
        failure_model: FailureModel,
        degradation: Optional[DegradationModel] = None,
        target_executions: int = 60_000,
        campaign_days: int = cal.MODIS_CAMPAIGN_DAYS,
    ) -> None:
        if target_executions < 100:
            raise ValueError("target_executions too small to be meaningful")
        self.rng = rng
        self.catalog = catalog
        self.degradation = degradation
        self.campaign_days = campaign_days
        self.kind_mix = distinct_task_mix(failure_model)
        # Expected executions per distinct task, to size the stream.
        mean_execs = sum(
            self.kind_mix[kind] * failure_model.expected_executions_per_task(kind)
            for kind in TaskKind
        )
        self.daily_distinct_mean = target_executions / (
            campaign_days * mean_execs
        )

    def requests_for_day(self, day: int) -> List[UserRequest]:
        """Sample the portal submissions arriving on ``day``."""
        volume = float(
            self.rng.lognormal(
                np.log(self.daily_distinct_mean) - 0.32, 0.8
            )
        )
        if self.degradation is not None and self.degradation.is_epidemic_day(day):
            volume *= cal.MODIS_EPIDEMIC_VOLUME_FACTOR
        n_tasks = int(self.rng.poisson(volume))
        if n_tasks == 0:
            return []
        # Split the day's tasks over 1..4 requests.
        n_requests = int(self.rng.integers(1, 5))
        requests = []
        splits = self.rng.multinomial(
            n_tasks, [1.0 / n_requests] * n_requests
        )
        for chunk in splits:
            if chunk == 0:
                continue
            request = UserRequest(id=next(_request_ids), day=day)
            request.tasks = [self._make_task(request.id, day) for _ in range(chunk)]
            requests.append(request)
        return requests

    def _make_task(self, request_id: int, day: int) -> Task:
        kinds = list(self.kind_mix)
        probs = np.asarray([self.kind_mix[k] for k in kinds])
        kind = kinds[int(self.rng.choice(len(kinds), p=probs))]
        tile = self.catalog.tiles[int(self.rng.integers(len(self.catalog.tiles)))]
        day_index = int(self.rng.integers(self.catalog.days))
        duration = float(DURATION_DISTS[kind].sample(self.rng))
        prediction_error = float(
            np.exp(self.rng.normal(0.0, cal.MODIS_PREDICTION_SIGMA))
        )
        task = Task(
            kind=kind,
            request_id=request_id,
            tile=tile,
            day_index=day_index,
            nominal_duration_s=duration,
            predicted_duration_s=duration * prediction_error,
        )
        if kind is TaskKind.SOURCE_DOWNLOAD:
            task.inputs = [
                g.name for g in self.catalog.granules_for_task(tile, day_index)
            ]
        elif kind is TaskKind.REPROJECTION:
            task.output = f"reproj/{tile[0]}-{tile[1]}/{day_index}/{task.id}"
        elif kind is TaskKind.AGGREGATION:
            task.output = f"agg/{request_id}/{task.id}"
        else:
            task.output = f"reduce/{request_id}/{task.id}"
        return task
