"""Call telemetry → stream records (the live-ingestion boundary).

The batch pipeline exports whole :class:`~repro.telemetry.store.CallDataset`
snapshots; a deployment would instead *stream* each session's
measurements as calls end.  This adapter performs the one conversion the
streaming layer needs — ``datetime`` stamps onto the float event-time
axis (seconds since the dataset's first call) — and emits, per
participant: the four network aggregates as ``network``-role records
plus the 1–5 rating (when sampled) as an ``experience``-role record.

It reads the dataset's memoized
:func:`~repro.perf.columnar.participant_columns` block — the same one
the USaaS signal export reads — rather than walking the records again.

Output is sorted into strict event-time order, so feeding it straight to
:meth:`~repro.resilience.faults.FaultPlan.stream_faults` models exactly
what the paper warns about: the *transport*, not the source, disorders
the data.
"""

from __future__ import annotations

import datetime as dt
import math
from typing import List, Optional

from repro.core.usaas.privacy import scrub_all
from repro.perf.columnar import participant_columns
from repro.streaming.records import StreamRecord
from repro.telemetry.schema import NETWORK_METRICS
from repro.telemetry.store import CallDataset


def telemetry_stream(
    dataset: CallDataset,
    epoch: Optional[dt.datetime] = None,
) -> List[StreamRecord]:
    """Flatten a call dataset into event-time-ordered stream records.

    Args:
        epoch: the stream's t=0; defaults to the earliest call start so
            event times begin near zero.  Calls before an explicit
            epoch would produce negative event times and are refused by
            the record schema — pass an epoch no later than the data.
    """
    cols = participant_columns(dataset)
    if len(cols) == 0:
        return []
    if epoch is None:
        # Every call anchors the axis, including one without sessions.
        epoch = min(call.start for call in dataset)
    values = [cols.metric(metric).tolist() for metric in NETWORK_METRICS]
    ratings = cols.rating.tolist()
    keys = scrub_all(cols.user_id)
    records: List[StreamRecord] = []
    for i, (start, key) in enumerate(zip(cols.call_start, keys)):
        t = (start - epoch).total_seconds()
        for metric, column in zip(NETWORK_METRICS, values):
            records.append(StreamRecord(
                event_time_s=t,
                source="telemetry",
                metric=metric,
                value=column[i],
                key=key,
                role="network",
            ))
        rating = ratings[i]
        if not math.isnan(rating):  # NaN marks an unrated session
            records.append(StreamRecord(
                event_time_s=t,
                source="telemetry",
                metric="rating",
                value=rating,
                key=key,
                role="experience",
            ))
    records.sort(key=lambda r: (r.event_time_s, r.metric, r.key))
    return records
