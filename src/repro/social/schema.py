"""Post and speed-test-share records."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SchemaError

TOPICS = (
    "experience_report",
    "speed_test_share",
    "outage_report",
    "question",
    "setup_story",
    "event_reaction",
    "roaming",
)

PROVIDERS = ("ookla", "fast", "starlink_app", "other")


@dataclass(frozen=True)
class SpeedTestShare:
    """Ground truth behind one shared speed-test screenshot.

    The OCR pipeline renders this into a synthetic screenshot and then
    extracts the numbers back out; analysis code must only ever consume
    the *extracted* values, as the paper's did.
    """

    provider: str
    download_mbps: float
    upload_mbps: float
    latency_ms: float

    def __post_init__(self) -> None:
        if self.provider not in PROVIDERS:
            raise SchemaError(f"unknown provider {self.provider!r}")
        if self.download_mbps <= 0 or self.upload_mbps <= 0:
            raise SchemaError("speeds must be positive")
        if self.latency_ms <= 0:
            raise SchemaError("latency must be positive")


@dataclass(frozen=True)
class Post:
    """One r/Starlink submission (with optional thread comments).

    Attributes:
        post_id: opaque identifier.
        created: submission timestamp.
        author: author handle.
        title / text: content (sentiment analysis runs over both).
        upvotes / n_comments: popularity counters (§4.1 mines "popular
            discussions" by these numbers).
        topic: generator-side category tag — analysis code must not use
            it (it stands in for information a real pipeline would not
            have), except as ground truth in tests.
        speed_test: attached speed-test share, if any.
        comment_texts: sampled comment bodies for busy threads; always
            ``len(comment_texts) <= n_comments``.
    """

    post_id: str
    created: dt.datetime
    author: str
    title: str
    text: str
    upvotes: int
    n_comments: int
    topic: str
    speed_test: Optional[SpeedTestShare] = None
    comment_texts: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.topic not in TOPICS:
            raise SchemaError(f"unknown topic {self.topic!r}")
        if self.upvotes < 0 or self.n_comments < 0:
            raise SchemaError("popularity counters must be non-negative")
        if len(self.comment_texts) > self.n_comments:
            raise SchemaError("more comment texts than comments")
        if not self.title and not self.text:
            raise SchemaError("post needs a title or text")

    @property
    def date(self) -> dt.date:
        return self.created.date()

    @property
    def popularity(self) -> float:
        """The trend miner's weight: upvotes plus comments."""
        return float(self.upvotes + self.n_comments)

    @property
    def full_text(self) -> str:
        """Title and body joined — what sentiment scoring consumes."""
        return f"{self.title}. {self.text}" if self.title else self.text

    @property
    def thread_text(self) -> str:
        """Post plus sampled comments — what keyword counting consumes."""
        parts = [self.full_text]
        parts.extend(self.comment_texts)
        return "\n".join(parts)


def post_to_record(post: Post) -> dict:
    """The canonical JSONL record for one post (what
    :meth:`RedditCorpus.to_jsonl` writes per line)."""
    return {
        "post_id": post.post_id,
        "created": post.created.isoformat(),
        "author": post.author,
        "title": post.title,
        "text": post.text,
        "upvotes": post.upvotes,
        "n_comments": post.n_comments,
        "topic": post.topic,
        "comment_texts": list(post.comment_texts),
        "speed_test": None if post.speed_test is None else {
            "provider": post.speed_test.provider,
            "download_mbps": post.speed_test.download_mbps,
            "upload_mbps": post.speed_test.upload_mbps,
            "latency_ms": post.speed_test.latency_ms,
        },
    }


def post_from_record(record: dict) -> Post:
    """Inverse of :func:`post_to_record`."""
    share = record.get("speed_test")
    return Post(
        post_id=record["post_id"],
        created=dt.datetime.fromisoformat(record["created"]),
        author=record["author"],
        title=record["title"],
        text=record["text"],
        upvotes=record["upvotes"],
        n_comments=record["n_comments"],
        topic=record["topic"],
        comment_texts=tuple(record.get("comment_texts", ())),
        speed_test=None if share is None else SpeedTestShare(
            provider=share["provider"],
            download_mbps=share["download_mbps"],
            upload_mbps=share["upload_mbps"],
            latency_ms=share["latency_ms"],
        ),
    )
