"""Synthetic r/Starlink corpus (the §4 substrate).

The paper mines two years of real Reddit posts; offline we generate a
corpus whose *content is caused by the simulated world*: authors adopt
Starlink as the subscriber base grows, experience the speeds produced by
:mod:`repro.starlink.capacity`, live through the outages of
:mod:`repro.starlink.coverage`, react to the real event calendar
(pre-orders, the delivery-delay email, the roaming discovery), and write
posts whose wording carries their satisfaction.  The §4 analysis
pipelines then recover the world from the text alone.

Volume statistics are calibrated to §4.1: 372 posts, 8 190 upvotes and
5 702 comments per average week, and ~1 750 shared speed-test reports
across Jan '21 – Dec '22.
"""

from repro.social.authors import Author, AuthorPool
from repro.social.corpus import CorpusConfig, CorpusGenerator, RedditCorpus
from repro.social.events import Event, EventCalendar, build_news_index
from repro.social.reports import SpeedTestShare
from repro.social.schema import Post
from repro.social.textgen import TextGenerator

__all__ = [
    "Author",
    "AuthorPool",
    "CorpusConfig",
    "CorpusGenerator",
    "Event",
    "EventCalendar",
    "Post",
    "RedditCorpus",
    "SpeedTestShare",
    "TextGenerator",
    "build_news_index",
]
