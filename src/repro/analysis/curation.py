"""Curation: the boundary between noisy logs and labeled samples.

The paper leans on manual curation throughout ("we are forced to
manually curate data points sampled from a much larger, noisy source to
have precise ground truth").  This module is the single place where our
analyses may consult simulator ground truth — each helper documents
which human/verdict process it stands in for.  Analyses never read
``Actor`` tags or ``MessageKind`` labels directly; they go through here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.logs.events import Actor, LoginEvent, SearchEvent
from repro.logs.store import LogStore
from repro.scams.classifier import MessageCategory, classify_text
from repro.world.messages import EmailMessage


def review_message(message: EmailMessage) -> MessageCategory:
    """The "manual reviewer" for one message.

    Judges text (subject + body + visible keywords), exactly what a
    human reviewer would see.  Keywords join the haystack because real
    message bodies contain them; our organic messages store them
    separately to bound memory.
    """
    body = " ".join((message.body,) + message.keywords)
    return classify_text(message.subject, body)


def review_phishing_target(message: EmailMessage) -> str:
    """Categorize which account type a phishing message is after.

    Mirrors the Table 2 manual review: marker phrases in the visible
    text decide the bucket.
    """
    haystack = " ".join(
        (message.subject.lower(), message.body.lower())
        + tuple(k.lower() for k in message.keywords)
    )
    for target, markers in (
        ("Bank", ("bank", "billing", "statement")),
        ("App Store", ("app store", "purchase")),
        ("Social network", ("friend", "profile")),
        ("Mail", ("mail",)),
    ):
        if any(marker in haystack for marker in markers):
            return target
    return "Other"


def hijacker_searches(store: LogStore,
                      case_account_ids: Optional[List[str]] = None,
                      ) -> List[SearchEvent]:
    """Search events attributed to hijackers.

    Stands in for: the temporary logging experiment of Section 5.2,
    which captured searches from sessions already verdicted as hijacker
    sessions.  The actor tag here plays the role of that verdict.
    """
    wanted = set(case_account_ids) if case_account_ids is not None else None
    return store.query(
        SearchEvent, actor=Actor.MANUAL_HIJACKER,
        where=None if wanted is None else (lambda e: e.account_id in wanted),
    )


def hijacker_logins(store: LogStore,
                    case_account_ids: Optional[List[str]] = None,
                    ) -> List[LoginEvent]:
    """Login attempts attributed to manual hijackers.

    Stands in for: the manually maintained hijacker-IP list behind
    Dataset 5 and the high-confidence case verdicts behind Dataset 13.
    """
    wanted = set(case_account_ids) if case_account_ids is not None else None
    return store.query(
        LoginEvent, actor=Actor.MANUAL_HIJACKER,
        where=None if wanted is None else (lambda e: e.account_id in wanted),
    )


def hijack_windows(logins: Iterable[LoginEvent],
                   account_ids: Iterable[str]) -> Dict[str, Tuple[int, int]]:
    """Per-account (first, last) timestamps of the given hijacker logins.

    Stands in for: the per-case incident timelines the authors could
    reconstruct from verdicted sessions; used to scope "hijack day"
    analyses like the Section 5.3 volume deltas.  ``logins`` is a
    :func:`hijacker_logins` extraction.
    """
    wanted = set(account_ids)
    windows: Dict[str, Tuple[int, int]] = {}
    for login in logins:
        if login.account_id not in wanted:
            continue
        first, last = windows.get(
            login.account_id, (login.timestamp, login.timestamp))
        windows[login.account_id] = (
            min(first, login.timestamp), max(last, login.timestamp),
        )
    return windows
