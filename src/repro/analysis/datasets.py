"""Named, memoized log extractions shared across analysis artifacts.

The paper's pipelines all start from a handful of curated pools (the
Table 1 datasets, the hijacker-attributed event streams, the recovery
timeline).  Before this layer each figure/table module re-extracted its
own pools from the :class:`~repro.logs.store.LogStore`; a full report
paid the same scans many times over.  Here every extraction is a
**registered, dependency-declared dataset**: built at most once per
:class:`~repro.core.simulation.SimulationResult`, cached on a
:class:`Datasets` resolver, and shared by every artifact that declares
it (see :mod:`repro.analysis.registry`).

The 14 datasets of Table 1 live here too, each built the way the paper
assembled it: a noisy pool (user reports, detections, login logs)
narrowed by curation.  Where the authors used human reviewers we use
the text classifier / template reviewer; where they used
high-confidence abuse verdicts we use the recovery-claim +
hijacker-access criterion the paper itself describes.  Sample sizes are
the paper's (Table 1's "paper n") but clamp to what the simulated world
produced, and every sampling draw comes from the dataset's own
child-seeded RNG (``datasets:d<N>``), so a dataset's contents never
depend on which other dataset was built first.

Contract:

* **Pure.**  A builder is a deterministic function of the result and its
  declared dependencies — no global RNG, no mutation of simulation
  state.  A cache hit is byte-for-byte what a recomputation would
  return; callers treat datasets as read-only.
* **Declared.**  A builder may only resolve datasets named in its
  ``deps`` — undeclared access raises :class:`UndeclaredDatasetError`.
  This keeps the dependency graph honest, so subgraph selection
  (``--artifacts figure5``) provably computes only what is declared.
* **Observable.**  Every build runs under an ``analysis.dataset.build``
  span and bumps ``analysis.dataset.build.<name>``; cache hits bump
  ``analysis.dataset.hit`` — tests assert sharing and the report walk's
  build budget on these counters.
* **Import-time deterministic, pickling-free.**  The registry is
  populated by this module's import alone, and resolvers hold plain
  per-result caches — nothing here needs to cross a process boundary,
  so :func:`repro.core.parallel.run_worlds` results feed straight in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from repro import obs
from repro.analysis.curation import (
    hijack_windows,
    hijacker_logins,
    hijacker_searches,
    review_message,
)
from repro.core.simulation import SimulationResult
from repro.hijacker.incident import IncidentOutcome
from repro.logs.events import (
    Actor,
    FolderOpenEvent,
    HijackFlagEvent,
    HttpRequestEvent,
    MailReportedEvent,
    MailSentEvent,
    NotificationEvent,
    RecoveryClaimEvent,
    SettingsChangeEvent,
)
from repro.scams.classifier import MessageCategory
from repro.util.clock import DAY, HOUR
from repro.util.rng import child_seed
from repro.world.accounts import Account
from repro.world.messages import EmailMessage
from repro.world.users import ActivityLevel

__all__ = [
    "Dataset", "DatasetSpec", "Datasets", "UndeclaredDatasetError",
    "UnknownDatasetError", "contact_cohorts", "dataset", "dataset_closure",
    "dataset_names", "earlier_era_accounts", "get_dataset",
]


class UnknownDatasetError(KeyError):
    """A dataset name that nothing registered."""


class UndeclaredDatasetError(RuntimeError):
    """A builder or artifact resolved a dataset it did not declare."""


@dataclass(frozen=True)
class Dataset:
    """One registered extraction: name, declared deps, builder."""

    name: str
    description: str
    deps: Tuple[str, ...]
    build: Callable[["Datasets"], Any]


_DATASETS: Dict[str, Dataset] = {}


def dataset(name: str, *, deps: Iterable[str] = (),
            description: str = "") -> Callable:
    """Register a dataset builder: ``@dataset("hijacker_logins")``.

    ``deps`` must already be registered (definition order doubles as a
    topological order), so a bad declaration fails at import time.
    """
    dep_tuple = tuple(deps)

    def register(build: Callable[["Datasets"], Any]) -> Callable:
        if name in _DATASETS:
            raise ValueError(f"dataset {name!r} registered twice")
        for dep in dep_tuple:
            if dep not in _DATASETS:
                raise ValueError(
                    f"dataset {name!r} depends on unregistered {dep!r}")
        lines = (build.__doc__ or "").strip().splitlines() or [""]
        doc = description or lines[0]
        _DATASETS[name] = Dataset(name, doc, dep_tuple, build)
        return build

    return register


def get_dataset(name: str) -> Dataset:
    try:
        return _DATASETS[name]
    except KeyError:
        raise UnknownDatasetError(name) from None


def dataset_names() -> Tuple[str, ...]:
    """Registered names, in (deterministic) registration order."""
    return tuple(_DATASETS)


def dataset_closure(names: Iterable[str]) -> FrozenSet[str]:
    """Transitive dependency closure over the registered graph."""
    closure: set = set()
    frontier = list(names)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier.extend(get_dataset(name).deps)
    return frozenset(closure)


class Datasets:
    """Per-result resolver: memoizes every dataset it is asked for.

    One resolver shared across artifacts is what turns N per-module
    scans into one — the report pipeline and the CLI both thread a
    single instance through every render.
    """

    def __init__(self, result: SimulationResult):
        self.result = result
        self._cache: Dict[str, Any] = {}
        self._building: List[str] = []

    def get(self, name: str) -> Any:
        spec = get_dataset(name)
        if self._building:
            parent = self._building[-1]
            if name not in get_dataset(parent).deps:
                raise UndeclaredDatasetError(
                    f"dataset {parent!r} resolved {name!r} without "
                    f"declaring it (deps: {get_dataset(parent).deps})")
        if name in self._cache:
            obs.count("analysis.dataset.hit")
            obs.count(f"analysis.dataset.hit.{name}")
            return self._cache[name]
        obs.count("analysis.dataset.miss")
        obs.count(f"analysis.dataset.build.{name}")
        with obs.trace("analysis.dataset.build", dataset=name):
            self._building.append(name)
            try:
                value = spec.build(self)
            finally:
                self._building.pop()
        self._cache[name] = value
        return value

    def built(self) -> Tuple[str, ...]:
        """Names built so far (test/bench introspection)."""
        return tuple(self._cache)


# -- Table 1 ------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 1."""

    dataset_id: int
    data_type: str
    requested: int
    actual: int
    used_in_section: str


#: Table 1's static columns in row order: id, data type, paper n, section,
#: and the dataset behind the row.  Paper n is also the sample size the
#: builder draws; ``None`` marks a full extraction (paper n = actual).
#: D10 is D7 on an earlier-era run (:func:`earlier_era_accounts`), so
#: its row is fixed: one result collects none of it.
_TABLE1 = (
    (1, "Phishing emails", 100, "4.1", "phishing_emails"),
    (2, "Phishing pages detected by SafeBrowsing", 100, "4.1",
     "detected_pages"),
    (3, "Google Forms taken down for phishing", 100, "4.2",
     "forms_http_logs"),
    (4, "Decoy credentials injected in phishing pages", 200, "5.1",
     "decoys"),
    (5, "Login attempts from IPs belonging to hijackers", 300, "5.1",
     "hijacker_ips"),
    (6, "Keywords searched by hijackers", None, "5.2", "hijacker_searches"),
    (7, "High-confidence hijacked accounts", 575, "5.2", "hijacked_accounts"),
    (8, "Mail sent from hijacked accounts reported as spam", 200, "5.3",
     "reported_hijack_mail"),
    (9, "Hijacked account contacts and active-user random sample", 3000,
     "5.3", "contact_cohorts"),
    (10, "High-confidence hijacked accounts (earlier era)", 600, "5.4", None),
    (11, "Hijacked accounts successfully recovered", 5000, "6.2",
     "recovered_accounts"),
    (12, "Account recovery claims (one month)", None, "6.3",
     "recovery_claims_month"),
    (13, "Hijacking cases for IP attribution", 3000, "7", "hijack_cases"),
    (14, "Phone numbers used by hijackers", 300, "7", "hijacker_phones"),
)
_PAPER_N = {row[0]: row[2] for row in _TABLE1}


def _rng(result: SimulationResult, dataset_id: int) -> random.Random:
    return random.Random(
        child_seed(result.config.seed, f"datasets:d{dataset_id}"))


def _sample(result: SimulationResult, dataset_id: int, items: List,
            size: Optional[int] = None) -> List:
    """``items`` when they fit the paper n, else a seeded random sample."""
    size = _PAPER_N[dataset_id] if size is None else size
    if len(items) <= size:
        return items
    return _rng(result, dataset_id).sample(items, size)


# -- shared source pools ------------------------------------------------------

@dataset("mail_reports")
def _mail_reports(data: Datasets) -> List[MailReportedEvent]:
    """Every spam/phishing report (the unindexable D1/D8 source pool)."""
    return data.result.store.query(MailReportedEvent)


@dataset("recovery_claims")
def _recovery_claims(data: Datasets) -> List[RecoveryClaimEvent]:
    """Every recovery claim, timestamp-sorted."""
    return data.result.store.query(RecoveryClaimEvent)


@dataset("http_requests")
def _http_requests(data: Datasets) -> List[HttpRequestEvent]:
    """Every phishing-page HTTP request (D3's source pool)."""
    return data.result.store.query(HttpRequestEvent)


@dataset("hijacker_logins")
def _hijacker_logins(data: Datasets):
    """Login attempts attributed to manual hijackers (D5/D13 verdicts)."""
    return hijacker_logins(data.result.store)


@dataset("hijacker_searches")
def _hijacker_searches(data: Datasets):
    """D6: search events attributed to hijacker sessions."""
    return hijacker_searches(data.result.store)


def _resolve_reported_message(result: SimulationResult,
                              report: MailReportedEvent
                              ) -> Optional[EmailMessage]:
    message = result.mail.message_index.get(report.message_id)
    if message is not None:
        return message
    reporter = result.population.accounts.get(report.reporter_account_id)
    if reporter is None:
        return None
    try:
        return reporter.mailbox.get(report.message_id)
    except KeyError:
        return None


# -- D1–D14 -------------------------------------------------------------------

@dataset("phishing_emails", deps=("mail_reports",))
def _phishing_emails(data: Datasets) -> List[EmailMessage]:
    """D1: reported emails curated down to real phishing.

    Curation keeps messages that explicitly phish for credentials or
    link phishing pages, reviewing a random pool of up to 5,000 reports
    (shuffled even when the pool is small: log order would bias the
    curated 100 toward whatever campaigns ran first).
    """
    reports = data.get("mail_reports")
    pool = _rng(data.result, 1).sample(reports, min(5000, len(reports)))
    curated: List[EmailMessage] = []
    seen = set()
    for report in pool:
        message = _resolve_reported_message(data.result, report)
        if message is None or message.message_id in seen:
            continue
        seen.add(message.message_id)
        if review_message(message) is MessageCategory.PHISHING:
            curated.append(message)
        if len(curated) >= _PAPER_N[1]:
            break
    return curated


@dataset("detected_pages")
def _detected_pages(data: Datasets):
    """D2: phishing pages detected by SafeBrowsing."""
    chosen = _sample(data.result, 2, list(data.result.safebrowsing.detections))
    return sorted(chosen, key=lambda d: d.detected_at)


@dataset("forms_http_logs", deps=("http_requests",))
def _forms_http_logs(data: Datasets) -> Dict[str, List[HttpRequestEvent]]:
    """D3: per-page HTTP logs of taken-down Forms pages."""
    forms = [d for d in data.result.safebrowsing.detections
             if d.hosting.value == "forms"]
    by_page: Dict[str, List[HttpRequestEvent]] = {
        detection.page_id: [] for detection in _sample(data.result, 3, forms)
    }
    for event in data.get("http_requests"):
        if event.request.page_id in by_page:
            by_page[event.request.page_id].append(event)
    return by_page


@dataset("decoys")
def _decoys(data: Datasets):
    """D4: decoy credentials injected in phishing pages."""
    return list(data.result.decoys.records)


@dataset("hijacker_ips", deps=("hijacker_logins",))
def _hijacker_ips(data: Datasets):
    """D5: hijacker login attempts grouped by source IP.

    Curation stands in for the manual IP-blocklist the authors held:
    actor ground truth selects hijacker logins, then the analysis sees
    only (ip → attempts).
    """
    by_ip: Dict[str, List] = {}
    for login in data.get("hijacker_logins"):
        if login.ip is not None:
            by_ip.setdefault(str(login.ip), []).append(login)
    return by_ip


def _high_confidence_accounts(data: Datasets, size: int) -> List[Account]:
    claimed = {claim.account_id for claim in data.get("recovery_claims")}
    exploited = {
        report.account_id
        for report in data.result.incidents
        if report.outcome is IncidentOutcome.EXPLOITED
        and report.account_id is not None
    }
    chosen = _sample(data.result, 7, sorted(claimed & exploited), size)
    return [data.result.population.accounts[a] for a in sorted(chosen)]


@dataset("hijacked_accounts", deps=("recovery_claims",))
def _hijacked_accounts(data: Datasets) -> List[Account]:
    """D7: accounts whose recovery claims indicate manual hijacking."""
    return _high_confidence_accounts(data, _PAPER_N[7])


def earlier_era_accounts(data: Datasets) -> List[Account]:
    """D10: D7's curation on an earlier-era run, at D10's paper n."""
    return _high_confidence_accounts(data, _PAPER_N[10])


@dataset("incident_timeline", deps=("hijacker_logins", "hijacked_accounts"))
def _incident_timeline(data: Datasets):
    """Per hijacked account, the (first, last) hijacker-login window."""
    wanted = [account.account_id for account in data.get("hijacked_accounts")]
    return hijack_windows(data.get("hijacker_logins"), wanted)


@dataset("reported_hijack_mail",
         deps=("hijacked_accounts", "incident_timeline", "mail_reports"))
def _reported_hijack_mail(data: Datasets) -> List[EmailMessage]:
    """D8: reported mail sent from hijacked accounts in-window.

    The paper scopes Dataset 8 to "the day of the suspected hijacking";
    we scope to each account's hijack window (first to last hijacker
    login) plus two hours of slack — a hijacker session's sends all land
    within an hour of the last login, and a tight window keeps the
    owner's unrelated mail (also occasionally reported) out of the
    sample, as the authors' review would have.
    """
    hijacked = {account.account_id
                for account in data.get("hijacked_accounts")}
    windows = data.get("incident_timeline")
    messages: List[EmailMessage] = []
    seen = set()
    for report in data.get("mail_reports"):
        if report.sender_account_id not in hijacked:
            continue
        message = _resolve_reported_message(data.result, report)
        if message is None or message.message_id in seen:
            continue
        window = windows.get(report.sender_account_id)
        if window is None:
            continue
        if not window[0] <= message.sent_at <= window[1] + 2 * HOUR:
            continue
        seen.add(message.message_id)
        messages.append(message)
    return _sample(data.result, 8, messages)


def contact_cohorts(result: SimulationResult, seed_window_days: int,
                    cohort_size: int = 3000,
                    ) -> Tuple[List[Account], List[Account]]:
    """D9: (contacts-of-victims, random-actives) cohorts.

    Victims are accounts exploited within the first
    ``seed_window_days``; the follow-up window is everything after,
    mirroring the paper's 60-day observation.
    """
    population = result.population
    early_victims = {
        report.account_id
        for report in result.incidents
        if report.outcome is IncidentOutcome.EXPLOITED
        and report.account_id is not None
        and report.pickup_at < seed_window_days * DAY
    }
    victim_users = {
        population.accounts[a].owner.user_id for a in early_victims
    }
    contact_users = population.contact_graph.neighborhood(victim_users)
    contact_accounts = [
        population.account_of_user(user_id)
        for user_id in sorted(contact_users)
    ]
    rng = _rng(result, 9)
    if len(contact_accounts) > cohort_size:
        contact_accounts = rng.sample(contact_accounts, cohort_size)
    active = [
        account for account in population.accounts.values()
        if account.owner.activity in (ActivityLevel.DAILY, ActivityLevel.WEEKLY)
        and account.owner.user_id not in victim_users
    ]
    random_accounts = (
        active if len(active) <= cohort_size
        else rng.sample(active, cohort_size)
    )
    return contact_accounts, random_accounts


@dataset("contact_cohorts")
def _contact_cohorts(data: Datasets):
    """D9: contacts of week-one victims and a random active cohort."""
    return contact_cohorts(data.result, seed_window_days=7)


@dataset("recovered_accounts")
def _recovered_accounts(data: Datasets) -> List[str]:
    """D11: hijacked accounts successfully recovered."""
    recovered = sorted(
        case.account_id
        for case in data.result.remediation.recovered_cases())
    return sorted(_sample(data.result, 11, recovered))


@dataset("recovery_claims_month", deps=("recovery_claims",))
def _recovery_claims_month(data: Datasets) -> List[RecoveryClaimEvent]:
    """D12: the last month (28 days) of recovery claims."""
    since = max(0, data.result.horizon_minutes - 28 * DAY)
    # Tail of the shared (timestamp-sorted) claim pool — the same events
    # a windowed store query would bisect out.
    return [claim for claim in data.get("recovery_claims")
            if claim.timestamp >= since]


@dataset("hijack_cases")
def _hijack_cases(data: Datasets) -> List[str]:
    """D13: hijack-case account ids for IP attribution."""
    cases = sorted({
        report.account_id
        for report in data.result.incidents
        if report.outcome.gained_access and report.account_id is not None
    })
    return sorted(_sample(data.result, 13, cases))


@dataset("hijacker_phones")
def _hijacker_phones(data: Datasets):
    """D14: phone numbers hijackers enrolled for two-factor lockout."""
    changes = data.result.store.query(
        SettingsChangeEvent, actor=Actor.MANUAL_HIJACKER,
        where=lambda e: e.setting == "two_factor" and e.phone is not None,
    )
    return _sample(data.result, 14, [change.phone for change in changes])


@dataset("dataset_specs",
         deps=tuple(row[4] for row in _TABLE1 if row[4] is not None))
def _dataset_specs(data: Datasets) -> List[DatasetSpec]:
    """Every Table 1 row: paper n beside the n this world produced."""
    specs = []
    for dataset_id, data_type, paper_n, section, name in _TABLE1:
        actual = 0
        if name == "contact_cohorts":
            actual = min(len(cohort) for cohort in data.get(name))
        elif name is not None:
            actual = len(data.get(name))
        specs.append(DatasetSpec(
            dataset_id, data_type, actual if paper_n is None else paper_n,
            actual, section))
    return specs


# -- hijacker action streams (in-account behavior) ----------------------------

@dataset("hijacker_sends")
def _hijacker_sends(data: Datasets):
    """Mail sent by manual hijackers from victim accounts."""
    return data.result.store.query(
        MailSentEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_folder_opens")
def _hijacker_folder_opens(data: Datasets):
    """Folder opens attributed to hijacker sessions (Section 5.2)."""
    return data.result.store.query(
        FolderOpenEvent, actor=Actor.MANUAL_HIJACKER)


# -- remediation outcomes ----------------------------------------------------

@dataset("notifications")
def _notifications(data: Datasets):
    """Every proactive hijack notification sent to a victim."""
    return data.result.store.query(NotificationEvent)


@dataset("hijack_flags")
def _hijack_flags(data: Datasets):
    """Every risk-analysis / behavioral / user-claim hijack flag."""
    return data.result.store.query(HijackFlagEvent)


@dataset("recovery_latencies", deps=("recovery_claims", "hijack_flags"))
def _recovery_latencies(data: Datasets):
    """Flag→claim latencies per recovered account (Figure 9's series)."""
    from repro.recovery.latency import recovery_latencies

    return recovery_latencies(
        data.result.store,
        claims=data.get("recovery_claims"),
        flags=data.get("hijack_flags"))


@dataset("decoy_access_deltas")
def _decoy_access_deltas(data: Datasets):
    """Per-decoy minutes from credential submission to first pickup."""
    return data.result.decoys.first_access_deltas(data.result.store)
